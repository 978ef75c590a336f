"""Reading and writing the three corpus formats.

BRAT standoff (.txt/.ann pairs) is the annotation-tool format; the
CoNLL-style column format exists for scorer interoperability; JSONL is the
lossless interchange format. Everything round-trips.
"""

from pathlib import Path

from corefkg import (
    ParseError,
    parse_brat,
    read_brat_dir,
    read_coref_columns,
    read_jsonl,
    write_brat,
    write_coref_columns,
    write_jsonl,
)

DATA = Path(__file__).parent / "data"

corpus = read_brat_dir(DATA / "toy_brat")
print(f"read {len(corpus)} documents:", [d.doc_id for d in corpus])

doc = next(d for d in corpus if d.doc_id == "CS/paper1")
print("\nmentions of CS/paper1:")
for m in doc.mentions:
    print(f"  [{m.start:3d},{m.end:3d}) {m.concept_type.value:8s} {m.surface!r}")
print("clusters:", [sorted(m.surface for m in c.mentions) for c in doc.clusters])

# BRAT round-trip: write_brat emits T lines plus one equivalence line per
# cluster of size >= 2 (singletons are implicit).
text, ann = write_brat(doc)
assert parse_brat(text, ann, doc.domain, doc_id=doc.doc_id) == doc
print("\n.ann serialization:")
print(ann)

# JSONL round-trip is exact, including entity links.
assert read_jsonl(write_jsonl(corpus)) == corpus
print("JSONL line for Med/paper3:")
print(write_jsonl(corpus).splitlines()[2])

# The column format is token-indexed; the writer returns a sidecar token
# table mapping token indices back to character offsets.
columns, token_table = write_coref_columns(corpus)
print("\nfirst column lines:")
print("\n".join(columns.splitlines()[:6]))
restored = read_coref_columns(columns, token_table)
assert [d.doc_id for d in restored] == [d.doc_id for d in corpus]
again, table_again = write_coref_columns(restored)
assert again == columns and table_again == token_table  # byte-stable

# Malformed input is rejected with the offending line number.
try:
    parse_brat("short text", "T1\tMaterial 0 99\tshort\n", "CS", doc_id="broken")
except ParseError as err:
    print("\nparse error as expected ->", err)
