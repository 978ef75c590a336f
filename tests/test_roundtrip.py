"""Round trips through every corpus format.

A corpus that ``read_jsonl`` accepts, written in a format and read back,
either makes the writer raise before it writes anything or reads back as the
input up to the format's documented mappings:

- JSONL keeps everything.
- BRAT keeps everything but the doc_id and the document order. A document
  reads back under its file's path, ``<domain>/<doc_id>`` normalized: ``d``
  in domain ``CS`` reads back as ``CS/d``, and an id that starts with its
  domain keeps it. The writer refuses a corpus in which a path would read
  back in another domain or two documents share a path.
- The column format keeps the doc_ids, their order, the offsets and every
  character of the text but whitespace, which reads back as single spaces,
  so the coreference partition survives. The types are lost, and a document
  reads back in the domain of its doc_id's first ``/`` segment, as from a
  BRAT tree. The writer refuses no corpus that a reader accepts.
"""

import json
import posixpath
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefkg.brat import read_brat_dir, write_brat_dir
from corefkg.cli import main
from corefkg.conll import read_coref_columns, write_coref_columns
from corefkg.errors import ParseError
from corefkg.jsonl import read_jsonl, write_jsonl
from corefkg.model import ConceptType, Corpus, MentionSource, all_clusters

from corpusgen import random_corpus

#: doc_id forms, filled in with the document's index: plain, led by a
#: domain, with an empty segment, a trailing slash, a dot, a ``#`` after a
#: domain, and ids that name a domain directory
DOC_IDS = ["d{i}", "CS/d{i}", "Bio/x/d{i}", "x//d{i}", "d{i}/", "v1.{i}", "CS/#d{i}", "é{i}",
           "CS", "Bio"]
DOMAINS = ["", "CS", "Bio"]
#: one-character whitespace that may stand for a space of the generated text
SPACES = [" ", "\t", "\n", "\r", "\x85", "\xa0", "\u2028", "\u3000"]


def _corpus(seed: int, doc_ids: list[str], domains: list[str]) -> Corpus:
    """A ``random_corpus`` with the given doc_id forms and domains and some
    spaces of its text replaced by other whitespace, as ``read_jsonl`` reads
    it; a corpus it refuses (a doc_id given twice) is no input."""
    rng = random.Random(seed)
    records = list(map(json.loads, _lines(write_jsonl(random_corpus(rng, len(doc_ids))))))
    for i, (record, doc_id, domain) in enumerate(zip(records, doc_ids, domains)):
        text = "".join(rng.choice(SPACES) if ch == " " and rng.random() < 0.3 else ch
                       for ch in record["text"])
        record.update(doc_id=doc_id.format(i=i), domain=domain, text=text)
    try:
        return read_jsonl("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))
    except ParseError:
        assume(False)


def _lines(text: str) -> list[str]:
    """The lines of a JSONL text; a surface may hold U+2028 or U+0085."""
    return text.split("\n")[:-1]


def _brat_path(doc_id: str, domain: str) -> str:
    return posixpath.normpath(doc_id if not domain or doc_id.split("/")[0] == domain
                              else f"{domain}/{doc_id}")


def _renamed(corpus: Corpus, name) -> dict:
    """Each document's JSONL record, its doc_id replaced by ``name(doc)``,
    keyed by that name."""
    renamed = {}
    for doc, line in zip(corpus, _lines(write_jsonl(corpus))):
        record = json.loads(line)
        record["doc_id"] = name(doc)
        renamed[record["doc_id"]] = record
    return renamed


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _partition(doc) -> set[frozenset[tuple[int, int]]]:
    return {frozenset(m.span() for m in c.mentions) for c in all_clusters(doc)}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       docs=st.lists(st.tuples(st.sampled_from(DOC_IDS), st.sampled_from(DOMAINS)), max_size=5))
def test_every_format_reads_back_what_it_wrote_or_refuses_before_writing(seed, docs):
    corpus = _corpus(seed, [d for d, _ in docs], [domain for _, domain in docs])
    assert read_jsonl(write_jsonl(corpus)) == corpus

    paths = [_brat_path(doc.doc_id, doc.domain) for doc in corpus]
    brat_refuses = len(set(paths)) < len(paths) or any(
        (path.split("/")[0] if "/" in path else "") != doc.domain
        for path, doc in zip(paths, corpus))
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch, "brat")
        root.mkdir()
        try:
            write_brat_dir(corpus, root)
        except ValueError:
            assert brat_refuses
            assert not any(root.iterdir())
        else:
            assert not brat_refuses
            back = read_brat_dir(root)
            expected = _renamed(corpus, lambda doc: _brat_path(doc.doc_id, doc.domain))
            assert _renamed(back, lambda doc: doc.doc_id) == expected
            # BRAT -> JSONL -> BRAT writes the same files
            write_brat_dir(read_jsonl(write_jsonl(back)), Path(scratch, "again"))
            assert _files(Path(scratch, "again")) == _files(root)

    back = read_coref_columns(*write_coref_columns(corpus))
    assert [doc.doc_id for doc in back] == [doc.doc_id for doc in corpus]
    for doc, read in zip(corpus, back):
        assert read.domain == (doc.doc_id.split("/")[0] if "/" in doc.doc_id else "")
        assert read.text == "".join(" " if ch.isspace() else ch for ch in doc.text)
        assert _partition(read) == _partition(doc)
        assert all(m.concept_type is ConceptType.NONE and m.source is MentionSource.COREF_ONLY
                   for m in read.mentions)


TOY_BRAT = Path(__file__).resolve().parents[1] / "demos" / "data" / "toy_brat"


@pytest.mark.parametrize("source", ["corpusgen", "toy_brat"])
def test_a_corpus_keeps_its_domains_through_a_column_file_and_a_brat_tree(tmp_path, source):
    # JSONL -> column -> BRAT -> JSONL, each doc_id led by its domain: the column
    # reader takes that domain back, so the BRAT writer takes the document
    src = tmp_path / "in.jsonl"
    if source == "corpusgen":
        src.write_text(write_jsonl(random_corpus(random.Random(7), 20)), "utf-8")
    else:
        assert main(["convert", "--in", str(TOY_BRAT), "--out", str(src)]) == 0
    steps = [src, tmp_path / "c.conll", tmp_path / "tree", tmp_path / "out.jsonl"]
    for before, after in zip(steps, steps[1:]):
        assert main(["convert", "--in", str(before), "--out", str(after)]) == 0
    corpus = read_jsonl(src.read_text("utf-8"))
    columns = read_coref_columns(*(Path(f"{steps[1]}{suffix}").read_text("utf-8")
                                   for suffix in ("", ".tokens")))
    back = read_jsonl(steps[-1].read_text("utf-8"))
    assert {doc.doc_id: doc.domain for doc in back} == {doc.doc_id: doc.domain for doc in corpus}
    # BRAT keeps no singleton cluster, but the partition of the mentions survives
    assert ({doc.doc_id: (doc.text, doc.mentions, _partition(doc)) for doc in back}
            == {doc.doc_id: (doc.text, doc.mentions, _partition(doc)) for doc in columns})
