"""Reader boundary property: a valid serialisation with one random edit
either reads back into a valid value or raises ParseError carrying a line.
A corpus is valid when ``validate_corpus`` finds nothing; a gold KG or a KG
when its groups of mention keys, concept names and cluster documents pass
checks written here from public fields only, sharing no code with the package.

The edits are a changed field value, a dropped key, a truncated line, a
swapped pair of offsets, a repeated line or list entry and a malformed
numeral (a digit of an offset, index or chain number replaced by ``٣``, or a
``+`` prefixed to it). Any other exception (KeyError, TypeError, ...) or an
invalid value is a reader defect, and so is a malformed numeral that reads
without ParseError: it was silently coerced.

The corpus readers check invariants while they build and call ``validate``
only to word a failure, so ``validate`` is also their oracle: a JSONL
document with broken invariants must be rejected exactly when ``validate``
finds violations, with ``validate``'s message.
"""

import contextlib
import json
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefkg import conll, jsonl
from corefkg.brat import parse_brat, read_brat_dir, write_brat, write_brat_dir
from corefkg.conll import parse_token_table, read_coref_columns, write_coref_columns
from corefkg.errors import ParseError
from corefkg.goldkg import compile_gold, read_entity_links, read_gold_jsonl, write_gold_jsonl
from corefkg.jsonl import document_from_dict, read_jsonl, write_jsonl
from corefkg.kgpop import CollapseStrategy, export_kg_jsonl, populate, read_kg_jsonl
from corefkg.model import Corpus, Document, validate, validate_corpus

from corpusgen import random_corpus

EDITS = ("change", "drop", "truncate", "swap", "repeat", "numeral")

JSON_VALUES = [-1, 0, 1, 2.5, True, None, "", "x", "Data", [], {}, [0]]
TEXT_VALUES = ["-1", "0", "1", "999", "x", "", "(0", "0)", "(1)", "Data", "T1", "*"]


def _pick_line(rng: random.Random, lines: list[str]) -> int | None:
    candidates = [i for i, line in enumerate(lines) if line.strip()]
    return rng.choice(candidates) if candidates else None


def _truncate(rng: random.Random, line: str) -> str:
    return line[: rng.randrange(1, len(line))] if len(line) > 1 else ""


def _paths(node, prefix=()):
    """Every (container, key) position inside a parsed JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def edit_json(rng: random.Random, text: str, edit: str) -> str:
    lines = text.split("\n")
    i = _pick_line(rng, lines)
    if i is None:
        return text
    if edit == "truncate":
        lines[i] = _truncate(rng, lines[i])
        return "\n".join(lines)
    obj = json.loads(lines[i])
    paths = list(_paths(obj))
    if edit == "repeat":
        entries = [p for p in paths if isinstance(_at(obj, p[:-1]), list)]
        if not entries or rng.random() < 0.3:
            lines.insert(i, lines[i])
            return "\n".join(lines)
        entry = rng.choice(entries)
        _at(obj, entry[:-1]).append(_at(obj, entry))
    elif edit == "swap":
        spans = [p for p in paths if isinstance(_at(obj, p), dict)
                 and {"start", "end"} <= _at(obj, p).keys()]
        if not spans:
            return text
        span = _at(obj, rng.choice(spans))
        span["start"], span["end"] = span["end"], span["start"]
    elif paths:
        path = rng.choice(paths)
        parent = _at(obj, path[:-1])
        if edit == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(JSON_VALUES)
    lines[i] = json.dumps(obj, ensure_ascii=False)
    return "\n".join(lines)


def _bad_numeral(rng: random.Random, digits: str) -> str:
    if rng.random() < 0.5:
        return "+" + digits
    i = rng.randrange(len(digits))
    return digits[:i] + "٣" + digits[i + 1:]


def edit_json_numeral(rng: random.Random, text: str) -> str:
    """Replace one int value of one line by a malformed numeral."""
    lines = text.split("\n")
    spots = []
    for i, line in enumerate(lines):
        if line.strip():
            obj = json.loads(line)
            spots += [(i, path) for path in _paths(obj) if type(_at(obj, path)) is int]
    assume(spots)
    i, path = rng.choice(spots)
    obj = json.loads(lines[i])
    parent = _at(obj, path[:-1])
    marker = "\x00numeral\x00"
    numeral = _bad_numeral(rng, str(parent[path[-1]]))
    parent[path[-1]] = marker
    lines[i] = json.dumps(obj, ensure_ascii=False).replace(json.dumps(marker), numeral)
    return "\n".join(lines)


def edit_text_numeral(rng: random.Random, text: str, numbers: re.Pattern) -> str:
    """Replace one ASCII digit run matched by a group of ``numbers``."""
    spots = [m.span(g) for m in numbers.finditer(text) for g in range(1, numbers.groups + 1)]
    assume(spots)
    start, end = rng.choice(spots)
    return text[:start] + _bad_numeral(rng, text[start:end]) + text[end:]


def edit_fields(rng: random.Random, text: str, edit: str, swap: re.Pattern) -> str:
    """Edit a tab/space separated text; ``swap`` matches two offsets to exchange."""
    lines = text.split("\n")
    if edit == "swap":
        candidates = [i for i, line in enumerate(lines) if swap.search(line)]
        if candidates:
            i = rng.choice(candidates)
            lines[i] = swap.sub(r"\g<pre>\g<end>\g<sep>\g<start>", lines[i], count=1)
        return "\n".join(lines)
    i = _pick_line(rng, lines)
    if i is None:
        return text
    if edit == "truncate":
        lines[i] = _truncate(rng, lines[i])
        return "\n".join(lines)
    if edit == "repeat":
        lines.insert(i, lines[i])
        return "\n".join(lines)
    parts = re.split(r"([\t ])", lines[i])   # fields at even positions
    k = 2 * rng.randrange((len(parts) + 1) // 2)
    if edit == "drop":
        del parts[k:k + 2]
    else:
        parts[k] = rng.choice(TEXT_VALUES)
    lines[i] = "".join(parts)
    return "\n".join(lines)


BRAT_OFFSETS = re.compile(r"^(?P<pre>T\d+\t\S+ )(?P<start>\d+)(?P<sep> )(?P<end>\d+)")
TABLE_OFFSETS = re.compile(r"^(?P<pre>\S+\t\d+\t)(?P<start>\d+)(?P<sep>\t)(?P<end>\d+)")
BRAT_NUMBERS = re.compile(r"^T[0-9]+\t\S+ ([0-9]+) ([0-9]+)\t", re.M)
TABLE_NUMBERS = re.compile(r"^[^\t\n]+\t([0-9]+)\t([0-9]+)\t([0-9]+)$", re.M)
# chain numbers of the last column ("(k", "k)" or "(k)"), after a tab or a "|"
CHAIN_NUMBERS = re.compile(r"(?<=[\t|])\(?([0-9]+)\)?(?=\||$)", re.M)


def _linked(corpus: Corpus) -> Corpus:
    """Link every mention to an entity named after its surface."""
    return Corpus(tuple(
        Document(d.doc_id, d.domain, d.text, d.mentions, d.clusters,
                 {m: "Q" + m.surface.lower() for m in d.mentions})
        for d in corpus
    ))


def read_edited(reader: str, rng: random.Random, edit: str):
    corpus = random_corpus(rng, n_docs=rng.randint(1, 3))
    if reader in ("jsonl", "gold", "kg"):
        if reader == "jsonl":
            text, read = write_jsonl(corpus), read_jsonl
        elif reader == "gold":
            text, read = write_gold_jsonl(compile_gold(_linked(corpus))), read_gold_jsonl
        else:
            text, read = export_kg_jsonl(populate(corpus, CollapseStrategy())), read_kg_jsonl
        edited = edit_json_numeral(rng, text) if edit == "numeral" else edit_json(rng, text, edit)
        return read(edited)
    if reader == "brat":
        doc = corpus.documents[0]
        text, ann = write_brat(doc)
        if edit == "numeral":
            ann = edit_text_numeral(rng, ann, BRAT_NUMBERS)
        else:
            ann = edit_fields(rng, ann, edit, BRAT_OFFSETS)
        return Corpus((parse_brat(text, ann, doc.domain, doc_id=doc.doc_id),))
    return read_coref_columns(*edit_columns(rng, corpus, edit))


def edit_columns(rng: random.Random, corpus: Corpus, edit: str) -> tuple[str, str]:
    """The column file and token table of ``corpus``, one of them edited."""
    columns, table = write_coref_columns(corpus)
    if edit == "numeral":
        if rng.random() < 0.5:
            table = edit_text_numeral(rng, table, TABLE_NUMBERS)
        else:
            columns = edit_text_numeral(rng, columns, CHAIN_NUMBERS)
    elif edit == "swap" or rng.random() < 0.3:
        table = edit_fields(rng, table, edit, TABLE_OFFSETS)
    else:
        columns = edit_fields(rng, columns, edit, TABLE_OFFSETS)
    return columns, table


@pytest.mark.parametrize("reader", ["jsonl", "conll", "brat", "gold", "kg"])
@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), edit=st.sampled_from(EDITS))
def test_edited_input_reads_valid_or_raises_parse_error_with_line(reader, rng, edit):
    try:
        result = read_edited(reader, rng, edit)
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        return
    assert edit != "numeral", "a malformed numeral was read without ParseError"
    if reader == "gold":
        entities = [c.entity for c in result.concepts]
        assert len(set(entities)) == len(entities), "an entity named twice"
        assert_valid_groups([sorted(c.mentions) for c in result.concepts])
    elif reader == "kg":
        ids = [c.concept_id for c in result.concepts]
        assert len(set(ids)) == len(ids), "a concept_id named twice"
        clusters = [c for concept in result.concepts for c in concept.clusters]
        assert {c.doc_id for c in clusters} <= set(result.papers)
        assert_valid_groups([[(m.doc_id, m.start, m.end, m.concept_type.value) for m in c.mentions]
                             for c in clusters])
    else:
        assert validate_corpus(result) == []


def read_outcome(columns: str, table: str | None):
    try:
        return read_coref_columns(columns, table)
    except ParseError as exc:
        return str(exc), exc.line


def whole_table_spans(table, doc_id: str, n: int, spans=conll._TokenTable.spans):
    """``_TokenTable.spans`` of a table read whole first."""
    table.offsets()
    return spans(table, doc_id, n)


def table_loop_outcome(columns: str, table: str | None):
    """``read_outcome`` with the table read by its line loop alone, as the dict
    of ``parse_token_table``: the per-document check never runs."""
    with mock.patch.object(conll._TokenTable, "spans", whole_table_spans):
        return read_outcome(columns, table)


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), edit=st.sampled_from((None, *EDITS)),
       with_table=st.booleans())
def test_conll_table_slices_read_as_the_table_loop_reads_them(rng, edit, with_table):
    # a written corpus, or one with an edited column file or token table: the
    # same Corpus, or the same ParseError text and line, by either path
    corpus = random_corpus(rng, n_docs=rng.randint(1, 3))
    if edit is None:
        columns, table = write_coref_columns(corpus)
    else:
        columns, table = edit_columns(rng, corpus, edit)
    table = table if with_table else None
    expected = table_loop_outcome(columns, table)
    # the writer's table, unedited, is read in step to its end, never whole
    whole = mock.patch.object(conll, "parse_token_table", side_effect=AssertionError("whole"))
    with whole if edit is None else contextlib.nullcontext():
        assert read_outcome(columns, table) == expected
    if edit is None:  # the generator's texts are single-spaced, so either read restores them
        assert [(d.doc_id, d.text) for d in expected] == [(d.doc_id, d.text) for d in corpus]


def assert_valid_groups(groups: list) -> None:
    """Each group of mention keys ``(doc_id, start, end, type name)`` is
    non-empty, no key is listed twice within or across groups, every span is
    ordered and no mention is typed Mixed."""
    keys = [key for group in groups for key in group]
    assert all(groups), "an empty group"
    assert len(set(keys)) == len(keys), "a mention key listed twice"
    assert all(0 <= start < end and kind != "Mixed" for _, start, end, kind in keys), keys


# a bad mention entry, the same entry as an entity-links row and as a BRAT entity
# line where those formats can spell it, and the text every reader raises for it
BAD_ENTRIES = {
    "reversed": ({"start": 5, "end": 2, "type": "Data"}, "d\t5\t2\tData", "T2\tData 5 2\tx",
                 "offset order violated @ d[5,2)"),
    "mixed": ({"start": 0, "end": 2, "type": "Mixed"}, "d\t0\t2\tMixed", None,
              "mention typed Mixed @ d[0,2)"),
    "unknown-type": ({"start": 0, "end": 2, "type": "Widget"}, "d\t0\t2\tWidget",
                     "T2\tWidget 0 2\tab", "unknown concept type 'Widget'"),
    "missing-start": ({"end": 2, "type": "Data"}, None, None, "missing field 'start'"),
    "true-offset": ({"start": True, "end": 2, "type": "Data"}, None, None,
                    "field 'start' has wrong type bool"),
}


def parse_brat_ann(ann: str) -> Document:
    return parse_brat("abcdef", ann, doc_id="d")


def _with_bad_second_line(entry: dict, row: str | None, ann: str | None):
    """(reader, text) pairs whose line 2 holds ``entry`` as a mention of document d."""
    doc = {"doc_id": "d", "domain": "CS", "text": "abcdef", "clusters": []}
    ok = dict(doc, doc_id="ok", mentions=[{"start": 0, "end": 2, "type": "Data"}])
    yield read_jsonl, f"{json.dumps(ok)}\n{json.dumps(dict(doc, mentions=[entry]))}\n"
    cluster = {"doc_id": "d", "mentions": [dict(entry, surface="ab", source="coref_only")]}
    concept = {"record": "concept", "concept_id": "c", "label": "ab", "domain_scope": "ALL",
               "type": "Data", "clusters": [cluster]}
    yield read_kg_jsonl, f'{{"record": "kg", "papers": ["d"]}}\n{json.dumps(concept)}\n'
    header = {"record": "gold_kg", "clusters_kept": 1, "singleton_clusters": 1}
    gold = {"entity": "Q1", "mentions": [dict(entry, doc_id="d")]}
    yield read_gold_jsonl, f"{json.dumps(header)}\n{json.dumps(gold)}\n"
    if row is not None:
        yield read_entity_links, f"d\t0\t2\tData\tQ1\n{row}\tQ1\n"
    if ann is not None:
        yield parse_brat_ann, f"T1\tData 0 2\tab\n{ann}\n"


@pytest.mark.parametrize("entry, row, ann, message", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_every_reader_words_a_bad_mention_entry_alike(entry, row, ann, message):
    for read, text in _with_bad_second_line(entry, row, ann):
        with pytest.raises(ParseError) as err:
            read(text)
        assert (str(err.value), err.value.line) == (f"line 2: {message}", 2), read.__name__


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _long_numeral_second_lines(numeral: str):
    """(reader, text, what) triples whose line 2 holds ``numeral`` where an int
    goes; ``what`` names the field in the reader's error."""
    entry = {"start": "N", "end": 2, "type": "Data"}
    for read, text in _with_bad_second_line(entry, "d\tN\t2\tData", "T2\tData N 2\tab"):
        if read in (read_jsonl, read_kg_jsonl, read_gold_jsonl):
            yield read, text.replace('"N"', numeral), "JSON number"
        else:
            yield read, text.replace("N", numeral), "start" if read is read_entity_links else "offset"
    table = f"d\t0\t0\t2\nd\t1\t3\t{numeral}\n"
    columns = "#begin document d\nd\t0\tab\t(0)\nd\t1\tcd\t-\n#end document\n"
    yield parse_token_table, table, "token table entry"
    yield lambda table: read_coref_columns(columns, table), table, "token table entry"
    yield read_coref_columns, columns.replace("(0)", f"({numeral})"), "chain number"


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="this interpreter converts numerals of any length")
def test_every_reader_words_a_numeral_past_the_digit_limit():
    for read, text, what in _long_numeral_second_lines("1" * (DIGIT_LIMIT + 1)):
        with pytest.raises(ParseError) as err:
            read(text)
        message = f"line 2: {what} has more than {DIGIT_LIMIT} digits"
        assert (str(err.value), err.value.line) == (message, 2), read.__name__


INVARIANT_EDITS = ("swap", "past-end", "mixed", "duplicate", "second-cluster")


def break_invariant(rng: random.Random, obj: dict, edit: str) -> None:
    """Edit one JSONL document object so that it may break a ``validate`` rule."""
    mentions, clusters = obj["mentions"], obj["clusters"]
    if not mentions:
        return
    mention = rng.choice(mentions)
    if edit == "swap":
        mention["start"], mention["end"] = mention["end"], mention["start"]
    elif edit == "past-end":
        mention["end"] = len(obj["text"]) + rng.randint(1, 3)
    elif edit == "mixed":
        mention["type"] = "Mixed"
    elif edit == "duplicate":
        mentions.append(dict(mention))
    else:  # one clustered index added to a second cluster, or a new one
        owned = [(k, idx) for k, group in enumerate(clusters) for idx in group]
        if not owned:
            return
        k, idx = rng.choice(owned)
        others = [group for j, group in enumerate(clusters) if j != k]
        if others:
            rng.choice(others).append(idx)
        else:
            clusters.append([idx])


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       edits=st.lists(st.sampled_from(INVARIANT_EDITS), min_size=1, max_size=3))
def test_jsonl_reader_rejects_exactly_what_validate_rejects(rng, edits):
    lines = write_jsonl(random_corpus(rng, n_docs=rng.randint(1, 3))).splitlines()
    i = rng.randrange(len(lines))
    obj = json.loads(lines[i])
    for edit in edits:
        break_invariant(rng, obj, edit)
    lines[i] = json.dumps(obj)
    try:
        doc = document_from_dict(obj, i + 1)
    except ParseError:
        return  # a schema error, which validate does not word
    violations = validate(doc)
    try:
        read_jsonl("\n".join(lines))
    except ParseError as exc:
        assert violations, str(exc)
        assert (str(exc), exc.line) == (f"line {i + 1}: {'; '.join(violations)}", i + 1)
    else:
        assert violations == []


@pytest.mark.parametrize("table", [
    "d\t0\t3\t5\nd\t1\t0\t1\n",
], ids=["tsv"])
def test_conll_mention_ending_before_its_start_is_worded_by_validate(table):
    # a mention from "ab" at [3,5) to "c" at [0,1) would end before it starts;
    # the table's spans do not increase, so the reader refuses it first
    columns = "#begin document d\nd\t0\tab\t(0\nd\t1\tc\t0)\n#end document\n"
    with pytest.raises(ParseError) as err:
        read_coref_columns(columns, table)
    assert (str(err.value), err.value.line) == (
        "line 4: token table span [0,1) of token 1 'c' of 'd' starts before the previous "
        "token ends at 5", 4)


def test_corpus_readers_do_not_validate_valid_documents(monkeypatch, tmp_path):
    def refuse(doc):
        raise AssertionError(f"validate ran on {doc.doc_id}")

    corpus = random_corpus(random.Random(31), n_docs=6)
    columns, table = write_coref_columns(corpus)
    write_brat_dir(corpus, tmp_path)
    monkeypatch.setattr(jsonl, "validate", refuse)
    assert read_jsonl(write_jsonl(corpus)) == corpus
    assert len(read_coref_columns(columns, table)) == len(corpus)
    assert len(read_brat_dir(tmp_path)) == len(corpus)
