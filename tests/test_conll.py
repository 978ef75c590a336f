import ast
import contextlib
import random
import re
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg import conll, jsonl, parallel
from corefkg.conll import parse_token_table, read_coref_columns, write_coref_columns
from corefkg.errors import ParseError
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    all_clusters,
)

import _reference
from corpusgen import random_corpus


def doc_from_columns(body: str) -> Corpus:
    return read_coref_columns(f"#begin document d\n{body}#end document\n")


def span_partition(doc) -> set[frozenset]:
    return {
        frozenset((m.start, m.end) for m in c.mentions) for c in all_clusters(doc)
    }


# --- bracket semantics ---------------------------------------------------------

def test_two_token_mention():
    corpus = doc_from_columns("d\t0\tA\t(0\nd\t1\tB\t0)\nd\t2\tC\t-\n")
    doc = corpus.documents[0]
    assert len(doc.mentions) == 1
    m = doc.mentions[0]
    assert (m.start, m.end) == (0, 3)  # "A B"
    assert m.surface == "A B"
    assert m.concept_type is ConceptType.NONE


def test_nested_mentions_different_chains():
    corpus = doc_from_columns("d\t0\tA\t(0)|(1\nd\t1\tB\t1)\n")
    doc = corpus.documents[0]
    spans = sorted((m.start, m.end) for m in doc.mentions)
    assert spans == [(0, 1), (0, 3)]
    assert len(doc.clusters) == 2


def test_no_mentions():
    corpus = doc_from_columns("d\t0\tA\t-\nd\t1\tB\t-\nd\t2\tC\t-\n")
    assert corpus.documents[0].mentions == ()


def test_single_token_mention():
    corpus = doc_from_columns("d\t0\tA\t(3)\n")
    doc = corpus.documents[0]
    assert [(m.start, m.end) for m in doc.mentions] == [(0, 1)]


def test_same_chain_nesting_is_lifo():
    corpus = doc_from_columns("d\t0\tA\t(0\nd\t1\tB\t(0\nd\t2\tC\t0)\nd\t3\tD\t0)\n")
    doc = corpus.documents[0]
    spans = sorted((m.start, m.end) for m in doc.mentions)
    # inner open at token 1 closes at token 2; outer spans tokens 0..3
    assert spans == [(0, 7), (2, 5)]
    assert len(doc.clusters) == 1


# --- errors ---------------------------------------------------------------------

def test_unbalanced_bracket():
    with pytest.raises(ParseError, match="unbalanced"):
        doc_from_columns("d\t0\tA\t(0\n")


def test_close_before_open():
    with pytest.raises(ParseError, match="closed before opened"):
        doc_from_columns("d\t0\tA\t0)\n")


def test_missing_end_sentinel():
    with pytest.raises(ParseError, match="missing end-of-document"):
        read_coref_columns("#begin document d\nd\t0\tA\t-\n")


def test_malformed_bracket_entry():
    with pytest.raises(ParseError, match="malformed"):
        doc_from_columns("d\t0\tA\t(x)\n")


# token 1 holds the entry, inside a mention of chain 1 over tokens 0-2 ("A B C"):
# the clusters read, as sorted spans, or the error text and line
@pytest.mark.parametrize("entry, expected", [
    ("(0", ("unbalanced brackets: chains [0] still open", 5)),
    ("0)", ("chain 0 closed before opened", 3)),
    ("(0)", [[(0, 5)], [(2, 3)]]),
    ("-", [[(0, 5)]]),
    ("_", [[(0, 5)]]),
    ("0", ("malformed coreference entry '0'", 3)),
    ("(", ("malformed coreference entry '('", 3)),
    (")", ("malformed coreference entry ')'", 3)),
    ("()", ("malformed coreference entry '()'", 3)),
    ("((0", ("malformed coreference entry '((0'", 3)),
    ("(0))", ("malformed coreference entry '(0))'", 3)),
    ("(0)|(1", ("unbalanced brackets: chains [1] still open", 5)),
    ("0)|0)", ("chain 0 closed before opened", 3)),
])
def test_each_coreference_entry_reads_as_pinned(entry, expected):
    body = f"d\t0\tA\t(1\nd\t1\tB\t{entry}\nd\t2\tC\t1)\n"
    if isinstance(expected, list):
        doc = doc_from_columns(body).documents[0]
        assert [sorted((m.start, m.end) for m in c.mentions) for c in doc.clusters] == expected
        return
    message, line = expected
    with pytest.raises(ParseError) as err:
        doc_from_columns(body)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_token_line_outside_document():
    with pytest.raises(ParseError, match="outside"):
        read_coref_columns("d\t0\tA\t-\n")


def test_duplicate_span_rejected():
    with pytest.raises(ParseError, match="duplicate mention span"):
        doc_from_columns("d\t0\tA\t(0)|(1)\n")


def test_duplicate_doc_id_reports_its_end_line():
    doc = "#begin document d\nd\t0\tA\t-\n#end document\n"
    with pytest.raises(ParseError, match="duplicate doc_id 'd'") as err:
        read_coref_columns(doc + "\n" + doc)
    assert err.value.line == 7


# --- writer ----------------------------------------------------------------------

def mk_doc():
    text = "the net learns fast"
    m1 = Mention("d", 0, 7, ConceptType.METHOD, "the net")
    m2 = Mention("d", 8, 14, ConceptType.PROCESS, "learns")
    doc = Document("d", "CS", text, (m1, m2),
                   (CoreferenceCluster("d", frozenset([m1, m2])),))
    return doc


def test_writer_emits_all_mentions_and_sidecar():
    columns, table = write_coref_columns(Corpus((mk_doc(),)))
    assert columns.startswith("#begin document d\n")
    assert columns.rstrip().endswith("#end document")
    offsets = parse_token_table(table)
    assert offsets[("d", 0)] == (0, 3)
    # every mention is bracketed somewhere
    assert "(0" in columns and "0)" in columns


@pytest.mark.parametrize("row", ["d\t+0\t0\t3", "d\t0\t1_0\t3", "d\t0\t0\t٣", "d\t0\t-0\t3",
                                 "d\t0\t 0\t3"])
def test_token_table_numbers_must_be_ascii_digits(row):
    with pytest.raises(ParseError, match="ASCII digits") as err:
        parse_token_table(f"d\t1\t4\t5\n{row}\n")
    assert err.value.line == 2


def test_token_table_lists_each_token_once():
    table = "d\t0\t0\t2\nd\t1\t3\t5\nd\t0\t5\t7\n"
    # the column reader words a fault of the table before one of the column file
    faulty_columns = "#begin document d\nd\t0\tab\t(x)\nd\t1\tcd\t-\n#end document\n"
    for read in (parse_token_table, lambda table: read_coref_columns(faulty_columns, table)):
        with pytest.raises(ParseError) as err:
            read(table)
        assert (str(err.value), err.value.line) == (
            "line 3: token table lists token 0 of 'd' twice", 3)


def test_token_table_rows_in_any_order_read_alike():
    rng = random.Random(80)
    for _ in range(20):
        columns, table = write_coref_columns(random_corpus(rng))
        rows = table.splitlines(keepends=True)
        rng.shuffle(rows)
        assert read_coref_columns(columns, "".join(rows)) == read_coref_columns(columns, table)


# A table with two rows of d, edited: a "\r" before the "\n", blank, "#" and
# tab-only lines, odd doc fields, a repeated row, a row swapped with the next,
# a tab made a space, a numeral past the digit limit, a changed, dropped or
# added field.
TABLE_EDITS = ("crlf", "blank", "comment", "doc", "repeat", "swap", "spaced", "long", "field")
BLANK_LINES = ["", " ", "\t\t\t", "\r", " \t\x0b", "\u2028", "\x85\r"]
DOC_FIELDS = ["", " ", "#d", " d", "d ", "\x85", "d\rd", "٣", "d\t"]
FIELD_VALUES = ["", "0", "7", "01", "+1", "٣", " 1", "1 ", "x", "\t"]


def edit_table(rng: random.Random, table: str, edits: list[str]) -> str:
    lines = table.split("\n")
    long_numeral = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
    for edit in edits:
        i = rng.randrange(len(lines))
        fields = lines[i].split("\t")
        if edit == "crlf":
            lines[i] += "\r"
        elif edit == "blank":
            lines.insert(i, rng.choice(BLANK_LINES))
        elif edit == "comment":
            lines[i] = "#" + lines[i]
        elif edit == "doc":
            lines[i] = "\t".join([rng.choice(DOC_FIELDS)] + fields[1:])
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            lines[i:i + 2] = reversed(lines[i:i + 2])
        elif edit == "spaced":
            lines[i] = lines[i].replace("\t", " ", 1)
        elif edit == "long":
            runs = [m.span() for m in re.finditer("[0-9]+", lines[i])]
            if runs:
                start, end = rng.choice(runs)
                lines[i] = lines[i][:start] + long_numeral + lines[i][end:]
        else:
            k = rng.randrange(len(fields) + 1)
            choice = rng.random()
            if choice < 0.4 and k < len(fields):
                fields[k] = rng.choice(FIELD_VALUES)
            elif choice < 0.7 and k < len(fields):
                del fields[k]
            else:
                fields.insert(k, rng.choice(FIELD_VALUES))
            lines[i] = "\t".join(fields)
    return "\n".join(lines)


def whole_table_spans(table, doc_id: str, n: int, spans=conll._TokenTable.spans):
    """``_TokenTable.spans`` of a table read whole first: the per-document
    check never runs."""
    table.offsets()
    return spans(table, doc_id, n)


def column_file_outcome(directory: Path, columns: str, table: str, *, fall_back: bool = False):
    """The documents of ``columns`` beside its token ``table``, both written to
    ``directory`` as stored and read through ``conll._read_documents``, or the
    ParseError text and line. With ``fall_back``, the table is read whole into
    the dict of ``parse_token_table`` at the first document, before its rows
    are checked."""
    path = directory / "c.conll"
    path.write_bytes(columns.encode("utf-8"))
    Path(f"{path}.tokens").write_bytes(table.encode("utf-8"))
    whole = mock.patch.object(conll._TokenTable, "spans", whole_table_spans)
    try:
        with whole if fall_back else contextlib.nullcontext():
            return list(conll._read_documents(path))
    except ParseError as exc:
        return str(exc), exc.line


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       edits=st.lists(st.sampled_from(TABLE_EDITS), max_size=4))
def test_token_table_fast_path_agrees_with_its_line_loop(rng, edits):
    # the table read in step with the column file, and read whole into the
    # dict of parse_token_table: the same documents, or the same fault
    columns, table = write_coref_columns(random_corpus(rng, n_docs=rng.randint(1, 3)))
    if rng.random() < 0.5:
        table = table.replace("\n", "\r\n")
    table = edit_table(rng, table, edits)
    with tempfile.TemporaryDirectory() as directory:
        expected = column_file_outcome(Path(directory), columns, table, fall_back=True)
        # the writer's table, unedited, is read in step to its end, never whole
        whole = mock.patch.object(conll, "parse_token_table", side_effect=AssertionError("whole"))
        with whole if not edits else contextlib.nullcontext():
            assert column_file_outcome(Path(directory), columns, table) == expected


def _read_peak(directory: Path, n_docs: int) -> int:
    """The peak of the bytes allocated while ``conll._read_documents`` reads a
    column file and table of ``n_docs`` generated documents, one at a time."""
    path = directory / f"{n_docs}.conll"
    columns, table = write_coref_columns(random_corpus(random.Random(44), n_docs=n_docs))
    path.write_text(columns, "utf-8")
    Path(f"{path}.tokens").write_text(table, "utf-8")
    del columns, table
    tracemalloc.start()
    try:
        for doc in conll._read_documents(path):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_column_file_and_its_table_are_read_in_bounded_memory(tmp_path, monkeypatch):
    # 250 documents are two blocks; 2,000 are 16, read into the same memory
    # but for the doc ids kept to refuse a repeated one
    small, large = _read_peak(tmp_path, 250), _read_peak(tmp_path, 2000)
    assert large < 2 * small, (small, large)
    # closed before the reader ends, it closes the column file and its table
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(jsonl, "open", recording_open, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        documents = conll._read_documents(tmp_path / "2000.conll")
        assert next(documents).doc_id.endswith("/d0")
        documents.close()
    assert sorted(Path(f.name).name for f in opened) == ["2000.conll", "2000.conll.tokens"]
    assert all(f.closed for f in opened)


def test_a_column_file_and_its_table_are_cut_in_bounded_memory(tmp_path, monkeypatch):
    # the cut scan reads each file in chunks, so its peak is a few chunks, whatever the
    # size of the files: 250 documents are one range, 4,000 (2 MB of columns) two
    monkeypatch.setattr(conll, "_SCAN", 1 << 16)
    for n_docs, ranges in ((250, 1), (4000, 2)):
        path = tmp_path / f"{n_docs}.conll"
        columns, table = write_coref_columns(random_corpus(random.Random(44), n_docs=n_docs))
        path.write_text(columns, "utf-8")
        Path(f"{path}.tokens").write_text(table, "utf-8")
        del columns, table
        tracemalloc.start()
        try:
            starts = parallel._ranges(path, "conll", 2)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(starts) + 1 == ranges
        assert peak < 4 * conll._SCAN, (n_docs, peak)


@pytest.mark.parametrize("table", [
    "d\t0\t0\t2\nd\t1\t3\t5\nd\t9\t7\t9\nzz\t0\t0\t2\n",
], ids=["tsv"])
def test_token_table_rows_no_token_uses_are_rejected(table):
    columns = "#begin document d\nd\t0\tab\t(0)\nd\t1\tcd\t-\n#end document\n"
    with pytest.raises(ParseError) as err:
        read_coref_columns(columns, table)
    assert (str(err.value), err.value.line) == (
        "line 4: token table row ('d', 9) matches no token", 4)


def test_an_unused_row_is_found_after_the_table_falls_back_to_its_dict():
    # a's row is read in step; d's rows are out of the writer's order, so the
    # table is read whole, and the row of zz is the first that no token uses
    columns = ("#begin document a\na\t0\tx\t-\n#end document\n"
               "#begin document d\nd\t0\tab\t(0)\nd\t1\tcd\t-\n#end document\n")
    table = "a\t0\t0\t1\nd\t1\t3\t5\nzz\t0\t0\t2\nd\t9\t7\t9\nd\t0\t0\t2\n"
    with pytest.raises(ParseError) as err:
        read_coref_columns(columns, table)
    assert (str(err.value), err.value.line) == (
        "line 7: token table row ('zz', 0) matches no token", 7)


def test_token_table_rows_beside_an_empty_column_file_are_rejected_at_line_1():
    with pytest.raises(ParseError) as err:
        read_coref_columns("", "d\t0\t0\t2\n")
    assert (str(err.value), err.value.line) == (
        "line 1: token table row ('d', 0) matches no token", 1)


# Line 3 of a document d with tokens A (0) and C (-) around it: the token-line
# test (4 columns, inside a document, not "#"-led) must leave every line but a
# token line to the sentinel, comment and column-count checks. The documents
# read as (doc_id, text, mention spans), or the error text and line.
@pytest.mark.parametrize("line, expected", [
    ("#begin document a b", ("line 3: nested document begin", 3)),
    (" #begin document a b", ("line 3: malformed coreference entry 'b'", 3)),
    ("  #end document", ("line 4: token line outside a document: 'd\\t2\\tC\\t-'", 4)),
    ("\t#end document", ("line 4: token line outside a document: 'd\\t2\\tC\\t-'", 4)),
    ("#end document x y", [("d", "A C", [(0, 1)])]),
    ("#d\t1\tB\t(1)", [("d", "A C", [(0, 1)])]),
    ("  d 1 B (1)", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("B (1)", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("d\tB\t(1)", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("d\t1\t1\tB\t(1)", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("d\t1\t1\tB\tNN\t*\t-\t-\t-\t-\t*\t(1)", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("B", ("line 3: expected token and coreference columns, got 'B'", 3)),
    ("", [("d", "A C", [(0, 1)])]),
    (" \t", [("d", "A C", [(0, 1)])]),
    ("# a comment", [("d", "A C", [(0, 1)])]),
    ("d\t1\tB\t(1)\r", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("d\t1\tB\t(1)\x85", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("d\t1\tB\t(1)\t", [("d", "A B C", [(0, 1), (2, 3)])]),
    ("d\t1\tB B\t(1)", [("d", "A B C", [(0, 1), (2, 3)])]),
], ids=["begin", "spaced-begin", "spaced-end", "tabbed-end", "end-4-columns", "comment",
        "spaced-4-columns", "2-columns", "3-columns", "5-columns", "12-columns", "1-column",
        "sentence-break", "blank", "hash-comment", "cr", "nel-ended", "tab-ended", "spaced-token"])
def test_lines_beside_token_lines_read_as_pinned(line, expected):
    text = f"#begin document d\nd\t0\tA\t(0)\n{line}\nd\t2\tC\t-\n#end document\n"
    try:
        corpus = read_coref_columns(text)
    except ParseError as exc:
        assert (str(exc), exc.line) == expected
    else:
        assert [(d.doc_id, d.text, sorted((m.start, m.end) for m in d.mentions))
                for d in corpus] == expected


@pytest.mark.parametrize("table", [
    "d\t0\t0\t2\nd\t1\t1\t3\n",
], ids=["tsv"])
def test_overlapping_token_spans_are_rejected(table):
    # "cd" at [1,3) starts inside "ab" at [0,2)
    columns = "#begin document d\nd\t0\tab\t(0)\nd\t1\tcd\t-\n#end document\n"
    with pytest.raises(ParseError) as err:
        read_coref_columns(columns, table)
    assert (str(err.value), err.value.line) == (
        "line 4: token table span [1,3) of token 1 'cd' of 'd' starts before the previous "
        "token ends at 2", 4)


def test_swapped_token_table_spans_are_rejected_at_the_end_line():
    # the spans of d's two tokens swapped: each fits, but they do not increase
    columns = ("#begin document d\nd\t0\tab\t(0)\nd\t1\tcd\t-\n#end document\n"
               "#begin document e\ne\t0\tx\t-\n#end document\n")
    with pytest.raises(ParseError) as err:
        read_coref_columns(columns, "d\t0\t3\t5\nd\t1\t0\t2\ne\t0\t0\t1\n")
    assert (str(err.value), err.value.line) == (
        "line 4: token table span [0,2) of token 1 'cd' of 'd' starts before the previous "
        "token ends at 5", 4)


@pytest.mark.parametrize("coref", ["(٣)", "(٣", "٣)"])
def test_chain_numbers_must_be_ascii_digits(coref):
    # A close needs an open chain to be read at all, so open one with ASCII digits.
    opened = "(3" if coref == "٣)" else "-"
    body = f"d\t0\tab\t{opened}\nd\t1\tcd\t{coref}\n"
    with pytest.raises(ParseError, match="malformed coreference entry") as err:
        doc_from_columns(body)
    assert err.value.line == 3


def test_writer_splits_tokens_at_mention_boundaries():
    text = "ab"
    m1 = Mention("d", 0, 1, ConceptType.DATA, "a")
    m2 = Mention("d", 1, 2, ConceptType.DATA, "b")
    doc = Document("d", "CS", text, (m1, m2))
    columns, table = write_coref_columns(Corpus((doc,)))
    assert len(parse_token_table(table)) == 2


def test_writer_rejects_duplicate_spans():
    text = "abc"
    m1 = Mention("d", 0, 3, ConceptType.DATA, "abc")
    m2 = Mention("d", 0, 3, ConceptType.METHOD, "abc")
    doc = Document("d", "CS", text, (m1, m2))
    with pytest.raises(ValueError, match="sharing span"):
        write_coref_columns(Corpus((doc,)))


def test_writer_rejects_whitespace_doc_id():
    doc = Document("has space", "CS", "")
    with pytest.raises(ValueError, match="whitespace"):
        write_coref_columns(Corpus((doc,)))


@pytest.mark.parametrize("doc_id", ["#g", "#", "#begin"])
def test_writer_rejects_hash_led_doc_id(doc_id):
    doc = Document(doc_id, "CS", "ab", (Mention(doc_id, 0, 2, ConceptType.DATA, "ab"),))
    with pytest.raises(ValueError, match=f"doc_id {doc_id!r} starts with '#'"):
        write_coref_columns(Corpus((Document("h", "CS", "x"), doc)))


def test_writer_rejects_an_empty_doc_id():
    # its begin line would read "#begin document ", which the reader refuses
    doc = Document("", "CS", "ab", (Mention("", 0, 2, ConceptType.DATA, "ab"),))
    with pytest.raises(ValueError, match="doc_id '' is empty"):
        write_coref_columns(Corpus((Document("h", "CS", "x"), doc)))


# --- round trips -------------------------------------------------------------------

def test_write_read_identity_with_token_table():
    corpus = Corpus((mk_doc(),))
    columns, table = write_coref_columns(corpus)
    corpus2 = read_coref_columns(columns, table)
    doc, doc2 = corpus.documents[0], corpus2.documents[0]
    assert doc2.text == doc.text
    assert span_partition(doc2) == span_partition(doc)
    # second write is byte-identical
    columns2, table2 = write_coref_columns(corpus2)
    assert columns2 == columns
    assert table2 == table


def test_read_without_table_uses_single_spaces():
    corpus = read_coref_columns("#begin document d\nd\t0\tAA\t(0)\nd\t1\tB\t-\n#end document\n")
    doc = corpus.documents[0]
    assert doc.text == "AA B"
    assert doc.mentions[0].surface == "AA"


def test_roundtrip_property_random_corpora():
    rng = random.Random(77)
    for _ in range(25):
        corpus = random_corpus(rng)
        columns, table = write_coref_columns(corpus)
        corpus2 = read_coref_columns(columns, table)
        assert [d.doc_id for d in corpus2] == [d.doc_id for d in corpus]
        for doc, doc2 in zip(corpus, corpus2):
            assert span_partition(doc2) == span_partition(doc)
        columns2, table2 = write_coref_columns(corpus2)
        assert (columns2, table2) == (columns, table)


def test_bracket_balance_of_written_files():
    rng = random.Random(78)
    for _ in range(10):
        columns, _ = write_coref_columns(random_corpus(rng))
        for chains in _reference.parse_conll_chains(columns).values():
            pass  # parse_conll_chains asserts balance internally


def test_written_files_match_independent_bracket_parser():
    # chains read back by our parser == chains an independent bracket parser sees
    rng = random.Random(79)
    for _ in range(15):
        corpus = random_corpus(rng)
        columns, table = write_coref_columns(corpus)
        independent = _reference.parse_conll_chains(columns)
        ours = read_coref_columns(columns, table)
        offsets = parse_token_table(table)
        for doc in ours:
            tok_at_start = {}
            tok_at_end = {}
            for (d, i), (s, e) in offsets.items():
                if d == doc.doc_id:
                    tok_at_start[s] = i
                    tok_at_end[e] = i
            chains_ours = {
                frozenset((tok_at_start[m.start], tok_at_end[m.end]) for m in c.mentions)
                for c in doc.clusters
            }
            chains_ref = {frozenset(spans) for spans in independent[doc.doc_id]}
            assert chains_ours == chains_ref


def test_reference_oracle_imports_nothing_from_the_package():
    tree = ast.parse(Path(_reference.__file__).read_text("utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "corefkg"], imported


def test_full_conll2012_style_line_is_accepted():
    doc_id = "bc/cctv/00/cctv_0000"
    rows = [("Comparing", "(0)"), ("the", "(1"), ("two", "-"), ("models", "1)"), ("", ""),
            ("It", "(0)")]  # a sentence break before "It"
    lines = [f"{doc_id}\t0\t{i}\t{word}\tNN\t*\t-\t-\t-\t-\t*\t{coref}" if word else ""
             for i, (word, coref) in enumerate(rows)]
    # the spans of a table, as a tokenized file pairs with one
    table = "".join(f"{doc_id}\t{i}\t{s}\t{e}\n"
                    for i, (s, e) in enumerate([(0, 9), (10, 13), (14, 17), (18, 24), (26, 28)]))
    for newline in ("\n", "\r\n"):
        text = newline.join([f"#begin document {doc_id}", *lines, "#end document", ""])
        doc = read_coref_columns(text).documents[0]
        assert doc.text == "Comparing the two models It"
        assert [sorted(m.surface for m in c.mentions) for c in doc.clusters] == [
            ["Comparing", "It"], ["the two models"]]
        assert read_coref_columns(text, table).documents[0].text == "Comparing the two models  It"


@pytest.mark.parametrize("doc_id, reason", [("a\\b", "contains a backslash"),
                                            ("/a", "is absolute"), ("x/..", "has a '.' or '..' segment")])
def test_a_doc_id_no_writer_can_read_back_is_a_parse_error(doc_id, reason):
    with pytest.raises(ParseError, match=re.escape(f"doc_id {doc_id!r} {reason}")) as err:
        read_coref_columns(f"#begin document d\nd\t0\tA\t-\n#end document\n"
                           f"#begin document {doc_id}\n{doc_id}\t0\tA\t-\n#end document\n")
    assert err.value.line is not None
