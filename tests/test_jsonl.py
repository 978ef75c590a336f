import dataclasses
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg import jsonl
from corefkg.brat import read_brat_dir, write_brat_dir
from corefkg.conll import read_coref_columns, write_coref_columns
from corefkg.errors import ParseError
from corefkg.goldkg import read_gold_jsonl
from corefkg.jsonl import document_from_dict, read_jsonl, write_jsonl
from corefkg.kgpop import read_kg_jsonl
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    validate_corpus,
)

from corpusgen import random_corpus


# U+2028 and U+0085 are written unescaped and must not split the line
@pytest.mark.parametrize("text", ["alpha beta", "alpha\u2028beta", "alpha\x85beta"],
                         ids=["plain", "u2028", "u0085"])
def test_roundtrip_simple_doc(text):
    a = Mention("d", 0, 5, ConceptType.DATA, "alpha")
    b = Mention("d", 6, 10, ConceptType.NONE, "beta")
    doc = Document("d", "CS", text, (a, b),
                   (CoreferenceCluster("d", frozenset([a, b])),),
                   entity_links={a: "Alpha_(letter)"})
    corpus = Corpus((doc,))
    assert read_jsonl(write_jsonl(corpus)) == corpus


def test_roundtrip_property():
    rng = random.Random(21)
    for _ in range(40):
        corpus = random_corpus(rng)
        assert read_jsonl(write_jsonl(corpus)) == corpus


def test_write_is_deterministic_and_canonical():
    rng = random.Random(22)
    corpus = random_corpus(rng)
    once = write_jsonl(corpus)
    assert write_jsonl(read_jsonl(once)) == once


def test_empty_corpus():
    assert write_jsonl(Corpus(())) == ""
    assert read_jsonl("") == Corpus(())


def test_unknown_concept_type_named_in_error():
    line = '{"doc_id":"d","domain":"","text":"ab","mentions":[{"start":0,"end":2,"type":"Widget"}],"clusters":[]}'
    with pytest.raises(ParseError, match="Widget"):
        read_jsonl(line)


def test_mixed_type_mention_rejected():
    line = '{"doc_id":"d","domain":"","text":"ab","mentions":[{"start":0,"end":2,"type":"Mixed"}],"clusters":[]}'
    with pytest.raises(ParseError, match="Mixed"):
        read_jsonl(line)


def test_cluster_index_out_of_range():
    line = '{"doc_id":"d","domain":"","text":"ab","mentions":[{"start":0,"end":2,"type":"Data"}],"clusters":[[0,5]]}'
    with pytest.raises(ParseError, match="out of range"):
        read_jsonl(line)


def test_error_carries_line_number():
    good = '{"doc_id":"d","domain":"","text":"","mentions":[],"clusters":[]}'
    bad = '{"doc_id":"e","domain":"","text":""}'
    with pytest.raises(ParseError) as err:
        read_jsonl(good + "\n" + bad)
    assert err.value.line == 2


def test_invalid_json_reported():
    with pytest.raises(ParseError, match="invalid JSON"):
        read_jsonl("{not json}")


def test_source_defaults_by_type():
    line = ('{"doc_id":"d","domain":"","text":"ab cd",'
            '"mentions":[{"start":0,"end":2,"type":"Data"},{"start":3,"end":5,"type":"None"}],'
            '"clusters":[]}')
    corpus = read_jsonl(line)
    m1, m2 = corpus.documents[0].mentions
    assert m1.source.value == "concept_extractor"
    assert m2.source.value == "coref_only"


def test_entity_link_schema_errors():
    base = ('{"doc_id":"d","domain":"","text":"ab",'
            '"mentions":[{"start":0,"end":2,"type":"Data"}],"clusters":[],'
            '"entity_links":%s}')
    with pytest.raises(ParseError, match="out of range"):
        read_jsonl(base % '[[4,"X"]]')
    with pytest.raises(ParseError, match="non-empty string"):
        read_jsonl(base % '[[0,""]]')
    with pytest.raises(ParseError, match="index, entity"):
        read_jsonl(base % '[["a"]]')


def _doc_line(doc_id="d", text="ab", mentions="[]", clusters="[]", links="[]"):
    return ('{"doc_id":"%s","domain":"","text":"%s","mentions":%s,"clusters":%s,'
            '"entity_links":%s}' % (doc_id, text, mentions, clusters, links))


TWO_MENTIONS = '[{"start":0,"end":1,"type":"Data"},{"start":1,"end":2,"type":"Data"}]'


@pytest.mark.parametrize("line", [
    _doc_line(mentions='[{"start":true,"end":2,"type":"Data"}]'),
    _doc_line(mentions=TWO_MENTIONS, clusters="[[0,true]]"),
    _doc_line(mentions=TWO_MENTIONS, links='[[true,"X"]]'),
], ids=["bool-offset", "bool-cluster-index", "bool-link-index"])
def test_offsets_and_indices_must_be_ints(line):
    with pytest.raises(ParseError) as err:
        read_jsonl(_doc_line(doc_id="ok") + "\n" + line)
    assert err.value.line == 2


def test_cluster_must_not_repeat_an_index():
    line = _doc_line(mentions=TWO_MENTIONS, clusters="[[0,1],[0,0]]")
    with pytest.raises(ParseError, match=r"cluster \[0, 0\] lists a mention twice") as err:
        read_jsonl(_doc_line(doc_id="ok") + "\n" + line)
    assert err.value.line == 2


def test_cluster_must_not_list_one_mention_under_two_indices():
    # two entries that spell the same mention are one mention twice
    same = '[{"start":0,"end":1,"type":"Data"},{"start":0,"end":1,"type":"Data"}]'
    with pytest.raises(ParseError, match=r"cluster \[0, 1\] lists a mention twice") as err:
        read_jsonl(_doc_line(mentions=same, clusters="[[0,1]]"))
    assert err.value.line == 1


@pytest.mark.parametrize("domain", ["Total", "MIX"])
def test_domain_names_of_kg_stats_columns_are_reserved(domain):
    line = json.dumps({"doc_id": "e", "domain": domain, "text": "ab",
                       "mentions": [], "clusters": []})
    with pytest.raises(ParseError, match=f"domain name '{domain}' is reserved") as err:
        read_jsonl(_doc_line() + "\n" + line)
    assert err.value.line == 2


def test_entity_link_must_not_conflict():
    conflicting = _doc_line(mentions=TWO_MENTIONS, links='[[0,"X"],[1,"Z"],[0,"Y"]]')
    with pytest.raises(ParseError, match="conflicting entity 'Y' for mention index 0") as err:
        read_jsonl(_doc_line(doc_id="ok") + "\n" + conflicting)
    assert err.value.line == 2
    # an identical repeated link is accepted, as by goldkg.read_entity_links
    doc = read_jsonl(_doc_line(mentions=TWO_MENTIONS, links='[[0,"X"],[0,"X"]]')).documents[0]
    assert list(doc.entity_links.values()) == ["X"]


def test_invalid_document_reports_its_line():
    bad = _doc_line(doc_id="e", mentions='[{"start":0,"end":9,"type":"Data"}]')
    with pytest.raises(ParseError, match="offset out of range") as err:
        read_jsonl(_doc_line() + "\n\n" + bad + "\n")
    assert err.value.line == 3


def test_duplicate_doc_id_reports_second_line():
    with pytest.raises(ParseError, match="duplicate doc_id 'd'") as err:
        read_jsonl(_doc_line() + "\n" + _doc_line(doc_id="e") + "\n" + _doc_line())
    assert err.value.line == 3


#: doc_ids the readers refuse, with the reason given after the id
REFUSED_DOC_IDS = [
    ("", "is empty"),
    ("#g", "starts with '#'"),
    ("#", "starts with '#'"),
    ("a b", "contains whitespace"),
    ("a\tb", "contains whitespace"),
    ("a\u2028b", "contains whitespace"),
    ("a\x00b", "contains a control character"),
    ("a\x9bb", "contains a control character"),
    ("a\\b", "contains a backslash"),
    ("/a", "is absolute"),
    ("/", "is absolute"),
    ("CS/a/", "has an empty segment"),
    ("a//b", "has an empty segment"),
    (".", "has a '.' or '..' segment"),
    ("..", "has a '.' or '..' segment"),
    ("a/./b", "has a '.' or '..' segment"),
    ("x/..", "has a '.' or '..' segment"),
    ("../Bio/x", "has a '.' or '..' segment"),
]


@pytest.mark.parametrize("doc_id, reason", REFUSED_DOC_IDS)
def test_a_doc_id_no_writer_can_read_back_is_a_parse_error_at_its_line(tmp_path, doc_id, reason):
    line = json.dumps({"doc_id": doc_id, "domain": "", "text": "ab", "mentions": [],
                       "clusters": []})
    text = _doc_line() + "\n" + line + "\n"
    with pytest.raises(ParseError) as err:
        read_jsonl(text)
    assert str(err.value) == f"line 2: doc_id {doc_id!r} {reason}"
    path = tmp_path / "in.jsonl"
    path.write_text(text, "utf-8")
    with pytest.raises(ParseError) as streamed:
        list(jsonl._read_documents(path))
    assert str(streamed.value) == f"{path}: {err.value}"
    # a hand-built corpus meets the same rule in the same words
    corpus = Corpus((Document(doc_id, "", "ab"),))
    assert validate_corpus(corpus) == [f"doc_id {doc_id!r} {reason}"]
    with pytest.raises(ValueError, match=re.escape(f"doc_id {doc_id!r} {reason}")):
        write_coref_columns(corpus)


@pytest.mark.parametrize("doc_id", ["d", "CS/x", "v1.2", ".e", "d.", "a..b", "...", "a#",
                                    "CS/#g", "x/y/z", "Mößbauer", "a-b_c~"])
def test_the_doc_id_rule_admits_ids_every_writer_reads_back(tmp_path, doc_id):
    # the domain a BRAT tree reads back: the first segment of a path, else ''
    head, slash, _ = doc_id.partition("/")
    corpus = Corpus((Document(doc_id, head if slash else "", "ab"),))
    assert validate_corpus(corpus) == []
    assert read_jsonl(write_jsonl(corpus)) == corpus
    assert [doc.doc_id for doc in read_coref_columns(*write_coref_columns(corpus))] == [doc_id]
    write_brat_dir(corpus, tmp_path / "tree")
    assert read_brat_dir(tmp_path / "tree") == corpus


class _Str(str):
    pass


# mention entries for a document with text "ab"
ENTRIES = {
    "complete": {"start": 0, "end": 2, "type": "Data", "source": "concept_extractor"},
    "no-source-typed": {"start": 0, "end": 2, "type": "Method"},
    "no-source-untyped": {"start": 0, "end": 2, "type": "None"},
    "no-start": {"end": 2, "type": "Data", "source": "concept_extractor"},
    "no-end": {"start": 0, "type": "Data", "source": "concept_extractor"},
    "no-type": {"start": 0, "end": 2, "source": "concept_extractor"},
    "bool-start": {"start": False, "end": 2, "type": "Data", "source": "concept_extractor"},
    "bool-end": {"start": 0, "end": True, "type": "Data", "source": "concept_extractor"},
    "float-start": {"start": 0.0, "end": 2, "type": "Data", "source": "concept_extractor"},
    "str-end": {"start": 0, "end": "2", "type": "Data", "source": "concept_extractor"},
    "mixed": {"start": 0, "end": 2, "type": "Mixed", "source": "concept_extractor"},
    "unknown-type": {"start": 0, "end": 2, "type": "Widget", "source": "concept_extractor"},
    "list-type": {"start": 0, "end": 2, "type": [], "source": "concept_extractor"},
    "null-type": {"start": 0, "end": 2, "type": None, "source": "concept_extractor"},
    "str-subclass-type": {"start": 0, "end": 2, "type": _Str("Data"), "source": "coref_only"},
    "unknown-source": {"start": 0, "end": 2, "type": "Data", "source": "oracle"},
    "int-source": {"start": 0, "end": 2, "type": "Data", "source": 1},
    "list-source": {"start": 0, "end": 2, "type": "Data", "source": ["coref_only"]},
}


def _outcome(read, arg):
    try:
        return read(arg)
    except ParseError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_mention_fast_path_is_not_observable(entry, monkeypatch):
    obj = {"doc_id": "d", "domain": "", "text": "ab", "mentions": [entry], "clusters": []}
    text = _doc_line(doc_id="ok") + "\n" + json.dumps(obj)

    def outcomes():
        return _outcome(lambda o: document_from_dict(o, 7), obj), _outcome(read_jsonl, text)

    fast = outcomes()
    monkeypatch.setattr(jsonl, "_MENTION_TYPES", {})  # every entry takes the field checks
    assert fast == outcomes()


def test_complete_mention_entries_skip_the_field_checks(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"field checks ran for {args}")

    for checks in ("_concept_type", "_expect_source"):  # only the field checks call these
        monkeypatch.setattr(jsonl, checks, refuse)
    assert read_jsonl(write_jsonl(random_corpus(random.Random(23))))


READERS = [read_jsonl, read_kg_jsonl, read_gold_jsonl]
READER_IDS = ["corpus", "kg", "gold"]


@pytest.mark.parametrize("read", READERS, ids=READER_IDS)
def test_deeply_nested_json_is_a_parse_error_at_its_line(read):
    deep = '{"doc_id": ' + "[" * 100000 + "]" * 100000 + "}"
    with pytest.raises(ParseError, match="nested too deeply") as err:
        read("\n" + deep + "\n")
    assert err.value.line == 2


@pytest.mark.parametrize("read", READERS, ids=READER_IDS)
@pytest.mark.parametrize("string", [
    "\\ud800", "a\\uDC00b", "\\ude00\\ud83d", "\\ud83d", "\ud800", "\u00e9\\ud800",
], ids=["high", "low", "reversed-pair", "high-at-end", "raw", "non-ascii-line"])
def test_lone_surrogate_is_a_parse_error_at_its_line(read, string):
    with pytest.raises(ParseError, match="lone surrogate") as err:
        read('\n\n{"doc_id": "d", "text": "%s"}\n' % string)
    assert err.value.line == 3


@pytest.mark.parametrize("escaped, decoded", [
    ("\\ud83d\\ude00", "\U0001F600"),
    ("\\\\ud800", "\\ud800"),  # an escaped backslash, then the letters
    ("\\u00e9\u2028\\u0020", "\u00e9\u2028 "),
], ids=["pair", "escaped-backslash", "bmp"])
def test_valid_escapes_still_read(escaped, decoded):
    line = '{"doc_id": "d", "domain": "CS", "text": "%s", "mentions": [], "clusters": []}' % escaped
    assert read_jsonl(line).documents[0].text == decoded


# --- the streamed file reader ------------------------------------------------------

#: lines the streamed reader must fail on exactly as the whole-file reader does
FAULTY_LINES = {
    "bad-json": b'{"doc_id": ',
    "not-utf8": b'{"doc_id": "\xff"}',
    "cut-utf8": "\u00e9".encode("utf-8")[:1],  # a sequence cut by the line end or the file end
    "lone-surrogate": b'{"doc_id": "s", "text": "\\ud800"}',
    "bad-document": b'{"doc_id": "x", "domain": "", "text": "", "mentions": [], "clusters": [[0]]}',
}


def _file_outcome(read, path):
    try:
        return read(path)
    except ParseError as exc:
        return str(exc), exc.line


def _whole_file(path):
    """``read_jsonl`` of the file at ``path``; a fault names the file, as the
    streamed reader names it."""
    try:
        return read_jsonl(jsonl._read_text(path))
    except ParseError as exc:
        raise jsonl._naming(exc, path) from None


def _streamed(path):
    return Corpus(tuple(jsonl._read_documents(path)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       pieces=st.lists(st.sampled_from(["doc", "doc", "doc", "blank", "repeat", *FAULTY_LINES]),
                       max_size=8),
       endings=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=8, max_size=8),
       final_ending=st.booleans(), block=st.sampled_from([1, 3, jsonl._BLOCK]),
       chunk=st.sampled_from([1, 7, 100, jsonl._CHUNK]))
def test_streamed_reader_reads_a_file_as_the_whole_file_reader(tmp_path_factory, seed, pieces,
                                                                endings, final_ending, block,
                                                                chunk):
    rng = random.Random(seed)
    docs = [dataclasses.replace(d, text=d.text + "\u2028\x85\u00e9")  # non-ASCII, no line end
            for d in random_corpus(rng, n_docs=8)]
    lines = write_jsonl(Corpus(tuple(docs))).encode("utf-8").split(b"\n")
    written: list[bytes] = []
    for piece in pieces:
        if piece == "doc":
            written.append(lines.pop(0))
        elif piece == "blank":
            written.append(rng.choice([b"", b" ", b"\t "]))
        elif piece == "repeat":  # an earlier document again: a repeated doc id
            written.append(rng.choice([w for w in written if w.startswith(b'{"clusters"')]
                                      or [lines.pop(0)]))
        else:
            written.append(FAULTY_LINES[piece])
    data = b"".join(w + e for w, e in zip(written, endings))
    if written and not final_ending:
        data = data[:-len(endings[len(written) - 1])]
    path = tmp_path_factory.getbasetemp() / "streamed.jsonl"
    path.write_bytes(data)
    # a chunk of 1 or 7 bytes ends inside most lines
    with mock.patch.object(jsonl, "_BLOCK", block), mock.patch.object(jsonl, "_CHUNK", chunk):
        assert _file_outcome(_streamed, path) == _file_outcome(_whole_file, path)


@pytest.mark.parametrize("first, later, line", [
    (b"{", b"\xff", 3),  # bad JSON before a bad byte: the bad byte, as when decoded whole
    (b"\xfe", b"\xff", 1),
    (b"{", b"{}", 1),
], ids=["json-then-byte", "byte-then-byte", "json-then-json"])
def test_streamed_reader_reports_the_fault_the_whole_file_reader_reports(tmp_path, first, later,
                                                                         line):
    path = tmp_path / "c.jsonl"
    path.write_bytes(first + b"\r\n\n" + later + b"\n")
    outcome = _file_outcome(_streamed, path)
    assert outcome == _file_outcome(_whole_file, path)
    assert outcome[1] == line
