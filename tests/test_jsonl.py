import json
import random

import pytest

from corefkg import jsonl
from corefkg.errors import ParseError
from corefkg.jsonl import document_from_dict, read_jsonl, write_jsonl
from corefkg.model import ConceptType, CoreferenceCluster, Corpus, Document, Mention

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
