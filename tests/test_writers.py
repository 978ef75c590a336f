"""The JSONL writers' byte format.

Every record line of ``write_jsonl``, ``export_kg_jsonl`` and
``write_gold_jsonl`` equals ``json.dumps(record, ensure_ascii=False,
sort_keys=True)`` of the record built here, in the test, from the data
model; header lines equal ``json.dumps(header, sort_keys=True)``.
"""

import json
import random

from hypothesis import given
from hypothesis import strategies as st

from corefkg.goldkg import compile_gold, write_gold_jsonl
from corefkg.jsonl import document_to_dict, write_jsonl
from corefkg.kgpop import CollapseStrategy, DomainScope, export_kg_jsonl, populate
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
)

from corpusgen import random_corpus

#: characters json escapes or that are easy to mis-encode: quote, backslash,
#: the C0 controls, DEL, the line and paragraph separators, NEL, non-BMP
ODD_CHARS = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\x85",
             "\U0001F600", "\U00010348", "é", "ß", "中", "a", " "]
ODD_STRINGS = st.text(st.sampled_from(ODD_CHARS), min_size=1, max_size=6)
STRATEGIES = [CollapseStrategy(),
              CollapseStrategy(DomainScope.IN_DOMAIN, use_coreference=False)]


def _dumps(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def _document_record(doc: Document) -> dict:
    index = {m: i for i, m in enumerate(doc.mentions)}
    record = {
        "doc_id": doc.doc_id,
        "domain": doc.domain,
        "text": doc.text,
        "mentions": [{"start": m.start, "end": m.end, "type": m.concept_type.value,
                      "source": m.source.value} for m in doc.mentions],
        "clusters": sorted(sorted(index[m] for m in c.mentions) for c in doc.clusters),
    }
    if doc.entity_links:
        record["entity_links"] = sorted([index[m], e] for m, e in doc.entity_links.items())
    return record


def _concept_record(concept) -> dict:
    return {
        "record": "concept",
        "concept_id": concept.concept_id,
        "label": concept.label,
        "domain_scope": concept.domain_scope,
        "type": concept.concept_type.value,
        "clusters": [
            {"doc_id": cluster.doc_id,
             "mentions": [{"start": m.start, "end": m.end, "type": m.concept_type.value,
                           "source": m.source.value, "surface": m.surface}
                          for m in sorted(cluster.mentions,
                                          key=lambda m: (m.start, m.end, m.concept_type.value))]}
            for cluster in concept.clusters
        ],
    }


def assert_writers_match_the_oracle(corpus: Corpus) -> None:
    records = [_document_record(doc) for doc in corpus]
    # each line ends in "\n", so splitting leaves one empty string at the end
    assert write_jsonl(corpus).split("\n") == [*map(_dumps, records), ""]
    assert [document_to_dict(doc) for doc in corpus] == records
    for strategy in STRATEGIES:
        kg = populate(corpus, strategy, gold=True)
        header = json.dumps({"record": "kg", "papers": list(kg.papers)}, sort_keys=True)
        expected = [header, *(_dumps(_concept_record(c)) for c in kg.concepts)]
        assert export_kg_jsonl(kg).split("\n") == [*expected, ""]
    gold = compile_gold(corpus)
    header = json.dumps({"record": "gold_kg", "clusters_kept": gold.n_clusters_kept,
                         "singleton_clusters": gold.n_singleton_clusters}, sort_keys=True)
    expected = [header, *(_dumps({"entity": c.entity, "mentions": [
        {"doc_id": d, "start": s, "end": e, "type": t} for d, s, e, t in sorted(c.mentions)
    ]}) for c in gold.concepts)]
    assert write_gold_jsonl(gold).split("\n") == [*expected, ""]


def _linked(corpus: Corpus, rng: random.Random, entities: list[str]) -> Corpus:
    """``corpus`` with about two thirds of its mentions linked to one of ``entities``."""
    return Corpus(tuple(
        Document(doc.doc_id, doc.domain, doc.text, doc.mentions, doc.clusters,
                 entity_links={m: rng.choice(entities) for m in doc.mentions
                               if rng.random() < 0.67} or None)
        for doc in corpus
    ))


def _odd_document(i: int, odd: str) -> Document:
    """A document whose id, domain, text, surfaces and entities all hold ``odd``."""
    doc_id = f"{odd}/{i}"
    tokens = [odd, "alpha", f"{odd}beta"]
    text = " ".join(tokens)
    mentions, start = [], 0
    for token, ctype, source in zip(
        tokens,
        [ConceptType.METHOD, ConceptType.NONE, ConceptType.METHOD],
        [MentionSource.CONCEPT_EXTRACTOR, MentionSource.COREF_ONLY,
         MentionSource.CONCEPT_EXTRACTOR],
    ):
        mentions.append(Mention(doc_id, start, start + len(token), ctype, token, source))
        start += len(token) + 1
    first, second, third = mentions
    return Document(doc_id, odd, text, tuple(mentions),
                    (CoreferenceCluster(doc_id, frozenset([first, third])),),
                    entity_links={first: odd, second: f"E{odd}", third: odd})


@given(st.randoms(use_true_random=False))
def test_generated_corpora_match_the_oracle(rng):
    corpus = random_corpus(rng)
    assert_writers_match_the_oracle(corpus)
    assert_writers_match_the_oracle(_linked(corpus, rng, ["Q1", "Q2", "Müller_(σ)"]))


def test_every_odd_character_matches_the_oracle():
    assert_writers_match_the_oracle(Corpus(tuple(
        _odd_document(i, odd) for i, odd in enumerate(ODD_CHARS)
    )))


@given(st.lists(ODD_STRINGS, min_size=1, max_size=4, unique=True))
def test_odd_strings_match_the_oracle(odds):
    assert_writers_match_the_oracle(Corpus(tuple(
        _odd_document(i, odd) for i, odd in enumerate(odds)
    )))


def test_empty_outputs_match_the_oracle():
    assert_writers_match_the_oracle(Corpus(()))
