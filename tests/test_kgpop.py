import dataclasses
import hashlib
import itertools
import json
import marshal
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg.brat import read_brat_dir
from corefkg.errors import ParseError
from corefkg.goldkg import _evaluated, _restriction, attach_entity_links, compile_gold
from corefkg.kgpop import (
    ALL_DOMAINS,
    CollapseStrategy,
    Concept,
    DomainScope,
    assign_type,
    collapse,
    export_kg_jsonl,
    export_ntriples,
    filter_clusters,
    kg_stats,
    populate,
    read_kg_jsonl,
)
from corefkg.kgpop import _cluster_fragment, _kept, _Population, _records
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
    validate_corpus,
)
from corefkg.normalize import build_acronym_map, cluster_label, normalize_mention

from corpusgen import TYPED, random_corpus

CROSS = CollapseStrategy(DomainScope.CROSS_DOMAIN)
IN = CollapseStrategy(DomainScope.IN_DOMAIN)
CROSS_NOCOREF = CollapseStrategy(DomainScope.CROSS_DOMAIN, use_coreference=False)
IN_NOCOREF = CollapseStrategy(DomainScope.IN_DOMAIN, use_coreference=False)


def typed(doc, start, end, surface, ctype=ConceptType.MATERIAL):
    return Mention(doc, start, end, ctype, surface)


def pronoun(doc, start, end, surface):
    return Mention(doc, start, end, ConceptType.NONE, surface, MentionSource.COREF_ONLY)


# --- filter_clusters -----------------------------------------------------------

def test_filter_drops_all_coref_only_cluster():
    p = pronoun("d", 0, 2, "it")
    doc = Document("d", "CS", "it", (p,), (CoreferenceCluster("d", frozenset([p])),))
    assert filter_clusters(doc) == ()


def test_filter_keeps_mixed_source_cluster():
    text = "CNN it"
    a, b = typed("d", 0, 3, "CNN"), pronoun("d", 4, 6, "it")
    doc = Document("d", "CS", text, (a, b), (CoreferenceCluster("d", frozenset([a, b])),))
    assert len(filter_clusters(doc)) == 1


def test_filter_counts():
    # three clusters, one entirely coreference-only: two remain
    text = "CNN it they them RNN"
    a = typed("d", 0, 3, "CNN")
    b = typed("d", 17, 20, "RNN")
    p1, p2, p3 = pronoun("d", 4, 6, "it"), pronoun("d", 7, 11, "they"), pronoun("d", 12, 16, "them")
    c1 = CoreferenceCluster("d", frozenset([a, p1]))
    c2 = CoreferenceCluster("d", frozenset([p2, p3]))
    c3 = CoreferenceCluster("d", frozenset([b]))
    doc = Document("d", "CS", text, (a, b, p1, p2, p3), (c1, c2, c3))
    assert set(filter_clusters(doc)) == {c1, c3}


# --- collapse --------------------------------------------------------------------

def two_domain_clusters():
    a = typed("cs1", 0, 14, "neural network")
    b = typed("med1", 0, 14, "neural network")
    return (
        [CoreferenceCluster("cs1", frozenset([a])), CoreferenceCluster("med1", frozenset([b]))],
        {"cs1": "CS", "med1": "Med"},
    )


def test_collapse_cross_domain_merges():
    clusters, domains = two_domain_clusters()
    concepts = collapse(clusters, domains, CROSS)
    assert len(concepts) == 1
    assert concepts[0].domain_scope == ALL_DOMAINS
    assert concepts[0].label == "neural network"


def test_collapse_in_domain_keeps_apart():
    clusters, domains = two_domain_clusters()
    concepts = collapse(clusters, domains, IN)
    assert len(concepts) == 2
    assert {c.domain_scope for c in concepts} == {"CS", "Med"}


def test_collapse_is_partition_of_clusters():
    rng = random.Random(31)
    for _ in range(15):
        corpus = random_corpus(rng)
        clusters = [c for doc in corpus for c in doc.clusters]
        for strategy in (CROSS, IN):
            concepts = collapse(clusters, corpus.domains(), strategy)
            flattened = [c for concept in concepts for c in concept.clusters]
            assert sorted(map(id, flattened)) == sorted(map(id, clusters))
            # labels unique per scope
            seen = {(c.domain_scope, c.label) for c in concepts if c.label}
            assert len(seen) == sum(1 for c in concepts if c.label)


def test_collapse_empty_labels_never_merge():
    a = typed("d1", 0, 3, "the")
    b = typed("d2", 0, 3, "the")
    clusters = [CoreferenceCluster("d1", frozenset([a])), CoreferenceCluster("d2", frozenset([b]))]
    concepts = collapse(clusters, {"d1": "CS", "d2": "CS"}, CROSS)
    assert len(concepts) == 2
    assert all(c.label == "" for c in concepts)
    assert len({c.concept_id for c in concepts}) == 2


# --- assign_type -----------------------------------------------------------------

def concept_of(types):
    mentions = []
    pos = 0
    for i, t in enumerate(types):
        source = MentionSource.COREF_ONLY if t is ConceptType.NONE else MentionSource.CONCEPT_EXTRACTOR
        mentions.append(Mention("d", pos, pos + 1, t, "x", source))
        pos += 2
    clusters = (CoreferenceCluster("d", frozenset(mentions)),)
    concepts = collapse(clusters, {"d": "CS"}, CROSS)
    assert len(concepts) == 1
    return concepts[0]


def test_assign_type_majority():
    c = concept_of([ConceptType.MATERIAL, ConceptType.MATERIAL, ConceptType.PROCESS])
    assert assign_type(c) is ConceptType.MATERIAL


def test_assign_type_single():
    assert assign_type(concept_of([ConceptType.DATA])) is ConceptType.DATA


def test_assign_type_tie_break_priority():
    c = concept_of([ConceptType.PROCESS, ConceptType.MATERIAL])
    assert assign_type(c) is ConceptType.PROCESS
    c = concept_of([ConceptType.MATERIAL, ConceptType.DATA])
    assert assign_type(c) is ConceptType.MATERIAL


def test_assign_type_ignores_none_votes():
    c = concept_of([ConceptType.DATA, ConceptType.NONE, ConceptType.NONE])
    assert assign_type(c) is ConceptType.DATA


def test_assign_type_deterministic_under_permutation():
    types = [ConceptType.PROCESS, ConceptType.MATERIAL, ConceptType.DATA, ConceptType.METHOD]
    results = {assign_type(concept_of(list(p))) for p in itertools.permutations(types)}
    assert results == {ConceptType.PROCESS}


# --- populate ----------------------------------------------------------------------

def cnn_doc():
    text = "CNN beats CNN"
    a = typed("d", 0, 3, "CNN", ConceptType.METHOD)
    b = typed("d", 10, 13, "CNN", ConceptType.METHOD)
    return Document("d", "CS", text, (a, b))


def test_populate_groups_unclustered_equal_labels():
    corpus = Corpus((cnn_doc(),))
    for strategy in (CROSS, IN, CROSS_NOCOREF, IN_NOCOREF):
        kg = populate(corpus, strategy)
        # oracle: brute-force grouping of mentions by normalized label
        doc = corpus.documents[0]
        acr = build_acronym_map(doc.text)
        labels = {normalize_mention(m.surface, acr) for m in doc.mentions}
        assert len(kg.concepts) == len(labels) == 1
        assert len(kg.edges) == 2
        assert kg.concepts[0].concept_type is ConceptType.METHOD


def test_populate_empty_corpus():
    kg = populate(Corpus(()), CROSS)
    assert kg.concepts == () and kg.edges == () and kg.papers == ()


def test_populate_drops_pronoun_only_clusters():
    text = "CNN it they"
    a = typed("d", 0, 3, "CNN")
    p1, p2 = pronoun("d", 4, 6, "it"), pronoun("d", 7, 11, "they")
    doc = Document("d", "CS", text, (a, p1, p2),
                   (CoreferenceCluster("d", frozenset([p1, p2])),))
    kg = populate(Corpus((doc,)), CROSS)
    assert len(kg.concepts) == 1  # only the typed singleton
    assert len(kg.edges) == 1


def test_populate_gold_mode_keeps_typed_clusters_regardless_of_source():
    # a typed mention recorded with coref_only source: the gold filter keys
    # on concept types, the predicted filter on sources
    text = "CNN it"
    odd = Mention("d", 0, 3, ConceptType.METHOD, "CNN", MentionSource.COREF_ONLY)
    p = pronoun("d", 4, 6, "it")
    doc = Document("d", "CS", text, (odd, p),
                   (CoreferenceCluster("d", frozenset([odd, p])),))
    corpus = Corpus((doc,))
    assert len(populate(corpus, CROSS).concepts) == 0
    assert len(populate(corpus, CROSS, gold=True).concepts) == 1


def test_populate_acronym_expansion_merges_definition_and_short_form():
    text = "the support vector machine (SVM) model. SVM wins."
    long = typed("d", 4, 26, "support vector machine", ConceptType.METHOD)
    pos = text.index("SVM", 33)
    short = typed("d", pos, pos + 3, "SVM", ConceptType.METHOD)
    doc = Document("d", "CS", text, (long, short))
    kg = populate(Corpus((doc,)), CROSS)
    assert len(kg.concepts) == 1
    assert kg.concepts[0].label == "support vector machine"


def test_populate_counts_match_strategy_ordering():
    rng = random.Random(55)
    for _ in range(10):
        corpus = random_corpus(rng, n_docs=4)
        n = {}
        for name, strategy in {
            "cross": CROSS, "in": IN,
            "cross_nc": CROSS_NOCOREF, "in_nc": IN_NOCOREF,
        }.items():
            n[name] = len(populate(corpus, strategy).concepts)
        assert n["in"] >= n["cross"]
        assert n["in_nc"] >= n["cross_nc"]
        assert n["cross"] <= n["cross_nc"]
        assert n["in"] <= n["in_nc"]


def test_populate_edge_count_equals_kept_mentions():
    rng = random.Random(56)
    for _ in range(10):
        corpus = random_corpus(rng)
        kg = populate(corpus, CROSS)
        kept = sum(c.n_mentions for c in kg.concepts)
        assert len(kg.edges) == kept


def test_populate_deterministic_under_document_permutation():
    rng = random.Random(57)
    corpus = random_corpus(rng, n_docs=5)
    shuffled = list(corpus.documents)
    rng.shuffle(shuffled)
    kg1 = populate(corpus, IN)
    kg2 = populate(Corpus(tuple(shuffled)), IN)
    assert export_ntriples(kg1) == export_ntriples(kg2)
    assert export_kg_jsonl(kg1) == export_kg_jsonl(kg2)
    assert kg1 == kg2


# --- stats ---------------------------------------------------------------------------

def test_kg_stats_single_doc():
    corpus = Corpus((cnn_doc(),))
    kg = populate(corpus, CROSS)
    stats = kg_stats(kg, corpus)
    assert stats.mentions["Total"] == 2
    assert stats.concepts["Total"] == 1
    assert stats.reduction_pct("Total") == 50.0
    assert stats.abstracts["CS"] == 1


def test_kg_stats_empty():
    stats = kg_stats(populate(Corpus(()), CROSS), Corpus(()))
    assert stats.concepts["Total"] == 0
    assert stats.reduction_pct("Total") is None


def test_kg_stats_mix_column():
    clusters_domains = Corpus((
        Document("cs1", "CS", "neural network",
                 (typed("cs1", 0, 14, "neural network"),)),
        Document("med1", "Med", "neural network",
                 (typed("med1", 0, 14, "neural network"),)),
    ))
    kg = populate(clusters_domains, CROSS)
    stats = kg_stats(kg, clusters_domains)
    assert stats.concepts["MIX"] == 1
    assert stats.concepts["CS"] == 0
    assert stats.concepts["Total"] == 1
    tsv = stats.to_tsv()
    assert tsv.splitlines()[0].startswith("stat\t")


def test_kg_stats_per_domain_sums_to_total():
    rng = random.Random(58)
    corpus = random_corpus(rng, n_docs=6)
    kg = populate(corpus, CROSS)
    stats = kg_stats(kg, corpus)
    rows = (stats.abstracts, stats.mentions, stats.coreferent_mentions, stats.concepts,
            *stats.concepts_by_type.values())
    for field in rows:
        assert field["Total"] == sum(field[d] for d in stats.domains) + field.get("MIX", 0)
    assert stats.coreferent_mentions["Total"] > 0
    assert stats.concepts["Total"] == len(kg.concepts)


TOY_BRAT = Path(__file__).resolve().parents[1] / "demos" / "data" / "toy_brat"


@pytest.mark.parametrize("strategy, tsv", [
    (CROSS,
     "stat\tCS\tMed\tMIX\tTotal\n"
     "abstracts\t1\t2\t0\t3\n"
     "mentions\t5\t9\t0\t14\n"
     "coreferent_mentions\t3\t4\t0\t7\n"
     "concepts\t2\t6\t2\t10\n"
     "concepts_data\t1\t0\t0\t1\n"
     "concepts_material\t0\t4\t0\t4\n"
     "concepts_method\t0\t0\t2\t2\n"
     "concepts_process\t1\t2\t0\t3\n"
     "reduction\t60%\t33%\t-\t29%\n"),
    (IN_NOCOREF,
     "stat\tCS\tMed\tMIX\tTotal\n"
     "abstracts\t1\t2\t0\t3\n"
     "mentions\t5\t9\t0\t14\n"
     "coreferent_mentions\t3\t4\t0\t7\n"
     "concepts\t4\t8\t0\t12\n"
     "concepts_data\t1\t0\t0\t1\n"
     "concepts_material\t0\t4\t0\t4\n"
     "concepts_method\t2\t2\t0\t4\n"
     "concepts_process\t1\t2\t0\t3\n"
     "reduction\t20%\t11%\t-\t14%\n"),
], ids=["cross-coref", "in-nocoref"])
def test_kg_stats_toy_corpus_tsv(strategy, tsv):
    corpus = read_brat_dir(TOY_BRAT)
    assert kg_stats(populate(corpus, strategy), corpus).to_tsv() == tsv


# --- export --------------------------------------------------------------------------

def test_export_ntriples_counts():
    kg = populate(Corpus((cnn_doc(),)), CROSS)
    lines = export_ntriples(kg).splitlines()
    mentions_triples = [l for l in lines if "<rel:mentions>" in l]
    meta_triples = [l for l in lines if "<rel:label>" in l or "<rel:type>" in l]
    assert len(mentions_triples) == 2  # repeated edges stay repeated
    assert len(meta_triples) == 2
    assert lines == sorted(lines)
    assert all(l.endswith(" .") for l in lines)


def test_export_ntriples_empty():
    assert export_ntriples(populate(Corpus(()), CROSS)) == ""


def test_export_ntriples_escapes():
    text = 'the "odd" alloy'
    m = Mention("a b", 4, 9, ConceptType.MATERIAL, '"odd"')
    doc = Document("a b", "MS", text, (m,))
    kg = populate(Corpus((doc,)), CROSS)
    out = export_ntriples(kg)
    assert "<paper:a%20b>" in out
    assert '\\"odd\\"' in out


def test_kg_jsonl_roundtrip():
    rng = random.Random(59)
    for _ in range(10):
        corpus = random_corpus(rng)
        kg = populate(corpus, IN)
        assert read_kg_jsonl(export_kg_jsonl(kg)) == kg


def test_kg_jsonl_roundtrip_keeps_line_separators_in_surfaces():
    # U+2028 and U+0085 are exported unescaped and must not split the line
    text = "alpha\u2028beta and gamma\x85delta"
    doc = Document("d", "CS", text, (typed("d", 0, 10, text[0:10]),
                                     typed("d", 15, 26, text[15:26])))
    kg = populate(Corpus((doc,)), IN)
    assert read_kg_jsonl(export_kg_jsonl(kg)) == kg


def _drop(record: dict, path: tuple) -> dict:
    target = record
    for step in path[:-1]:
        target = target[step]
    del target[path[-1]]
    return record


def test_read_kg_jsonl_rejects_a_mention_listed_twice_in_a_cluster():
    doc = Document("d", "CS", "alpha", (typed("d", 0, 5, "alpha"),))
    lines = export_kg_jsonl(populate(Corpus((doc,)), IN)).splitlines()
    record = json.loads(lines[1])
    mentions = record["clusters"][0]["mentions"]
    mentions.append(dict(mentions[0]))
    lines[1] = json.dumps(record)
    with pytest.raises(ParseError, match="cluster of 'd' lists a mention twice") as err:
        read_kg_jsonl("\n".join(lines))
    assert err.value.line == 2


def _two_concept_lines():
    doc = Document("d", "CS", "alpha beta", (typed("d", 0, 5, "alpha"), typed("d", 6, 10, "beta")))
    return [json.loads(line) for line in export_kg_jsonl(populate(Corpus((doc,)), IN)).splitlines()]


def _reversed_offsets(records):
    records[1]["clusters"][0]["mentions"][0].update(start=7, end=2)


def _mixed_type(records):
    records[1]["clusters"][0]["mentions"][0]["type"] = "Mixed"


def _mention_in_two_concepts(records):
    records[2]["clusters"].append(records[1]["clusters"][0])


def _mention_in_two_clusters_of_a_concept(records):
    records[2]["clusters"].append(dict(records[2]["clusters"][0]))


def _one_key_under_two_surfaces(records):
    mentions = records[1]["clusters"][0]["mentions"]
    mentions.append(dict(mentions[0], surface="omega"))


def _repeated_header(records):
    records[0]["papers"] = ["x"]
    records.append({"record": "kg", "papers": ["d", "e"]})


def _repeated_paper(records):
    records[0]["papers"] = ["d", "d"]


def _repeated_concept_id(records):
    records[2]["concept_id"] = records[1]["concept_id"]


def _unknown_document(records):
    records[2]["clusters"][0]["doc_id"] = "zzz"
    records.append(records.pop(0))  # the header may come last


@pytest.mark.parametrize("edit, line, message", [
    (_reversed_offsets, 2, r"offset order violated @ d\[7,2\)"),
    (_mixed_type, 2, r"mention typed Mixed @ d\[0,5\)"),
    (_mention_in_two_concepts, 3,
     r"cluster of 'd' shares mention \('d', 0, 5, 'Material'\) with an earlier group"),
    (_mention_in_two_clusters_of_a_concept, 3,
     r"cluster of 'd' shares mention \('d', 6, 10, 'Material'\) with an earlier group"),
    (_one_key_under_two_surfaces, 2, "cluster of 'd' lists a mention twice"),
    (_repeated_header, 4, "repeated kg header record"),
    (_repeated_paper, 1, "kg header lists paper 'd' twice"),
    (_repeated_concept_id, 3, "duplicate concept_id"),
    (_unknown_document, 2, "cluster document 'zzz' is not among the papers"),
], ids=["reversed-offsets", "mixed", "in-two-concepts", "in-two-clusters", "two-surfaces",
        "repeated-header", "repeated-paper", "repeated-id", "unknown-document"])
def test_read_kg_jsonl_rejects_graphs_no_export_produces(edit, line, message):
    records = _two_concept_lines()
    assert read_kg_jsonl("\n".join(map(json.dumps, records)))
    edit(records)
    with pytest.raises(ParseError, match=message) as err:
        read_kg_jsonl("\n".join(map(json.dumps, records)))
    assert err.value.line == line


@pytest.mark.parametrize("line_index, path", [
    (0, ("papers",)),
    (1, ("clusters",)),
    (1, ("concept_id",)),
    (1, ("label",)),
    (1, ("clusters", 0, "doc_id")),
    (1, ("clusters", 0, "mentions", 0, "start")),
    (1, ("clusters", 0, "mentions", 0, "source")),
])
def test_read_kg_jsonl_missing_field_reports_line(line_index, path):
    doc = Document("d", "CS", "alpha", (typed("d", 0, 5, "alpha"),))
    lines = export_kg_jsonl(populate(Corpus((doc,)), IN)).splitlines()
    lines[line_index] = json.dumps(_drop(json.loads(lines[line_index]), path))
    with pytest.raises(ParseError, match=repr(path[-1])) as err:
        read_kg_jsonl("\n".join(lines))
    assert err.value.line == line_index + 1


def _with_twin(doc: Document, index: int, twin_type: ConceptType) -> Document:
    """``doc`` plus a mention on the span of its ``index``-th unclustered typed
    mention, of ``twin_type``: two clusters of one document with one label and
    one span key. ``doc`` itself when it has no such mention."""
    clustered = {m for c in doc.clusters for m in c.mentions}
    free = [m for m in doc.mentions if m not in clustered and m.concept_type in TYPED]
    if not free:
        return doc
    m = free[index % len(free)]
    taken = {n.concept_type for n in doc.mentions if n.span() == m.span()}
    types = [t for t in TYPED if t not in taken]
    if not types:
        return doc
    twin = Mention(doc.doc_id, m.start, m.end, types[index % len(types)], m.surface)
    return dataclasses.replace(doc, mentions=(*doc.mentions, twin))


def _record_path(corpus, strategy, gold, order=None):
    """Export lines and table of the CLI's record path, the records carried by
    ``marshal`` as from a worker, in ``order`` of the documents."""
    ntriples = _Population(marshal.loads(marshal.dumps(
        list(_records(corpus, strategy, keep=_kept(gold, None))))))
    records = list(_records(corpus, strategy, keep=_kept(gold, _cluster_fragment)))
    kg = _Population(marshal.loads(marshal.dumps([records[i] for i in order or range(len(records))])))
    assert ntriples.stats() == kg.stats()
    return "".join(ntriples.ntriple_lines()), "".join(kg.kg_lines()), kg.stats().to_tsv()


def _library_path(corpus, strategy, gold):
    kg = populate(corpus, strategy, gold=gold)
    return export_ntriples(kg), export_kg_jsonl(kg), kg_stats(kg, corpus).to_tsv()


def _twinned_corpus(seed: int, n_docs: int, twins: int) -> Corpus:
    """A ``random_corpus`` with up to ``twins`` twin mentions (see ``_with_twin``)."""
    rng = random.Random(seed)
    docs = list(random_corpus(rng, n_docs=n_docs))
    for _ in range(twins if docs else 0):
        i = rng.randrange(len(docs))
        docs[i] = _with_twin(docs[i], rng.randrange(12), TYPED[rng.randrange(4)])
    corpus = Corpus(tuple(docs))
    assert validate_corpus(corpus) == []
    return corpus


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(0, 8), twins=st.integers(0, 3),
       strategy=st.sampled_from([CROSS, IN, CROSS_NOCOREF, IN_NOCOREF]), gold=st.booleans(),
       data=st.data())
def test_the_record_path_gives_the_library_bytes(seed, n_docs, twins, strategy, gold, data):
    corpus = _twinned_corpus(seed, n_docs, twins)
    order = data.draw(st.permutations(range(len(corpus))))
    assert _record_path(corpus, strategy, gold, order) == _library_path(corpus, strategy, gold)


def _reduced_bytes(corpus, strategy, gold, gold_kg, order):
    """The export lines and table of ``_Population`` in both formats, and the
    report of ``_evaluated`` against ``gold_kg``, with the documents' records
    carried by ``marshal`` as from a worker and arriving in ``order``."""
    def arriving(keep):
        records = list(_records(corpus, strategy, keep=keep))
        return marshal.loads(marshal.dumps([records[i] for i in order]))

    ntriples = _Population(arriving(_kept(gold, None)))
    kg = _Population(arriving(_kept(gold, _cluster_fragment)))
    key = gold_kg.partition()
    result = _evaluated(key, key.universe(), arriving(_restriction(key.universe())), False)
    return ("".join(ntriples.ntriple_lines()), ntriples.stats().to_tsv(),
            "".join(kg.kg_lines()), kg.stats().to_tsv(), json.dumps(result.to_dict()))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(0, 8), twins=st.integers(0, 3),
       strategy=st.sampled_from([CROSS, IN, CROSS_NOCOREF, IN_NOCOREF]), gold=st.booleans(),
       data=st.data())
def test_records_arriving_shuffled_give_the_same_bytes(seed, n_docs, twins, strategy, gold, data):
    """The reduce groups each document's records as they arrive, so the order
    of the documents moves no byte of an export, a table or an eval-kg report."""
    corpus = _twinned_corpus(seed, n_docs, twins)
    rng = random.Random(seed)
    links = {m.key: rng.choice(["Q1", "Q2", m.surface])
             for doc in corpus for m in doc.mentions if rng.random() < 0.7}
    gold_kg = compile_gold(attach_entity_links(corpus, links))
    order = data.draw(st.permutations(range(len(corpus))))
    assert _reduced_bytes(corpus, strategy, gold, gold_kg, order) == _reduced_bytes(
        corpus, strategy, gold, gold_kg, range(len(corpus)))


#: Bytes the reduce may keep per kept cluster, 25% above the 231-233 bytes of
#: its layout on the corpus below under Python 3.11 (219-236 on 3.10 to 3.13):
#: each cluster one flat member and its type names, each concept its key and
#: id. Keeping the records, as they came in with their key, span and types
#: tuples, took 345-380 bytes.
_KEPT_BYTES_PER_CLUSTER = 290


@pytest.mark.parametrize("strategy, gold", [(CROSS, False), (IN_NOCOREF, True)],
                         ids=["cross", "in-nocoref-gold"])
def test_the_reduce_keeps_a_bounded_number_of_bytes_per_kept_cluster(strategy, gold):
    records = list(_records(random_corpus(random.Random(0), n_docs=2000), strategy,
                            keep=_kept(gold, None)))
    clusters = sum(len(record[4]) for record in records)
    blocks = [marshal.dumps(records[i:i + 128]) for i in range(0, len(records), 128)]
    del records
    tracemalloc.start()
    try:  # the blocks are loaded as a worker's are, one at a time
        population = _Population(itertools.chain.from_iterable(map(marshal.loads, blocks)))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(population.concepts) > 1000 and clusters > 6000
    assert kept / clusters <= _KEPT_BYTES_PER_CLUSTER


def test_the_record_path_keeps_empty_labels_ties_and_equal_span_keys():
    text = "the CNN here, these CNN there and the"
    the, cnn, these, cnn2, the2 = (text.index("the"), 4, text.index("these"),
                                   text.index("CNN t"), text.rindex("the"))
    mentions = (
        Mention("a", the, the + 3, ConceptType.DATA, "the"),          # empty label
        Mention("a", cnn, cnn + 3, ConceptType.DATA, "CNN"),
        Mention("a", cnn, cnn + 3, ConceptType.METHOD, "CNN"),        # same span: a twin
        Mention("a", these, these + 5, ConceptType.METHOD, "these"),  # empty label
        Mention("a", cnn2, cnn2 + 3, ConceptType.PROCESS, "CNN"),
        Mention("a", the2, the2 + 3, ConceptType.NONE, "the", MentionSource.COREF_ONLY),
    )
    doc = Document("a", "CS", text, mentions)
    other = Document("b", "Bio", "CNN", (Mention("b", 0, 3, ConceptType.PROCESS, "CNN"),))
    corpus = Corpus((doc, other))
    assert validate_corpus(corpus) == []
    for strategy in (CROSS, IN, CROSS_NOCOREF, IN_NOCOREF):
        for gold in (False, True):
            assert _record_path(corpus, strategy, gold, [1, 0]) == _library_path(
                corpus, strategy, gold)
    kg = populate(corpus, CROSS)
    cnn_concept, = (c for c in kg.concepts if c.label == "cnn")
    # Data, Method and two Process votes: Process wins; among the equal span
    # keys of "a", the Data cluster comes first, as the document lists it
    assert cnn_concept.concept_type is ConceptType.PROCESS
    assert [(c.doc_id, c.span_key(), assign_type(Concept("x", "", "", ConceptType.NONE, (c,))))
            for c in cnn_concept.clusters] == [
        ("a", (4, 7), ConceptType.DATA), ("a", (4, 7), ConceptType.METHOD),
        ("a", (cnn2, cnn2 + 3), ConceptType.PROCESS), ("b", (0, 3), ConceptType.PROCESS)]
    assert sum(c.label == "" for c in kg.concepts) == 2  # "the" and "these", never merged
    ties = populate(Corpus((doc,)), CROSS)  # Data, Method and Process once each: Process
    assert [c.concept_type for c in ties.concepts if c.label == "cnn"] == [ConceptType.PROCESS]


#: the majority type's tie-break, first the type that wins
_TIE_BREAK = [ConceptType.PROCESS, ConceptType.METHOD, ConceptType.MATERIAL, ConceptType.DATA]


def _oracle(corpus, strategy, gold):
    """The kept clusters, in document order, and the concepts of
    ``populate(corpus, strategy, gold=gold)``, worked out from the
    definitions with ``cluster_label`` and ``build_acronym_map`` alone:
    ``(domain_scope, label, concept_id, type, clusters)``, sorted."""
    kept, groups = [], {}
    for doc in corpus:
        acronyms = build_acronym_map(doc.text)
        if strategy.use_coreference:  # annotated clusters, then the other mentions alone
            covered = {m for c in doc.clusters for m in c.mentions}
            clusters = [*doc.clusters, *(CoreferenceCluster(doc.doc_id, frozenset([m]))
                                         for m in doc.mentions if m not in covered)]
        else:
            clusters = [CoreferenceCluster(doc.doc_id, frozenset([m])) for m in doc.mentions]
        scope = ALL_DOMAINS if strategy.scope is DomainScope.CROSS_DOMAIN else doc.domain
        for position, cluster in enumerate(clusters):
            if gold:
                keep = any(m.concept_type is not ConceptType.NONE for m in cluster.mentions)
            else:
                keep = any(m.source is not MentionSource.COREF_ONLY for m in cluster.mentions)
            if not keep:
                continue
            kept.append(cluster)
            label = cluster_label(cluster, acronyms)
            distinct = ""
            if not label:  # a concept of its own, named by its first mention
                start, end, name = min((m.start, m.end, m.concept_type.value)
                                       for m in cluster.mentions)
                distinct = f"{doc.doc_id}:{start}-{end}:{name}"
            order = (doc.doc_id, min((m.start, m.end) for m in cluster.mentions), position)
            groups.setdefault((scope, label, distinct), []).append((order, cluster))
    concepts = []
    for (scope, label, distinct), members in groups.items():
        concept_id = hashlib.sha256(f"{scope}\x1f{label}\x1f{distinct}".encode()).hexdigest()[:16]
        votes = Counter(m.concept_type for _, c in members for m in c.mentions
                        if m.concept_type is not ConceptType.NONE)
        most = max(votes.values(), default=None)
        concept_type = next((t for t in _TIE_BREAK if votes[t] == most), ConceptType.NONE)
        members.sort(key=lambda member: member[0])
        concepts.append((scope, label, concept_id, concept_type, [c for _, c in members]))
    return kept, sorted(concepts, key=lambda c: c[:3])


def _concept_view(concepts):
    return [(c.domain_scope, c.label, c.concept_id, c.concept_type, list(c.clusters))
            for c in concepts]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(0, 8), twins=st.integers(0, 3),
       strategy=st.sampled_from([CROSS, IN, CROSS_NOCOREF, IN_NOCOREF]), gold=st.booleans())
def test_populate_and_collapse_group_clusters_as_the_oracle(seed, n_docs, twins, strategy, gold):
    corpus = _twinned_corpus(seed, n_docs, twins)
    kept, concepts = _oracle(corpus, strategy, gold)
    assert _concept_view(populate(corpus, strategy, gold=gold).concepts) == concepts
    acronyms = {doc.doc_id: build_acronym_map(doc.text) for doc in corpus}
    collapsed = collapse(kept, corpus.domains(), strategy, acronyms)
    assert _concept_view(collapsed) == concepts
