import dataclasses
import marshal
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg import goldkg
from corefkg.errors import ParseError, ValidationError
from corefkg.goldkg import (
    EvalResult,
    attach_entity_links,
    compile_gold,
    evaluate_population,
    read_entity_links,
    read_gold_jsonl,
    write_gold_jsonl,
)
from corefkg.kgpop import CollapseStrategy, DomainScope, collapse
from corefkg.metrics import Partition, score
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
)
from corefkg.normalize import build_acronym_map
from corpusgen import random_corpus

CROSS = CollapseStrategy(DomainScope.CROSS_DOMAIN)
IN = CollapseStrategy(DomainScope.IN_DOMAIN)
CROSS_NOCOREF = CollapseStrategy(DomainScope.CROSS_DOMAIN, use_coreference=False)
IN_NOCOREF = CollapseStrategy(DomainScope.IN_DOMAIN, use_coreference=False)


def doc_with_links(doc_id, domain, surfaces, links, cluster_idx=()):
    """surfaces laid out one per 'word'; links maps index -> entity."""
    text = " ".join(surfaces)
    mentions = []
    pos = 0
    for s in surfaces:
        mentions.append(Mention(doc_id, pos, pos + len(s), ConceptType.MATERIAL, s))
        pos += len(s) + 1
    clusters = tuple(
        CoreferenceCluster(doc_id, frozenset(mentions[i] for i in idxs))
        for idxs in cluster_idx
    )
    entity_links = {mentions[i]: e for i, e in links.items()}
    return Document(doc_id, domain, text, tuple(mentions), clusters, entity_links or None)


def test_cluster_with_disagreeing_links_excluded():
    doc = doc_with_links("d", "CS", ["alpha", "beta"], {0: "Q1", 1: "Q2"},
                         cluster_idx=[(0, 1)])
    gold = compile_gold(Corpus((doc,)))
    assert gold.n_clusters_kept == 0
    assert gold.concepts == ()


def test_cluster_with_unlinked_member_excluded():
    doc = doc_with_links("d", "CS", ["alpha", "beta"], {0: "Q1"}, cluster_idx=[(0, 1)])
    gold = compile_gold(Corpus((doc,)))
    assert gold.n_clusters_kept == 0


def test_clusters_sharing_entity_merge_across_documents():
    d1 = doc_with_links("d1", "CS", ["alpha"], {0: "Q1"})
    d2 = doc_with_links("d2", "Med", ["alfa"], {0: "Q1"})
    gold = compile_gold(Corpus((d1, d2)))
    assert gold.n_clusters_kept == 2
    assert gold.n_singleton_clusters == 2
    assert len(gold.concepts) == 1
    assert gold.mix_count({"d1": "CS", "d2": "Med"}) == 1


def test_singletons_counted():
    doc = doc_with_links("d", "CS", ["alpha", "beta", "gamma"],
                         {0: "Q1", 1: "Q1", 2: "Q2"}, cluster_idx=[(0, 1)])
    gold = compile_gold(Corpus((doc,)))
    assert gold.n_clusters_kept == 2
    assert gold.n_singleton_clusters == 1
    assert len(gold.concepts) == 2


def test_gold_partition_is_valid():
    doc = doc_with_links("d", "CS", ["a1", "b2", "c3"], {0: "Q1", 1: "Q1", 2: "Q2"})
    gold = compile_gold(Corpus((doc,)))
    # every mention carries its entity's concept
    by_entity = {c.entity: c.mentions for c in gold.concepts}
    assert len(by_entity["Q1"]) == 2
    assert sum(map(len, by_entity.values())) == 3


def test_gold_jsonl_roundtrip():
    d1 = doc_with_links("d1", "CS", ["alpha", "beta"], {0: "Q1", 1: "Q1"},
                        cluster_idx=[(0, 1)])
    # U+2028 and U+0085 are written unescaped and must not split the line
    d2 = doc_with_links("d2", "Med", ["gamma"], {0: "Q2\u2028line\x85next"})
    gold = compile_gold(Corpus((d1, d2)))
    restored = read_gold_jsonl(write_gold_jsonl(gold))
    assert restored == gold


def test_read_gold_jsonl_errors():
    with pytest.raises(ParseError):
        read_gold_jsonl('{"entity": "Q1"}')
    with pytest.raises(ParseError, match="invalid JSON"):
        read_gold_jsonl("nope")


def test_read_gold_jsonl_rejects_mention_in_two_concepts():
    header = '{"record": "gold_kg", "clusters_kept": 2, "singleton_clusters": 1}'
    mention = '{"doc_id": "d", "start": 0, "end": 3, "type": "Material"}'
    other = '{"doc_id": "d", "start": 5, "end": 9, "type": "Material"}'
    text = (f'{header}\n{{"entity": "A", "mentions": [{mention}]}}\n'
            f'{{"entity": "B", "mentions": [{other}, {mention}]}}\n')
    with pytest.raises(ParseError, match=r"gold concept 'B' shares mention "
                       r"\('d', 0, 3, 'Material'\) with an earlier group") as err:
        read_gold_jsonl(text)
    assert err.value.line == 3


def test_read_gold_jsonl_rejects_a_repeated_entity():
    header = '{"record": "gold_kg", "clusters_kept": 2, "singleton_clusters": 2}'
    text = (f'{header}\n{{"entity": "Q1", "mentions": [{{"doc_id": "d", "start": 0, "end": 3, '
            f'"type": "Data"}}]}}\n{{"entity": "Q1", "mentions": [{{"doc_id": "d", "start": 5, '
            f'"end": 9, "type": "Data"}}]}}\n')
    with pytest.raises(ParseError, match="duplicate gold concept entity 'Q1'") as err:
        read_gold_jsonl(text)
    assert err.value.line == 3


def test_read_gold_jsonl_rejects_a_repeated_header():
    mention = '{"doc_id": "d", "start": 0, "end": 3, "type": "Data"}'
    text = ('{"record": "gold_kg", "clusters_kept": 5, "singleton_clusters": 1}\n'
            f'{{"entity": "Q1", "mentions": [{mention}]}}\n'
            '{"record": "gold_kg", "clusters_kept": 9, "singleton_clusters": 1}\n')
    with pytest.raises(ParseError, match="repeated gold_kg header record") as err:
        read_gold_jsonl(text)
    assert err.value.line == 3


@pytest.mark.parametrize("kept, singleton", [(-4, 7), (3, 4), (2, -1)])
def test_read_gold_jsonl_rejects_header_counts_no_compilation_produces(kept, singleton):
    mention = '{"doc_id": "d", "start": 0, "end": 3, "type": "Data"}'
    text = (f'{{"record": "gold_kg", "clusters_kept": {kept}, "singleton_clusters": {singleton}}}\n'
            f'{{"entity": "Q1", "mentions": [{mention}]}}\n')
    with pytest.raises(ParseError) as err:
        read_gold_jsonl(text)
    assert (str(err.value), err.value.line) == (
        "line 1: gold_kg header needs 0 <= singleton_clusters <= clusters_kept,"
        f" got {singleton} and {kept}", 1)


@pytest.mark.parametrize("mention", [
    '{"doc_id": "d", "start": 1.9, "end": 3, "type": "Data"}',
    '{"doc_id": "d", "end": 3, "type": "Data"}',
    '{"doc_id": "d", "start": true, "end": 3, "type": "Data"}',
    '"d 0 3 Data"',
], ids=["float-offset", "missing-offset", "bool-offset", "not-an-object"])
def test_read_gold_jsonl_mention_fields(mention):
    header = '{"record": "gold_kg", "clusters_kept": 1, "singleton_clusters": 1}'
    with pytest.raises(ParseError) as err:
        read_gold_jsonl(f'{header}\n{{"entity": "Q1", "mentions": [{mention}]}}\n')
    assert err.value.line == 2


@pytest.mark.parametrize("mentions, message", [
    # the type is decoded before the span is checked, as in every JSON reader
    ('{"doc_id": "d", "start": 5, "end": 2, "type": "Bogus"}', "unknown concept type 'Bogus'"),
    ('{"doc_id": "d", "start": 3, "end": 3, "type": "Data"}', r"offset order violated @ d\[3,3\)"),
    ('{"doc_id": "d", "start": -1, "end": 3, "type": "Data"}', r"offset order violated @ d\[-1,3\)"),
    ('{"doc_id": "d", "start": 0, "end": 3, "type": "Bogus"}', "unknown concept type 'Bogus'"),
    ('{"doc_id": "d", "start": 0, "end": 3, "type": "Mixed"}', r"mention typed Mixed @ d\[0,3\)"),
    ('{"doc_id": "d", "start": 0, "end": 3, "type": "Data"}, '
     '{"doc_id": "d", "start": 0, "end": 3, "type": "Data"}', "'Q1' lists a mention twice"),
], ids=["bogus-reversed", "empty-span", "negative-start", "unknown-type", "mixed", "repeat"])
def test_read_gold_jsonl_rejects_impossible_mentions(mentions, message):
    header = '{"record": "gold_kg", "clusters_kept": 1, "singleton_clusters": 0}'
    with pytest.raises(ParseError, match=message) as err:
        read_gold_jsonl(f'{header}\n{{"entity": "Q1", "mentions": [{mentions}]}}\n')
    assert err.value.line == 2


def test_read_gold_jsonl_accepts_coreference_only_mentions():
    header = '{"record": "gold_kg", "clusters_kept": 1, "singleton_clusters": 0}'
    mention = '{"doc_id": "d", "start": 0, "end": 2, "type": "None"}'
    gold = read_gold_jsonl(f'{header}\n{{"entity": "Q1", "mentions": [{mention}]}}\n')
    assert gold.concepts[0].mentions == frozenset({("d", 0, 2, "None")})


def test_entity_links_tsv_roundtrip():
    tsv = (
        "# comment\n"
        "d1\t0\t5\tMaterial\tQ1\n"
        "d1\t6\t10\tMaterial\tQ2\n"
    )
    links = read_entity_links(tsv)
    assert links[("d1", 0, 5, "Material")] == "Q1"
    with pytest.raises(ParseError, match="5 tab-separated"):
        read_entity_links("a\tb\n")
    with pytest.raises(ParseError, match="conflicting"):
        read_entity_links("d\t0\t1\tData\tQ1\nd\t0\t1\tData\tQ2\n")
    with pytest.raises(ParseError, match="byte-order mark") as err:
        read_entity_links("\ufeffd1\t0\t5\tMaterial\tQ1\n")
    assert err.value.line == 1


def test_the_gold_kg_and_links_readers_keep_one_string_per_doc_id_and_entity():
    # a string per key would hold about twice the memory of a 55,485-document links file
    links = read_entity_links("CS/d1\t0\t5\tData\tQ1\nCS/d1\t6\t9\tData\tQ1\n")
    (key_a, entity_a), (key_b, entity_b) = links.items()
    assert key_a[0] is key_b[0] and entity_a is entity_b
    gold = compile_gold(Corpus((doc_with_links("CS/d1", "CS", ["alpha", "beta", "gamma"],
                                               {0: "Q1", 1: "Q2", 2: "Q2"}),)))
    concepts = read_gold_jsonl(write_gold_jsonl(gold)).concepts
    assert len({id(key[0]) for concept in concepts for key in concept.mentions}) == 1


@pytest.mark.parametrize("row", ["d1\t 17 \t38\tMethod\tE", "d1 \t17\t38\tMethod\tE",
                                 "d1\t17\t38\t Method\tE", "d1\t17\t38\tMethod\tE ",
                                 "d1\t17\t38\tMethod\t\u00a0E"])
def test_entity_links_fields_must_not_be_padded(row):
    with pytest.raises(ParseError, match="surrounding whitespace") as err:
        read_entity_links(f"d1\t0\t5\tMethod\tE\n{row}\r\n")
    assert err.value.line == 2
    assert read_entity_links("d1\t17\t38\tMethod\tE\r\n") == {("d1", 17, 38, "Method"): "E"}


@pytest.mark.parametrize("start, end", [("+1_0", "٢٠"), ("+10", "20"), ("10", "٢٠"),
                                        ("1_0", "20"), ("-1", "20")])
def test_entity_links_offsets_must_be_ascii_digits(start, end):
    tsv = f"d1\t0\t5\tMethod\tE\nd1\t{start}\t{end}\tMethod\tE\n"
    with pytest.raises(ParseError, match="ASCII digits") as err:
        read_entity_links(tsv)
    assert err.value.line == 2


def test_attach_entity_links():
    doc = doc_with_links("d", "CS", ["alpha"], {})
    links = {("d", 0, 5, "Material"): "Q7"}
    corpus = attach_entity_links(Corpus((doc,)), links)
    assert corpus.documents[0].entity_links is not None
    with pytest.raises(ValidationError, match="matches no mention"):
        attach_entity_links(Corpus((doc,)), {("d", 0, 5, "Data"): "Q7"})
    # tolerated when explicitly requested
    attach_entity_links(Corpus((doc,)), {("d", 0, 5, "Data"): "Q7"}, skip_unmatched=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), skip=st.booleans())
def test_compile_gold_of_a_one_shot_linked_stream_equals_that_of_attach_entity_links(seed, skip):
    """``corefkg compile-gold --links`` maps the documents as they are read
    (``_gold_records``) and reduces their records (``_gold``), the records
    carried by ``marshal`` as from a worker: the same gold KG, or the same
    unmatched-links error once the last record is read, as the whole linked
    corpus gives."""
    rng = random.Random(seed)
    corpus = random_corpus(rng, n_docs=rng.randint(0, 6))
    links = {m.key: rng.choice(["Q1", "Q2", m.surface])
             for doc in corpus for m in doc.mentions if rng.random() < 0.7}
    links.update({(f"nowhere{i}", 0, 5, "Data"): "Q9" for i in range(rng.choice([0, 0, 1, 4]))})
    records = marshal.loads(marshal.dumps(list(goldkg._gold_records(iter(corpus.documents),
                                                                    links))))
    try:
        expected = compile_gold(attach_entity_links(corpus, links, skip_unmatched=skip))
    except ValidationError as exc:
        assert not skip
        with pytest.raises(ValidationError) as err:
            goldkg._gold(iter(records), links, skip_unmatched=skip)
        assert err.value.violations == exc.violations
        assert err.value.violations[0].startswith("entity link matches no mention: ('nowhere")
    else:
        assert goldkg._gold(iter(records), links, skip_unmatched=skip) == expected


# --- evaluation -----------------------------------------------------------------


def gold_and_corpus():
    # two docs; surfaces chosen so label collapsing merges some concepts
    d1 = doc_with_links(
        "d1", "CS",
        ["networks", "network", "graphs"],
        {0: "Q_net", 1: "Q_net", 2: "Q_graph"},
        cluster_idx=[(0, 1)],
    )
    d2 = doc_with_links(
        "d2", "Med",
        ["network", "cells"],
        {0: "Q_net2", 1: "Q_cell"},
    )
    corpus = Corpus((d1, d2))
    return compile_gold(corpus), corpus


def test_evaluate_gold_against_itself_not_perfect_when_labels_merge():
    gold, corpus = gold_and_corpus()
    result = evaluate_population(gold, corpus, CROSS)
    # cross-domain label collapsing merges d1:"network(s)" with d2:"network",
    # but they are different gold entities, so precision drops
    assert result.report.b3.precision < 1
    assert result.n_concepts == 3


def test_evaluate_in_domain_perfect_here():
    gold, corpus = gold_and_corpus()
    result = evaluate_population(gold, corpus, IN)
    for _, prf in result.report.rows():
        assert (prf.precision, prf.recall, prf.f1) == (1, 1, 1)
    assert result.n_concepts == 4


def test_evaluate_without_coreference_splits_gold_clusters():
    gold, corpus = gold_and_corpus()
    result = evaluate_population(gold, corpus, IN_NOCOREF)
    # "networks"/"network" in d1 still merge by label post-normalization, so
    # this stays perfect; concept count matches the with-coref run
    assert result.n_concepts == 4
    different = doc_with_links(
        "d3", "Agr", ["wheat", "crop"], {0: "Q_w", 1: "Q_w"}, cluster_idx=[(0, 1)]
    )
    corpus2 = Corpus((*corpus.documents, different))
    gold2 = compile_gold(corpus2)
    res2 = evaluate_population(gold2, corpus2, IN_NOCOREF)
    assert res2.report.muc.recall < 1  # the wheat/crop link is unrecoverable


def test_evaluate_restricts_to_gold_universe():
    gold, corpus = gold_and_corpus()
    extra = Mention("d1", 0, 8, ConceptType.PROCESS, "networks")
    # an unlinked mention in the corpus must not influence the score
    d1 = corpus.documents[0]
    augmented = Document(
        d1.doc_id, d1.domain, d1.text,
        d1.mentions + (Mention("d1", 2, 8, ConceptType.PROCESS, d1.text[2:8]),),
        d1.clusters, d1.entity_links,
    )
    result = evaluate_population(gold, Corpus((augmented, corpus.documents[1])), IN)
    assert result.report.conll.f1 == 1


def test_evaluate_detects_universe_mismatch():
    gold, corpus = gold_and_corpus()
    with pytest.raises(ValidationError, match="gold mention universe"):
        evaluate_population(gold, Corpus((corpus.documents[0],)), IN)


def test_evaluate_names_the_first_three_missing_keys_and_their_total():
    d = doc_with_links("d", "CS", ["a1", "b2", "c3", "d4", "e5"], {i: f"Q{i}" for i in range(5)})
    other = doc_with_links("e", "Med", ["z9"], {0: "Q9"})
    gold = compile_gold(Corpus((d, other)))
    # the response lists only b2 of d: a1, c3, d4 and e5 are missing
    partial = Document("d", "CS", d.text, d.mentions[1:2])
    with pytest.raises(ValidationError) as err:
        evaluate_population(gold, Corpus((other, partial)), CROSS)
    assert err.value.violations == [
        "corpus does not cover the gold mention universe: missing ('d', 0, 2, 'Material'), "
        "('d', 6, 8, 'Material'), ('d', 9, 11, 'Material') (4 total)"]


def _clustered(doc, *groups):
    """``doc`` with a cluster of its mentions at the indices of each of ``groups``,
    which may share a mention, as no reader lets them."""
    return dataclasses.replace(doc, clusters=tuple(
        CoreferenceCluster(doc.doc_id, frozenset(doc.mentions[i] for i in group))
        for group in groups))


def test_evaluate_refuses_a_mention_in_two_concepts():
    surfaces = ["x0", "x1", "x2", "x3", "x4", "betaword", "gammaword"]
    d = doc_with_links("d", "CS", surfaces, {i: f"Q{i}" for i in range(7)})
    gold = compile_gold(Corpus((d,)))
    # x0 to x4 are in the concepts labelled betaword and gammaword; the first
    # three of them by repr are named
    with pytest.raises(ValueError) as err:
        evaluate_population(gold, Corpus((_clustered(d, (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 6)),)),
                            IN)
    assert str(err.value) == ("parts are not disjoint: [('d', 0, 2, 'Material'), "
                              "('d', 12, 14, 'Material'), ('d', 3, 5, 'Material')] repeated")


def test_evaluate_visits_concepts_of_empty_labels_in_concept_id_order():
    # "the", "a" and "its" all normalize to the empty label, so each cluster is a concept
    # of its own, keyed by its first mention. By concept id (kgpop._concept_order) the
    # concepts {a} and {its} come before {the, a, its}, which then repeats both; by raw
    # key, {the, a, its} would come first and {a} repeat a alone
    d = doc_with_links("d", "CS", ["the", "a", "its"], {i: f"Q{i}" for i in range(3)})
    gold = compile_gold(Corpus((d,)))
    with pytest.raises(ValueError) as err:
        evaluate_population(gold, Corpus((_clustered(d, (0, 1, 2), (1,), (2,)),)), IN)
    assert str(err.value) == ("parts are not disjoint: [('d', 4, 5, 'Material'), "
                              "('d', 6, 9, 'Material')] repeated")


def test_evaluate_counts_a_mention_held_twice_by_one_concept_once():
    d = doc_with_links("d", "CS", ["ab", "beta", "betas"], {0: "Q1", 1: "Q2", 2: "Q2"})
    gold = compile_gold(Corpus((d,)))
    # ab is in two clusters that both collapse into the concept labelled beta
    result = evaluate_population(gold, Corpus((_clustered(d, (0, 1), (0, 2)),)), IN)
    key = Partition(c.mentions for c in gold.concepts)
    assert result == EvalResult(score(key, Partition([[m.key for m in d.mentions]])), 1)


def test_evaluate_identical_partition_perfect():
    # response reproduces the gold partition exactly (labels are unique and
    # the coref cluster matches the entity grouping), so every score is 1;
    # a linked pair is needed because MUC of all-singletons is 0/0 = 0
    d = doc_with_links("d", "CS", ["aa", "aax", "bb"], {0: "Q1", 1: "Q1", 2: "Q2"},
                       cluster_idx=[(0, 1)])
    corpus = Corpus((d,))
    gold = compile_gold(corpus)
    result = evaluate_population(gold, corpus, CROSS)
    for _, prf in result.report.rows():
        assert (prf.precision, prf.recall, prf.f1) == (1, 1, 1)
    assert result.n_concepts == 2


def _linked(seed: int) -> tuple[Corpus, Corpus]:
    """A ``random_corpus`` whose mentions are linked, some of them, to an entity
    named by their surface, and the same documents with their mentions grouped
    at random in some: their clusters then lie partly outside the gold
    mention universe, which ``compile_gold`` takes from the first, and one
    cluster holds a mention of each of the others, so two may share one."""
    rng = random.Random(seed)
    linked, regrouped = [], []
    for doc in random_corpus(rng, n_docs=rng.randint(1, 8)):
        links = {m: m.surface for m in doc.mentions if rng.random() < 0.6}
        doc = dataclasses.replace(doc, entity_links=links or None)
        linked.append(doc)
        pool = list(doc.mentions)
        rng.shuffle(pool)
        parts = []
        while len(pool) >= 2 and rng.random() < 0.7:
            size = rng.randint(2, min(4, len(pool)))
            parts.append(pool[:size])
            pool = pool[size:]
        if len(parts) >= 2:  # a mention of each in one more cluster too
            parts.append([part[0] for part in parts])
        clusters = tuple(CoreferenceCluster(doc.doc_id, frozenset(part)) for part in parts)
        regrouped.append(dataclasses.replace(doc, clusters=clusters) if rng.random() < 0.5 else doc)
    return Corpus(tuple(linked)), Corpus(tuple(regrouped))


def _collapsed_and_scored(gold, corpus, strategy, drop):
    """``evaluate_population`` from public names: each cluster restricted to
    the gold universe, ``collapse``d, its concepts' mention keys scored."""
    key = Partition(c.mentions for c in gold.concepts)
    universe = key.universe()
    restricted = []
    for doc in corpus:
        for cluster in strategy.clusters(doc):
            members = frozenset(m for m in cluster.mentions if m.key in universe)
            if members:
                restricted.append(CoreferenceCluster(doc.doc_id, members))
    acronyms = {doc.doc_id: build_acronym_map(doc.text) for doc in corpus}
    concepts = collapse(restricted, corpus.domains(), strategy, acronyms)
    response = Partition(frozenset(m.key for c in concept.clusters for m in c.mentions)
                         for concept in concepts)
    report = score(key, response, ceafe_drop_singleton_response_parts=drop)
    return EvalResult(report=report, n_concepts=len(concepts))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       strategy=st.sampled_from([CROSS, IN, CROSS_NOCOREF, IN_NOCOREF]), drop=st.booleans())
def test_evaluate_population_equals_collapse_then_score(seed, strategy, drop):
    """The scores of ``collapse`` then ``score``; a mention that two concepts
    hold is named as ``Partition`` names it over ``collapse``'s concepts taken
    in their order, which pins the order of the concepts."""
    linked, corpus = _linked(seed)
    gold = compile_gold(linked)

    def outcome(evaluate, *args):
        try:
            return evaluate(*args)
        except ValueError as fault:
            return str(fault)

    expected = outcome(_collapsed_and_scored, gold, corpus, strategy, drop)
    for docs in (corpus, iter(corpus.documents)):
        assert outcome(lambda: evaluate_population(
            gold, docs, strategy, ceafe_drop_singleton_response_parts=drop)) == expected
