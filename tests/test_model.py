import copy
import dataclasses
import inspect
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corefkg.brat import read_brat_dir
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
    all_clusters,
    corpus_stats,
    validate,
    validate_corpus,
)

from corpusgen import random_corpus


def mk_doc():
    text = "The CNN performs well. The CNN is fast."
    m1 = Mention("doc1", 4, 7, ConceptType.METHOD, "CNN")
    m2 = Mention("doc1", 27, 30, ConceptType.METHOD, "CNN")
    cluster = CoreferenceCluster("doc1", frozenset([m1, m2]))
    return Document("doc1", "CS", text, (m1, m2), (cluster,))


def test_validate_well_formed():
    assert validate(mk_doc()) == []


def test_validate_offset_order():
    doc = Document("doc1", "CS", "hello", (Mention("doc1", 5, 5, ConceptType.DATA, ""),))
    violations = validate(doc)
    assert violations == ["offset order violated @ doc1[5,5)"]


def test_validate_offset_out_of_range():
    doc = Document("doc1", "CS", "hi", (Mention("doc1", 0, 9, ConceptType.DATA, "hi"),))
    assert any("offset out of range" in v for v in validate(doc))


def test_validate_surface_mismatch():
    doc = Document("doc1", "CS", "hello", (Mention("doc1", 0, 4, ConceptType.DATA, "heXX"),))
    assert any("surface mismatch" in v for v in validate(doc))


def test_validate_overlapping_clusters():
    doc = mk_doc()
    m1, m2 = doc.mentions
    extra = CoreferenceCluster("doc1", frozenset([m1]))
    bad = Document(doc.doc_id, doc.domain, doc.text, doc.mentions, doc.clusters + (extra,))
    violations = validate(bad)
    assert sum("overlapping clusters" in v for v in violations) == 1


def test_validate_mixed_mention_rejected():
    doc = Document("d", "CS", "abc", (Mention("d", 0, 3, ConceptType.MIXED, "abc"),))
    assert any("Mixed" in v for v in validate(doc))


def test_validate_duplicate_key():
    m = Mention("d", 0, 3, ConceptType.DATA, "abc")
    doc = Document("d", "CS", "abc", (m, Mention("d", 0, 3, ConceptType.DATA, "abc")))
    assert any("duplicate mention key" in v for v in validate(doc))


def test_validate_corpus_duplicate_doc_ids():
    doc = Document("d", "CS", "abc")
    assert any("duplicate doc_id" in v for v in validate_corpus(Corpus((doc, doc))))


@pytest.mark.parametrize("domain", ["Total", "MIX"])
def test_validate_corpus_reports_the_domain_names_of_kg_stats_columns(domain):
    corpus = Corpus((Document("a", domain, "abc"), Document("b", "CS", "abc")))
    assert validate_corpus(corpus) == [f"domain name {domain!r} is reserved"]


def test_cluster_must_be_nonempty():
    with pytest.raises(ValueError):
        CoreferenceCluster("d", frozenset())


def test_all_clusters_augments_singletons():
    text = "a b c"
    ms = [Mention("d", i * 2, i * 2 + 1, ConceptType.DATA, text[i * 2]) for i in range(3)]
    annotated = CoreferenceCluster("d", frozenset(ms[:2]))
    doc = Document("d", "CS", text, tuple(ms), (annotated,))
    clusters = all_clusters(doc)
    assert set(clusters) == {annotated, CoreferenceCluster("d", frozenset([ms[2]]))}


def test_all_clusters_empty_doc():
    assert all_clusters(Document("d", "CS", "")) == ()


def test_all_clusters_is_partition():
    rng = random.Random(7)
    for _ in range(25):
        for doc in random_corpus(rng):
            clusters = all_clusters(doc)
            union = [m for c in clusters for m in c.mentions]
            assert len(union) == len(set(union)) == len(doc.mentions)
            assert set(union) == set(doc.mentions)
            assert all(c.mentions for c in clusters)


def test_cluster_concept_type():
    a = Mention("d", 0, 1, ConceptType.MATERIAL, "x")
    b = Mention("d", 2, 3, ConceptType.MATERIAL, "y")
    c = Mention("d", 4, 5, ConceptType.PROCESS, "z")
    p = Mention("d", 6, 7, ConceptType.NONE, "w", MentionSource.COREF_ONLY)
    assert CoreferenceCluster("d", frozenset([a, b])).concept_type() is ConceptType.MATERIAL
    assert CoreferenceCluster("d", frozenset([a, c])).concept_type() is ConceptType.MIXED
    assert CoreferenceCluster("d", frozenset([p])).concept_type() is ConceptType.NONE
    assert CoreferenceCluster("d", frozenset([a, p])).concept_type() is ConceptType.MATERIAL


def build_typed_corpus():
    # doc A (domain X): typed mentions a,b coreferent; c singleton; pronoun p in cluster with a,b
    text = "alpha beta gamma it"
    a = Mention("A", 0, 5, ConceptType.DATA, "alpha")
    b = Mention("A", 6, 10, ConceptType.DATA, "beta")
    c = Mention("A", 11, 16, ConceptType.PROCESS, "gamma")
    p = Mention("A", 17, 19, ConceptType.NONE, "it", MentionSource.COREF_ONLY)
    doc_a = Document("A", "X", text, (a, b, c, p),
                     (CoreferenceCluster("A", frozenset([a, b, p])),))
    # doc B (domain Y): mixed-type cluster, one singleton
    text_b = "delta epsilon zeta"
    d = Mention("B", 0, 5, ConceptType.MATERIAL, "delta")
    e = Mention("B", 6, 13, ConceptType.METHOD, "epsilon")
    f = Mention("B", 14, 18, ConceptType.METHOD, "zeta")
    doc_b = Document("B", "Y", text_b, (d, e, f),
                     (CoreferenceCluster("B", frozenset([d, e])),))
    return Corpus((doc_a, doc_b))


def test_corpus_stats_by_type():
    table = corpus_stats(build_typed_corpus(), "concept_type")
    rows = table.rows
    assert rows["Data"].mentions == 2
    assert rows["Data"].coreferent_mentions == 2
    assert rows["None"].mentions == 0  # coref-only mentions are not concept mentions
    assert rows["None"].coreferent_mentions == 1
    assert rows["Data"].coreference_clusters == 1
    assert rows["Mixed"].coreference_clusters == 1
    assert rows["Process"].singleton_clusters == 1
    assert rows["Method"].singleton_clusters == 1
    assert table.total.mentions == 6
    assert table.total.coreferent_mentions == 5
    assert table.total.overall_clusters == 4


def test_corpus_stats_by_domain():
    table = corpus_stats(build_typed_corpus(), "domain")
    assert table.rows["X"].mentions == 3
    assert table.rows["X"].coreferent_mentions == 3
    assert table.rows["Y"].coreference_clusters == 1
    assert table.total.mentions == 6


def test_corpus_stats_empty():
    table = corpus_stats(Corpus(()), "concept_type")
    assert table.total.mentions == 0
    assert table.total.overall_clusters == 0
    assert all(r.overall_clusters == 0 for r in table.rows.values())


def test_corpus_stats_accounting_property():
    # coreferent mentions + singleton clusters = all mentions (typed + coref-only)
    rng = random.Random(13)
    for _ in range(20):
        corpus = random_corpus(rng)
        n_all = sum(len(d.mentions) for d in corpus)
        for group_by in ("concept_type", "domain"):
            table = corpus_stats(corpus, group_by)
            assert table.total.coreferent_mentions + table.total.singleton_clusters == n_all
            # totals equal the sum over groups
            assert table.total.mentions == sum(r.mentions for r in table.rows.values())
            assert table.total.overall_clusters == sum(
                r.overall_clusters for r in table.rows.values()
            )


TOY_BRAT = Path(__file__).resolve().parents[1] / "demos" / "data" / "toy_brat"


@pytest.mark.parametrize("group_by, tsv", [
    ("concept_type",
     "concept_type\tmentions\tcoreferent_mentions\tcoreference_clusters\tsingleton_clusters"
     "\toverall_clusters\n"
     "Data\t1\t0\t0\t1\t1\n"
     "Material\t5\t2\t1\t3\t4\n"
     "Method\t5\t2\t1\t3\t4\n"
     "Process\t3\t1\t1\t2\t3\n"
     "Mixed\t0\t0\t0\t0\t0\n"
     "None\t0\t2\t0\t0\t0\n"
     "Total\t14\t7\t3\t9\t12\n"),
    ("domain",
     "domain\tmentions\tcoreferent_mentions\tcoreference_clusters\tsingleton_clusters"
     "\toverall_clusters\n"
     "CS\t5\t3\t1\t3\t4\n"
     "Med\t9\t4\t2\t6\t8\n"
     "Total\t14\t7\t3\t9\t12\n"),
])
def test_corpus_stats_toy_corpus_tsv(group_by, tsv):
    assert corpus_stats(read_brat_dir(TOY_BRAT), group_by).to_tsv() == tsv


def test_corpus_stats_unknown_grouping():
    with pytest.raises(ValueError):
        corpus_stats(Corpus(()), "banana")


# --- hash contract ------------------------------------------------------------

TYPES = st.sampled_from(list(ConceptType))
SURFACES = st.sampled_from(["x", "y", "x y"])
SOURCES = st.sampled_from(list(MentionSource))
MENTIONS = st.builds(
    Mention, st.sampled_from(["a", "b"]), st.integers(0, 2), st.integers(0, 2),
    TYPES, SURFACES, SOURCES,
)


@given(a=MENTIONS, b=MENTIONS)
def test_equal_mentions_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


@given(span=MENTIONS, payloads=st.lists(st.tuples(TYPES, SURFACES, SOURCES),
                                        min_size=1, max_size=12, unique=True))
def test_mentions_differing_only_in_payload_stay_apart(span, payloads):
    # same span, so the same hash: only __eq__ can tell them apart
    ms = [Mention(span.doc_id, span.start, span.end, t, s, src) for t, s, src in payloads]
    assert len({hash(m) for m in ms}) == 1
    assert len(set(ms)) == len(ms)
    index = {m: i for i, m in enumerate(ms)}
    assert [index[m] for m in ms] == list(range(len(ms)))
    twins = [Mention(m.doc_id, m.start, m.end, m.concept_type, m.surface, m.source) for m in ms]
    assert [index[m] for m in twins] == list(range(len(ms)))


@pytest.mark.parametrize("enum_type", [ConceptType, MentionSource])
def test_enum_members_work_as_dict_keys(enum_type):
    table = {member: member.value for member in enum_type}
    assert len(table) == len(enum_type)
    for member in enum_type:
        assert table[member] == member.value
        assert table[enum_type(member.value)] == member.value
        assert member in set(enum_type)


@pytest.mark.parametrize("concept_type", list(ConceptType))
def test_a_mention_key_is_its_span_and_type_value(concept_type):
    m = Mention("d", 3, 7, concept_type, "word")
    assert m.key == ("d", 3, 7, concept_type.value)
    assert type(m.key[3]) is str


def test_mentions_and_clusters_are_slotted_and_copy_faithfully():
    m = Mention("d", 0, 2, ConceptType.NONE, "it", MentionSource.COREF_ONLY)
    n = Mention("d", 5, 8, ConceptType.DATA, "set")
    cluster = CoreferenceCluster("d", frozenset([m, n]))
    for obj in (m, n, cluster):
        assert not hasattr(obj, "__dict__")
        copies = [pickle.loads(pickle.dumps(obj, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(obj), copy.deepcopy(obj), dataclasses.replace(obj)]
        for twin in copies:
            assert twin == obj and hash(twin) == hash(obj)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.start = 1
    moved = dataclasses.replace(n, concept_type=ConceptType.MATERIAL)
    assert moved != n and hash(moved) == hash(n)


@pytest.mark.parametrize("cls", [Mention, CoreferenceCluster])
def test_hand_written_init_takes_the_dataclass_fields(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    ]


def test_values_built_by_position_and_by_keyword_are_equal():
    m = Mention("d", 0, 2, ConceptType.DATA, "ab")
    assert m.source is MentionSource.CONCEPT_EXTRACTOR
    assert m == Mention(doc_id="d", start=0, end=2, concept_type=ConceptType.DATA, surface="ab",
                        source=MentionSource.CONCEPT_EXTRACTOR)
    cluster = CoreferenceCluster("d", [m])
    assert type(cluster.mentions) is frozenset and cluster.mentions == {m}
    assert cluster == CoreferenceCluster(mentions=frozenset([m]), doc_id="d")
    with pytest.raises(ValueError, match="empty cluster in document 'd'"):
        CoreferenceCluster("d", [])
