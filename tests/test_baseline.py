import random

from corefkg.baseline import resolve, resolve_corpus
from corefkg.metrics import corpus_partition, score
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
)

from corpusgen import random_corpus


def make_doc(surfaces_with_types, text=None, doc_id="d"):
    text = text or " ".join(s for s, _ in surfaces_with_types)
    mentions = []
    pos = 0
    for s, t in surfaces_with_types:
        start = text.index(s, pos)
        mentions.append(Mention(doc_id, start, start + len(s), t, s))
        pos = start + len(s)
    return Document(doc_id, "CS", text, tuple(mentions))


def test_plural_variant_clusters():
    doc = make_doc([("CNN", ConceptType.METHOD), ("CNNs", ConceptType.METHOD)])
    clusters = resolve(doc)
    assert [c.size for c in clusters] == [2]


def test_distinct_labels_stay_singletons():
    doc = make_doc([("CNN", ConceptType.METHOD), ("RNN", ConceptType.METHOD)])
    clusters = resolve(doc)
    assert sorted(c.size for c in clusters) == [1, 1]


def test_acronym_definition_clusters_short_form():
    text = "the support vector machine (SVM) model. later the SVM wins."
    doc = Document(
        "d", "CS", text,
        (
            Mention("d", 4, 26, ConceptType.METHOD, "support vector machine"),
            Mention("d", 51, 54, ConceptType.METHOD, "SVM"),
        ),
    )
    clusters = resolve(doc)
    assert [c.size for c in clusters] == [2]


def test_pronouns_never_clustered():
    doc = make_doc([
        ("it", ConceptType.NONE),
        ("it", ConceptType.NONE),
        ("network", ConceptType.METHOD),
    ], text="it and it for network")
    clusters = resolve(doc)
    assert all(
        m.surface != "it" for c in clusters for m in c.mentions
    )
    assert sum(c.size for c in clusters) == 1


def test_output_is_partition_of_non_pronoun_mentions():
    rng = random.Random(71)
    from corefkg.baseline import PRONOUNS
    for _ in range(20):
        for doc in random_corpus(rng):
            clusters = resolve(doc)
            covered = [m for c in clusters for m in c.mentions]
            assert len(covered) == len(set(covered))
            expected = {m for m in doc.mentions if m.surface.strip().lower() not in PRONOUNS}
            assert set(covered) == expected


def test_deterministic_under_mention_reorder():
    rng = random.Random(72)
    doc = random_corpus(rng, n_docs=1).documents[0]
    shuffled = list(doc.mentions)
    rng.shuffle(shuffled)
    doc2 = Document(doc.doc_id, doc.domain, doc.text, tuple(shuffled), doc.clusters)
    assert set(resolve(doc)) == set(resolve(doc2))


def test_resolve_corpus_replaces_clusters():
    rng = random.Random(73)
    corpus = random_corpus(rng, n_docs=4)
    resolved = resolve_corpus(corpus)
    assert [d.clusters for d in resolved] == [resolve(d) for d in corpus]
    assert [d.mentions for d in resolved] == [d.mentions for d in corpus]


def test_muc_recall_below_one_with_pronominal_coreference():
    text = "the network grows. it adapts."
    net = Mention("d", 4, 11, ConceptType.METHOD, "network")
    it = Mention("d", 19, 21, ConceptType.NONE, "it", MentionSource.COREF_ONLY)
    gold_doc = Document("d", "CS", text, (net, it),
                        (CoreferenceCluster("d", frozenset([net, it])),))
    predicted = Document("d", "CS", text, (net, it), resolve(gold_doc))
    report = score(
        corpus_partition(Corpus((gold_doc,))),
        corpus_partition(Corpus((predicted,))),
    )
    assert report.muc.recall < 1
