import random

import pytest

from corefkg.baseline import PRONOUNS, resolve_corpus
from corefkg.kgpop import CollapseStrategy, DomainScope, populate
from corefkg.model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
)
from corefkg.normalize import (
    AcronymMap,
    build_acronym_map,
    cluster_label,
    load_lemma_exceptions,
    normalize_mention,
    set_default_lemma_exceptions,
    singularize,
)

from corpusgen import random_corpus


# --- acronym extraction -------------------------------------------------------

def test_acronym_simple_definition():
    m = build_acronym_map("We train a support vector machine (SVM) on this data.")
    assert m.get("SVM") == "support vector machine"


def test_acronym_no_parentheses():
    assert len(build_acronym_map("no definitions here")) == 0


def test_acronym_candidate_rejected():
    # inner text is too long to be a short form
    assert len(build_acronym_map("results are shown (see Figure 1).")) == 0


def test_acronym_year_rejected():
    assert len(build_acronym_map("as proposed earlier (2003).")) == 0


def test_acronym_no_matching_long_form():
    assert len(build_acronym_map("the fox jumped over (SVM) fence")) == 0


def test_acronym_first_definition_wins():
    text = ("the hidden Markov model (HMM) ... "
            "a heavy metal machine (HMM) appears later")
    assert build_acronym_map(text).get("HMM") == "hidden Markov model"


def test_acronym_mixed_case_and_digits():
    m = build_acronym_map("analysed with principal component analysis (PCA) today")
    assert m.get("PCA") == "principal component analysis"


def test_acronym_long_form_containing_short_form_rejected():
    assert "SVM" not in build_acronym_map("the SVM classifier (SVM) is used")


def test_acronym_map_invariants():
    with pytest.raises(ValueError):
        AcronymMap({"": "something"})
    with pytest.raises(ValueError):
        AcronymMap({"x": "x"})


# --- singularization ----------------------------------------------------------

@pytest.mark.parametrize(
    "token,expected",
    [
        ("networks", "network"),
        ("analysis", "analysis"),
        ("analyses", "analysis"),
        ("matrices", "matrix"),
        ("studies", "study"),
        ("boxes", "box"),
        ("approaches", "approach"),
        ("processes", "process"),
        ("process", "process"),
        ("class", "class"),
        ("cases", "case"),
        ("bias", "bias"),
        ("lens", "lens"),
        ("species", "species"),
        ("criteria", "criterion"),
        ("data", "data"),
        ("cells", "cell"),
        ("gas", "gas"),
        ("its", "its"),
        ("caches", "cache"),
        ("sizes", "size"),
        ("leaves", "leaf"),
        ("physics", "physics"),
        ("gases", "gas"),
        ("viruses", "virus"),
        ("lenses", "lens"),
        ("doses", "dose"),
    ],
)
def test_singularize(token, expected):
    assert singularize(token) == expected


def test_singularize_is_idempotent_on_exception_values():
    for value in load_lemma_exceptions().values():
        assert singularize(value) == value


def test_singularize_custom_exceptions():
    assert singularize("oxen", {"oxen": "ox"}) == "ox"


# --- mention normalization ------------------------------------------------------

def test_normalize_full_pipeline():
    assert normalize_mention("The Convolutional Neural Networks") == "convolutional neural network"


def test_normalize_expands_whole_surface():
    m = AcronymMap({"SVM": "support vector machine"})
    assert normalize_mention("SVM", m) == "support vector machine"


def test_normalize_demonstrative():
    assert normalize_mention("these treatments") == "treatment"


def test_normalize_possessive_suffix():
    assert normalize_mention("the network's weights") == "network weight"


def test_normalize_collapses_whitespace():
    assert normalize_mention("  the   deep \n models ") == "deep model"


def test_normalize_token_level_expansion():
    m = AcronymMap({"CNN": "convolutional neural network"})
    assert normalize_mention("the CNN models", m) == "convolutional neural network model"


def test_normalize_idempotent_examples():
    m = AcronymMap({"SVM": "support vector machines"})
    for surface in ("The Networks", "SVM", "these criteria", "a naïve approach", "IT'S"):
        once = normalize_mention(surface, m)
        assert normalize_mention(once, m) == once


def test_label_invariants_random_surfaces():
    rng = random.Random(5)
    words = ["The", "these", "SVM", "Networks", "analyses", "of", "models'", "Data"]
    m = AcronymMap({"SVM": "support vector machine"})
    for _ in range(200):
        surface = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
        label = normalize_mention(surface, m)
        assert label == label.lower()
        if label:
            assert label.split()[0] not in {"a", "an", "the", "this", "that", "these",
                                            "those", "its", "their", "our", "his", "her"}
        assert normalize_mention(label, m) == label


# --- cluster labels -------------------------------------------------------------

def _cluster(surfaces, doc="d"):
    mentions = []
    pos = 0
    for s in surfaces:
        mentions.append(Mention(doc, pos, pos + len(s), ConceptType.MATERIAL, s))
        pos += len(s) + 1
    return CoreferenceCluster(doc, frozenset(mentions))


def test_cluster_label_longest_mention():
    c = _cluster(["CNNs", "convolutional neural networks"])
    assert cluster_label(c) == "convolutional neural network"


def test_cluster_label_singleton():
    assert cluster_label(_cluster(["It"])) == "it"


def test_cluster_label_expansion_changes_longest():
    m = AcronymMap({"SVM": "support vector machine"})
    c = _cluster(["SVM", "it"])
    assert cluster_label(c, m) == "support vector machine"


def test_cluster_label_permutation_invariant():
    surfaces = ["alpha beta", "gamma", "delta epsilon zeta"]
    rng = random.Random(11)
    labels = set()
    for _ in range(10):
        rng.shuffle(surfaces)
        labels.add(cluster_label(_cluster(surfaces)))
    assert len(labels) == 1


def test_cluster_label_tie_breaks_by_offset():
    # two surfaces of equal length: the earlier mention wins
    c = _cluster(["abcd", "wxyz"])
    assert cluster_label(c) == "abcd"


# --- per-call label memo ----------------------------------------------------------
# resolve_corpus and collapse label each distinct expanded surface once per
# call; the references below label every mention afresh.

def _doc(doc_id, domain, text, surfaces):
    """Mentions at the successive occurrences of ``surfaces`` in ``text``."""
    mentions, pos = [], 0
    for surface in surfaces:
        start = text.index(surface, pos)
        mentions.append(Mention(doc_id, start, start + len(surface), ConceptType.METHOD, surface))
        pos = start + len(surface)
    return Document(doc_id, domain, text, tuple(mentions))


# The same short form expands differently per document, so a memo keyed on
# the raw surface instead of the expanded one would mislabel "CNN".
ACRONYM_DOCS = (
    _doc("acr/1", "CS", "convolutional neural networks (CNN) help; the CNN models and CNNs",
         ["convolutional neural networks", "CNN", "CNN models", "CNNs"]),
    _doc("acr/2", "Med", "cable news network (CNN) reports; the CNN said so; CNN",
         ["cable news network", "CNN", "CNN"]),
    _doc("acr/3", "Bio", "the CNN models", ["CNN models"]),
)


def _memo_corpora():
    rng = random.Random(2024)
    return [Corpus(random_corpus(rng).documents + ACRONYM_DOCS) for _ in range(8)]


def _reference_resolve(doc):
    acronyms = build_acronym_map(doc.text)
    groups = {}
    for m in doc.mentions:
        if m.surface.strip().lower() not in PRONOUNS:
            label = normalize_mention(m.surface, acronyms)
            groups.setdefault(label or m, set()).add(m)
    return {frozenset(g) for g in groups.values()}


def _labels_by_cluster(kg):
    return {frozenset(cluster.mentions): concept.label
            for concept in kg.concepts for cluster in concept.clusters}


@pytest.mark.parametrize("corpus", _memo_corpora(), ids=lambda c: f"{len(c)}docs")
def test_memoized_labels_match_fresh_labels(corpus):
    for doc in resolve_corpus(corpus):
        assert {frozenset(c.mentions) for c in doc.clusters} == _reference_resolve(doc)

    acronyms = {doc.doc_id: build_acronym_map(doc.text) for doc in corpus}
    by_mention = _labels_by_cluster(populate(corpus, CollapseStrategy(use_coreference=False)))
    assert by_mention == {
        frozenset([m]): normalize_mention(m.surface, acronyms[m.doc_id])
        for doc in corpus for m in doc.mentions if m.source is MentionSource.CONCEPT_EXTRACTOR
    }
    kg = populate(corpus, CollapseStrategy(DomainScope.IN_DOMAIN))
    for members, label in _labels_by_cluster(kg).items():
        cluster = CoreferenceCluster(next(iter(members)).doc_id, members)
        assert label == cluster_label(cluster, acronyms[cluster.doc_id])


def test_acronym_labels_follow_each_documents_definition():
    kg = populate(Corpus(ACRONYM_DOCS), CollapseStrategy(use_coreference=False))
    assert set(_labels_by_cluster(kg).values()) == {
        "convolutional neural network", "convolutional neural network model",
        "cable news network", "cnn model", "cnn",
    }


def test_swapped_lemma_table_applies_to_the_next_call():
    # Nothing may outlive one call: a process-wide memo would keep "oxen".
    corpus = Corpus((_doc("d", "Agr", "oxen and ox", ["oxen", "ox"]),))
    try:
        assert [c.label for c in populate(corpus, CollapseStrategy()).concepts] == ["ox", "oxen"]
        assert len(resolve_corpus(corpus).documents[0].clusters) == 2
        set_default_lemma_exceptions({"oxen": "ox"})
        assert [c.label for c in populate(corpus, CollapseStrategy()).concepts] == ["ox"]
        assert len(resolve_corpus(corpus).documents[0].clusters) == 1
    finally:
        set_default_lemma_exceptions(None)
