import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg.baseline import PRONOUNS, resolve_corpus
from corefkg.errors import ParseError
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
    _best_long_form,
    _expand_acronyms,
    _Labeler,
    _valid_short_form,
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


#: Every character that str.split() and re's \s treat as whitespace.
UNICODE_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_WS = re.compile(r"\s+")


def _whole_prefix_acronym_map(doc_text):
    """``build_acronym_map`` as it was before its window was bounded: the
    window is cut from a split of the whole text before the parenthesis."""
    expansions = {}
    for match in re.finditer(r"\(([^()]{1,80})\)", doc_text):
        short = match.group(1).strip()
        if not _valid_short_form(short) or short in expansions:
            continue
        before = _WS.split(doc_text[: match.start()].strip())
        window_words = before[-min(len(short) + 5, 2 * len(short)):]
        window = " ".join(w for w in window_words if w)
        if not window:
            continue
        long_form = _best_long_form(short, window)
        if not long_form:
            continue
        long_form = long_form.strip(" ,;:")
        if len(long_form) <= len(short) or short in long_form:
            continue
        expansions[short] = long_form
    return expansions


_SPACES = st.text(st.sampled_from(UNICODE_SPACES), min_size=1, max_size=3)
_WORDS = st.sampled_from(["support", "vector", "machines", "SVM", "(SVM)", "(S V)", "Sv",
                          "neural", "nets", "(NN)", "(", ")", "a", "of", "x,", ";", "(1999)",
                          "S", "V", "M", "N", "y", "y", "y",
                          "support\u2003vector\tmachine (SVM)", "neural\u00a0net (NN)"])
_JOINED = st.lists(st.tuples(_WORDS, _SPACES), max_size=30).map(
    lambda parts: "".join(w + sp for w, sp in parts))
_TEXTS = st.one_of(
    st.text(st.sampled_from("abSVMN()-,;:1 " + UNICODE_SPACES), max_size=60),
    _JOINED,
    # a definition right after a few short words, so that the first letter
    # of the short form often falls on the window's edge
    st.tuples(_JOINED, st.sampled_from(["SVM", "NN", "S V", "MS"])).map(
        lambda parts: f"{parts[0]}({parts[1]}) then"),
)


def test_unicode_spaces_are_the_29_that_split_and_re_agree_on():
    assert len(UNICODE_SPACES) == 29
    assert _WS.fullmatch(UNICODE_SPACES)
    assert UNICODE_SPACES.split() == []


@settings(max_examples=400)
@given(_TEXTS)
def test_bounded_window_matches_whole_prefix_split(text):
    assert build_acronym_map(text).expansions == _whole_prefix_acronym_map(text)


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


def test_a_lemma_table_refuses_a_second_singular_for_a_plural(tmp_path):
    table = tmp_path / "irregular.tsv"
    table.write_text("mice\tmouse\nMice\tmouse\n# same row again\nmice\tmice2\n", "utf-8")
    with pytest.raises(ParseError) as err:
        load_lemma_exceptions(table)
    assert (str(err.value), err.value.line) == (
        f"{table}: line 4: conflicting singular for plural 'mice'", 4)
    table.write_text("mice\tmouse\nMICE\tMouse\n", "utf-8")  # a repeated row is accepted
    assert load_lemma_exceptions(table) == {"mice": "mouse"}


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
# resolve_corpus and collapse label each distinct surface once per call; the
# references below label every mention afresh.

_TOKENS = st.sampled_from(["The", "A", "B", "CNN", "CNNs", "SVM", "models", "network's",
                           "its", "Data", "x", ""])
_SURFACES = st.lists(st.tuples(_SPACES | st.just(" "), _TOKENS), min_size=1, max_size=4).map(
    lambda parts: "".join(sp + tok for sp, tok in parts)
) | st.sampled_from(["A B", " A B ", "A\u2003B", "CNN", "the CNN models"])
_LONG_FORMS = st.sampled_from(["convolutional neural network", "support vector machines",
                               "a  b", "the models", "x", ""])
# Short forms include two-word ones ("A B"), which only a whole surface can hit.
_MAPS = st.lists(
    st.dictionaries(st.sampled_from(["A B", "A", "CNN", "SVM", "models", "x", "The"]),
                    _LONG_FORMS, max_size=3).map(
        lambda d: AcronymMap({k: v for k, v in d.items() if k != v})),
    min_size=1, max_size=3,
)


def _slow_cluster_label(cluster, acronyms):
    """The cluster label with every mention expanded by ``_expand_acronyms``."""
    best = min((-len(e), m.start, m.end, m.surface, e)
               for m in cluster.mentions for e in (_expand_acronyms(m.surface, acronyms),))
    return _Labeler()._normalize(best[-1])


@settings(max_examples=300)
@given(maps=_MAPS, uses=st.lists(st.tuples(_SURFACES, st.integers(0, 2)), min_size=1,
                                 max_size=12))
def test_label_memo_equals_the_expanding_slow_path(maps, uses):
    labeler = _Labeler()  # shared by every surface and map below
    for surface, i in uses:
        acronyms = maps[i % len(maps)]
        assert labeler.mention(surface, acronyms) == \
            _Labeler()._normalize(_expand_acronyms(surface, acronyms))
    for i, acronyms in enumerate(maps):
        cluster = _cluster([surface for surface, _ in uses[i:]] or [uses[0][0]])
        expected = _slow_cluster_label(cluster, acronyms)
        assert labeler.cluster(cluster, acronyms) == _Labeler().cluster(cluster, acronyms) \
            == expected


def _doc(doc_id, domain, text, surfaces):
    """Mentions at the successive occurrences of ``surfaces`` in ``text``."""
    mentions, pos = [], 0
    for surface in surfaces:
        start = text.index(surface, pos)
        mentions.append(Mention(doc_id, start, start + len(surface), ConceptType.METHOD, surface))
        pos = start + len(surface)
    return Document(doc_id, domain, text, tuple(mentions))


# The same short form expands differently per document, so the raw-surface
# memo may serve "CNN" only where the document's map cannot touch it.
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
