import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg import metrics
from corefkg.metrics import (
    Partition,
    align_mentions,
    b_cubed,
    ceaf_e,
    muc,
    corpus_partition,
    optimal_assignment,
    score,
    score_corpora,
)
from corefkg.model import ConceptType, CoreferenceCluster, Corpus, Document

import _reference
from clirun import run_python
from corpusgen import TYPED, random_corpus, random_document, random_partition_pair


def part(*groups):
    return Partition([set(g) for g in groups])


# --- Partition type ---------------------------------------------------------

def test_partition_rejects_empty_part():
    with pytest.raises(ValueError):
        Partition([set()])


@pytest.mark.parametrize("parts", [
    [{"a"}, {"a", "b"}],
    [{1, "a"}, {1, "a"}],  # mixed id types must not reach an unkeyed sort
], ids=["strings", "mixed-types"])
def test_partition_rejects_overlap(parts):
    with pytest.raises(ValueError):
        Partition(parts)


def test_partition_equality_ignores_order():
    assert part("ab", "c") == part("c", "ab")


# --- alignment --------------------------------------------------------------

def test_align_adds_singleton_for_missing_response_mention():
    key, resp = align_mentions(part("ab"), part("a"))
    assert resp == part("a", "b")
    assert key == part("ab")


def test_align_identical_universes_unchanged():
    key, resp = align_mentions(part("ab", "c"), part("abc"))
    assert key == part("ab", "c")
    assert resp == part("abc")


def test_align_disjoint_universes():
    key, resp = align_mentions(part("a"), part("b"))
    assert key == part("a", "b")
    assert resp == part("a", "b")


# --- worked examples (values derived by hand, cross-checked in acceptance) --

def test_muc_perfect():
    prf = muc(part("abc"), part("abc"))
    assert (prf.precision, prf.recall, prf.f1) == (1, 1, 1)


def test_muc_split_cluster():
    prf = muc(part("abc"), part("ab", "c"))
    assert prf.recall == Fraction(1, 2)
    assert prf.precision == 1
    assert prf.f1 == Fraction(2, 3)


def test_muc_all_singletons_is_zero_by_convention():
    prf = muc(part("a", "b"), part("a", "b"))
    assert (prf.precision, prf.recall, prf.f1) == (0, 0, 0)


def test_b_cubed_identical():
    prf = b_cubed(part("ab", "c"), part("ab", "c"))
    assert (prf.precision, prf.recall, prf.f1) == (1, 1, 1)


def test_b_cubed_split_cluster():
    prf = b_cubed(part("abc"), part("ab", "c"))
    assert prf.recall == Fraction(5, 9)
    assert prf.precision == 1
    assert prf.f1 == Fraction(5, 7)


def test_b_cubed_merged_singletons():
    prf = b_cubed(part("a", "b"), part("ab"))
    assert prf.recall == 1
    assert prf.precision == Fraction(1, 2)
    assert prf.f1 == Fraction(2, 3)


def test_ceaf_e_identical():
    prf = ceaf_e(part("ab", "c"), part("ab", "c"))
    assert (prf.precision, prf.recall, prf.f1) == (1, 1, 1)


def test_ceaf_e_split_cluster():
    prf = ceaf_e(part("abc"), part("ab", "c"))
    assert prf.recall == Fraction(4, 5)
    assert prf.precision == Fraction(2, 5)
    assert prf.f1 == Fraction(8, 15)


def test_ceaf_e_empty_partitions_are_zero():
    prf = ceaf_e(Partition([]), Partition([]))
    assert (prf.precision, prf.recall, prf.f1) == (0, 0, 0)


def test_ceaf_e_disjoint_universes_after_alignment():
    # Alignment adds singletons, so the augmented sides always overlap; the
    # unreachable-zero case is pinned down here with the exact value instead.
    key, resp = align_mentions(part("ab"), part("cd"))
    prf = ceaf_e(key, resp)
    assert prf.recall == Fraction(4, 9)
    assert prf.precision == Fraction(4, 9)


def test_score_worked_example():
    report = score(part("abc"), part("ab", "c"))
    assert report.muc.f1 == Fraction(2, 3)
    assert report.b3.f1 == Fraction(5, 7)
    assert report.ceaf_e.f1 == Fraction(8, 15)
    assert report.conll.f1 == Fraction(67, 105)
    assert abs(float(report.conll.f1) - 0.638) < 1e-3


def test_score_identical_all_ones():
    report = score(part("ab", "cd"), part("ab", "cd"))
    for _, prf in report.rows():
        assert (prf.precision, prf.recall, prf.f1) == (1, 1, 1)


def test_score_all_singletons_both_sides():
    report = score(part("a", "b"), part("a", "b"))
    assert report.b3.f1 == 1
    assert report.ceaf_e.f1 == 1
    assert report.muc.f1 == 0


def test_score_aligns_internally():
    report = score(part("ab"), part("a"))
    # response becomes {a},{b}: identical to splitting the key cluster
    assert report.muc.recall == 0
    assert report.b3.recall == Fraction(1, 2)


def test_conll_f1_of_means_diagnostic():
    report = score(part("abc"), part("ab", "c"))
    p, r = report.conll.precision, report.conll.recall
    assert report.conll_f1_of_means == 2 * p * r / (p + r)


def test_unaligned_inputs_rejected():
    # a key mention missing from the response, a response mention missing
    # from the key, and equal totals over different mentions
    for key, resp in [(part("ab"), part("a")), (part("a"), part("ab")), (part("ab"), part("ac"))]:
        for metric in (muc, b_cubed, ceaf_e):
            with pytest.raises(ValueError, match="align_mentions"):
                metric(key, resp)


# --- optimal assignment ------------------------------------------------------

def test_assignment_2x2():
    assert optimal_assignment([{0: 0.9, 1: 0.1}, {0: 0.2, 1: 0.8}]) == {0: 0, 1: 1}


def test_assignment_rectangular():
    # columns are whatever keys the rows use; a zero cell is never assigned
    assert optimal_assignment([{7: 0.3, 40: 0.7}, {7: 0}]) == {0: 40}


def test_assignment_all_equal_total():
    result = optimal_assignment([dict.fromkeys(range(3), 0.5) for _ in range(2)])
    assert len(result) == 2
    assert len(set(result.values())) == 2


def test_assignment_rejects_negative():
    with pytest.raises(ValueError):
        optimal_assignment([{0: -1.0}])


def test_assignment_columns_may_be_any_ints():
    # negative columns, and columns at and far above the row count, where the
    # solver's own columns for leaving a row unassigned must not land
    assert optimal_assignment([{-5: 3, 10**6: 1}, {-5: 2, -1: 1}]) == {0: -5, 1: -1}
    assert optimal_assignment([{2: 1, 3: 4}, {3: 5, 4: 3}, {2: 2}]) == {0: 3, 1: 4, 2: 2}
    assert optimal_assignment([{3: 1}, {4: 2}, {5: 3}]) == {0: 3, 1: 4, 2: 5}


def test_assignment_leaves_a_row_with_weight_unassigned():
    # row 0 can take either column, but each is worth more to another row
    assert optimal_assignment([{0: 1, 1: 1}, {0: 5}, {1: 5}]) == {1: 0, 2: 1}


def test_assignment_leaves_its_argument_unchanged():
    rows = [{0: 2, 1: 0, 5: Fraction(3, 2)}, {0: 3, 5: 1}, {}, {1: 0}]
    copy = [dict(row) for row in rows]
    optimal_assignment(rows)
    assert rows == copy


def brute_force_total(weights):
    n, m = len(weights), len(weights[0])
    best = 0
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            best = max(best, sum(weights[i][cols[i]] for i in range(n)))
    else:
        for rows in itertools.permutations(range(n), m):
            best = max(best, sum(weights[rows[j]][j] for j in range(m)))
    return best


def test_assignment_matches_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        weights = [[Fraction(rng.randint(0, 20), rng.randint(1, 9)) for _ in range(m)]
                   for _ in range(n)]
        assignment = optimal_assignment([{j: w for j, w in enumerate(row) if w} for row in weights])
        total = sum(weights[i][j] for i, j in assignment.items())
        assert total == brute_force_total(weights)


@st.composite
def sparse_int_matrices(draw, rows=(1, 6), cols=(1, 8)):
    """Up to 6 x 8 integer matrices by default, in both orientations, about
    half zeros."""
    n, m = draw(st.integers(*rows)), draw(st.integers(*cols))
    if draw(st.booleans()):
        n, m = m, n
    cell = st.one_of(st.just(0), st.integers(1, 40))
    return [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
def test_assignment_is_exactly_optimal(weights):
    # columns keyed by scattered labels, as ceaf_e keys them by response part
    rows = [{10 * j + 3: w for j, w in enumerate(row) if w} for row in weights]
    assignment = optimal_assignment(rows)
    assert len(set(assignment.values())) == len(assignment)
    assert all(j in rows[i] for i, j in assignment.items())
    # small integers sum exactly in the oracle's floats
    assert sum(rows[i][j] for i, j in assignment.items()) == _reference.max_assignment_dp(weights)


@settings(max_examples=100, deadline=None)
@given(sparse_int_matrices(rows=(7, 10), cols=(7, 10)))
def test_assignment_is_exactly_optimal_up_to_10x10(weights):
    # columns from -4 up, so some are negative
    rows = [{j - 4: w for j, w in enumerate(row) if w} for row in weights]
    assignment = optimal_assignment(rows)
    assert len(set(assignment.values())) == len(assignment)
    assert all(j in rows[i] for i, j in assignment.items())
    assert sum(rows[i][j] for i, j in assignment.items()) == _reference.max_assignment_dp(weights)


# --- properties --------------------------------------------------------------

@st.composite
def partition_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    universe = list(range(n))
    def labels():
        return draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    def to_parts(ls):
        groups: dict[int, set] = {}
        for m, l in zip(universe, ls):
            groups.setdefault(l, set()).add(m)
        return Partition(groups.values())
    return to_parts(labels()), to_parts(labels())


@settings(max_examples=120, deadline=None)
@given(partition_pairs())
def test_duality_precision_recall(pair):
    key, resp = pair
    for metric in (muc, b_cubed, ceaf_e):
        forward = metric(key, resp)
        backward = metric(resp, key)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision


@settings(max_examples=80, deadline=None)
@given(partition_pairs())
def test_components_in_unit_interval_and_f1_harmonic(pair):
    key, resp = pair
    report = score(key, resp)
    for _, prf in report.rows():
        assert 0 <= prf.precision <= 1
        assert 0 <= prf.recall <= 1
        assert 0 <= prf.f1 <= 1
    for prf in (report.muc, report.b3, report.ceaf_e):
        s = prf.precision + prf.recall
        expected = 2 * prf.precision * prf.recall / s if s else Fraction(0)
        assert prf.f1 == expected


@settings(max_examples=60, deadline=None)
@given(partition_pairs())
def test_perfect_match_scores_one(pair):
    key, _ = pair
    if all(len(p) == 1 for p in key.parts):
        return  # MUC is 0/0 on linkless partitions by convention
    report = score(key, key)
    for _, prf in report.rows():
        assert (prf.precision, prf.recall, prf.f1) == (1, 1, 1)


@settings(max_examples=60, deadline=None)
@given(partition_pairs())
def test_muc_invariant_under_shared_singleton(pair):
    key, resp = pair
    before = muc(*align_mentions(key, resp))
    extra = "fresh-mention"
    key2 = Partition(list(key.parts) + [{extra}])
    resp2 = Partition(list(resp.parts) + [{extra}])
    after = muc(*align_mentions(key2, resp2))
    assert (before.precision, before.recall, before.f1) == (
        after.precision, after.recall, after.f1)


@settings(max_examples=60, deadline=None)
@given(partition_pairs())
def test_ceaf_e_total_matches_exhaustive_search(pair):
    key, resp = pair
    if len(key.parts) > 6 or len(resp.parts) > 6:
        return
    prf = ceaf_e(key, resp)
    phi = [[Fraction(2 * len(k & r), len(k) + len(r)) for r in resp.parts]
           for k in key.parts]
    best = brute_force_total(phi)
    assert prf.recall == (Fraction(best, len(key.parts)) if key.parts else 0)
    assert prf.precision == (Fraction(best, len(resp.parts)) if resp.parts else 0)


@st.composite
def disjoint_pieces(draw):
    """1-6 partition pairs with each piece's mentions relabelled (i, m), so no
    part of one piece shares a mention with another piece."""
    pairs = draw(st.lists(partition_pairs(), min_size=1, max_size=6))
    return [tuple(Partition([{(i, m) for m in p} for p in side]) for side in pair)
            for i, pair in enumerate(pairs)]


def _union(pieces):
    return tuple(Partition([p for piece in pieces for p in piece[side].parts]) for side in (0, 1))


@settings(max_examples=60, deadline=None)
@given(disjoint_pieces(), st.booleans())
def test_ceaf_e_total_is_sum_over_disjoint_pieces(pieces, drop):
    expected = Fraction(0)
    for key, resp in pieces:
        resp_parts = [r for r in resp.parts if len(r) > 1 or not drop]
        if resp_parts:
            expected += brute_force_total(
                [[Fraction(2 * len(k & r), len(k) + len(r)) for r in resp_parts]
                 for k in key.parts])
    key, resp = _union(pieces)
    n_resp = sum(len(r) > 1 or not drop for r in resp.parts)
    prf = ceaf_e(key, resp, drop_singleton_response_parts=drop)
    assert prf.recall * len(key.parts) == expected
    assert prf.precision * n_resp == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_score_invariant_under_piece_order(data):
    pieces = data.draw(disjoint_pieces())
    shuffled = data.draw(st.permutations(pieces))
    before, after = score(*_union(pieces)), score(*_union(shuffled))
    assert [prf for _, prf in before.rows()] == [prf for _, prf in after.rows()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scores_invariant_under_mention_relabelling(data):
    key, resp = data.draw(partition_pairs())
    universe = sorted(key.universe())
    relabel = dict(zip(universe, data.draw(st.permutations(universe))))
    key2, resp2 = (Partition([{relabel[m] for m in p} for p in side]) for side in (key, resp))
    for metric in (muc, b_cubed, ceaf_e):
        assert metric(key, resp) == metric(key2, resp2)
    assert score(key, resp) == score(key2, resp2)


def _reference_muc_counts(a: Partition, b: Partition) -> tuple[int, int]:
    # per-mention definition: for each part of `a`, its size minus the number
    # of distinct parts of `b` it intersects, over its size minus one
    index: dict = {}
    for i, part_b in enumerate(b):
        for m in part_b:
            index[m] = i
    num = den = 0
    for part_a in a:
        num += len(part_a) - len({index[m] for m in part_a})
        den += len(part_a) - 1
    return num, den


def _reference_b_cubed_sum(a: Partition, b: Partition) -> Fraction:
    # per-mention definition: |a-part & b-part of m| / |a-part| for each mention m
    part_of_b: dict = {}
    for part_b in b:
        for m in part_b:
            part_of_b[m] = part_b
    total = Fraction(0)
    for part_a in a:
        for m in part_a:
            total += Fraction(len(part_a & part_of_b[m]), len(part_a))
    return total


@settings(max_examples=150, deadline=None)
@given(partition_pairs())
def test_muc_and_b_cubed_equal_per_mention_definitions(pair):
    key, resp = pair
    r_num, r_den = _reference_muc_counts(key, resp)
    p_num, p_den = _reference_muc_counts(resp, key)
    got = muc(key, resp)
    assert got.recall == (Fraction(r_num, r_den) if r_den else 0)
    assert got.precision == (Fraction(p_num, p_den) if p_den else 0)
    n = sum(len(p) for p in key.parts)
    got = b_cubed(key, resp)
    assert got.recall == _reference_b_cubed_sum(key, resp) / n
    assert got.precision == _reference_b_cubed_sum(resp, key) / n


@settings(max_examples=60, deadline=None)
@given(disjoint_pieces())
def test_muc_and_b_cubed_totals_are_sums_over_disjoint_pieces(pieces):
    def totals(key, resp):
        n = sum(len(p) for p in key.parts)
        m, b = muc(key, resp), b_cubed(key, resp)
        return (m.recall * (n - len(key.parts)), m.precision * (n - len(resp.parts)),
                b.recall * n, b.precision * n)

    expected = [sum(column) for column in zip(*(totals(*piece) for piece in pieces))]
    assert list(totals(*_union(pieces))) == expected


@pytest.mark.parametrize("key, resp", [
    (part("ab", "cd"), part("ac", "bd")),
    (part("abc", "def"), part("abd", "cef")),
    (part("abcd", "efg", "h"), part("abe", "cdfh", "g")),
    (part("abcde", "fgh", "ij"), part("abfi", "cdgj", "eh")),
], ids=["pairs", "triples", "uneven", "3x3"])
def test_ceaf_e_solver_weights_are_scaled_integer_similarities(monkeypatch, key, resp):
    # each instance is one non-star component holding every part, so the
    # solver sees one row per key part, keyed by response part index, with
    # the non-zero cells of the key x response similarity matrix
    seen = []

    def recording(rows):
        seen.append(rows)
        return optimal_assignment(rows)

    monkeypatch.setattr(metrics, "optimal_assignment", recording)
    ceaf_e(key, resp)
    scale = math.lcm(*(len(k) + len(r) for k in key.parts for r in resp.parts if k & r))
    expected = [{j: 2 * len(k & r) * (scale // (len(k) + len(r)))
                 for j, r in enumerate(resp.parts) if k & r} for k in key.parts]
    [rows] = seen
    assert sorted(sorted(row.items()) for row in rows) == sorted(
        sorted(row.items()) for row in expected)
    assert all(type(w) is int for row in rows for w in row.values())


def test_conformance_against_independent_reference():
    rng = random.Random(20_24)
    for _ in range(150):
        key_sets, resp_sets = random_partition_pair(rng)
        report = score(Partition(key_sets), Partition(resp_sets))
        expected = _reference.all_scores(key_sets, resp_sets)
        ours = {
            "muc": report.muc, "b3": report.b3,
            "ceafe": report.ceaf_e, "conll": report.conll,
        }
        for name, prf in ours.items():
            for got, want in zip(prf.as_floats(), (expected[name][0], expected[name][1],
                                                   expected[name][2])):
                assert abs(got - want) < 1e-9, f"{name}: {got} vs {want}"


@pytest.mark.parametrize("key, resp, shapes", [
    (part("ab", "cd"), part("a", "b", "c", "d"), []),            # two stars
    (part("ab", "cd", "e"), part("ac", "bd", "e"), [(2, 2)]),    # 2x2 block + a 1x1 star
])
def test_ceaf_e_solves_only_non_star_components(monkeypatch, key, resp, shapes):
    seen = []

    def recording(rows):
        seen.append((len(rows), len({j for row in rows for j in row})))
        return optimal_assignment(rows)

    monkeypatch.setattr(metrics, "optimal_assignment", recording)
    ceaf_e(key, resp)
    assert seen == shapes


def test_ceaf_e_gives_the_solver_its_rows_in_one_order_under_every_hash_seed():
    # the second pair's response part {a, c, t, u} holds two twinless mentions
    script = ("from corefkg import metrics\n"
              "from corefkg.metrics import Partition, score\n"
              "solve = metrics.optimal_assignment\n"
              "metrics.optimal_assignment = lambda rows: print(rows) or solve(rows)\n"
              "score(Partition([['a', 'b', 'x'], ['c', 'd']]),"
              " Partition([['a', 'c'], ['b', 'd', 'x']]))\n"
              "score(Partition([['a', 'b'], ['c', 'd']]),"
              " Partition([['a', 'c', 't', 'u'], ['b', 'd']]))\n")
    for seed in ("1", "2"):
        done = run_python("-c", script, hash_seed=seed)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode() == ("[{0: 24, 1: 40}, {0: 30, 1: 24}]\n"
                                        "[{0: 20, 1: 30}, {0: 20, 1: 30}, {0: 24}, {0: 24}]\n")


def test_ceafe_singleton_drop_variant():
    # diagnostic variant ignores singleton response parts in the alignment
    key = part("abc")
    resp = part("ab", "c")
    standard = ceaf_e(key, resp)
    variant = ceaf_e(key, resp, drop_singleton_response_parts=True)
    assert variant.precision == Fraction(4, 5)  # only {a,b} remains on the response side
    assert variant.recall == Fraction(4, 5)
    assert standard.precision == Fraction(2, 5)


@st.composite
def partitions_with_twinless_mentions(draw):
    """Key and response partitions over overlapping universes: each mention
    is on the key side, the response side or both."""
    n = draw(st.integers(min_value=0, max_value=14))
    sides = draw(st.lists(st.sampled_from(["key", "response", "both"]), min_size=n, max_size=n))
    def side(name):
        labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        groups: dict[int, set] = {}
        for m, (where, label) in enumerate(zip(sides, labels)):
            if where in (name, "both"):
                groups.setdefault(label, set()).add(m)
        return Partition(groups.values())
    return side("key"), side("response")


@settings(max_examples=100, deadline=None)
@given(partitions_with_twinless_mentions(), st.booleans())
def test_score_equals_the_metrics_of_aligned_partitions(pair, drop):
    key, resp = pair
    k, r = align_mentions(key, resp)
    report = score(key, resp, ceafe_drop_singleton_response_parts=drop)
    assert report.muc == muc(k, r)
    assert report.b3 == b_cubed(k, r)
    assert report.ceaf_e == ceaf_e(k, r, drop_singleton_response_parts=drop)


_TYPES = (*TYPED, ConceptType.NONE)


def _response_of(rng: random.Random, key: Corpus) -> Corpus:
    """A response corpus for ``key``: some documents dropped, some mentions
    dropped or retyped (twinless on both sides), clusters redrawn, and a few
    documents the key does not have, in shuffled order."""
    docs = []
    for doc in key:
        if rng.random() < 0.2:
            continue
        mentions = [m if rng.random() < 0.8 else
                    dataclasses.replace(m, concept_type=rng.choice(
                        [t for t in _TYPES if t is not m.concept_type]))
                    for m in doc.mentions if rng.random() < 0.85]
        pool = mentions[:]
        rng.shuffle(pool)
        clusters = []
        while len(pool) >= 2 and rng.random() < 0.7:
            size = rng.randint(2, min(4, len(pool)))
            clusters.append(CoreferenceCluster(doc.doc_id, frozenset(pool[:size])))
            pool = pool[size:]
        docs.append(dataclasses.replace(doc, mentions=tuple(mentions), clusters=tuple(clusters)))
    docs += [random_document(rng, f"Bio/extra{i}", "Bio") for i in range(rng.randint(0, 2))]
    rng.shuffle(docs)
    return Corpus(tuple(docs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_score_corpora_equals_score_of_the_pooled_partitions(seed, drop):
    rng = random.Random(seed)
    key = random_corpus(rng, rng.randint(0, 8))
    response = _response_of(rng, key)
    reordered = list(response)
    rng.shuffle(reordered)  # other pairings: the sums are exact in any order
    for k, r in ((key, response), (response, key), (key, reordered)):
        expected = score(corpus_partition(k), corpus_partition(r),
                         ceafe_drop_singleton_response_parts=drop)
        assert score_corpora(k, r, ceafe_drop_singleton_response_parts=drop) == expected
        # one-shot inputs, as the CLI streams them: each is iterated once
        assert score_corpora(iter(k), iter(r),
                             ceafe_drop_singleton_response_parts=drop) == expected


def test_score_corpora_refuses_a_repeated_doc_id():
    doc, other = Document("d", "CS", "alpha"), Document("e", "CS", "beta")
    for key, response in ((Corpus((doc, doc)), Corpus()), (Corpus(), Corpus((doc, doc))),
                          # one-shot inputs, which have no len()
                          (iter([doc, other, doc]), iter([])),
                          (iter([doc, other]), iter([other, doc, other]))):
        with pytest.raises(ValueError, match="repeats a doc_id"):
            score_corpora(key, response)
