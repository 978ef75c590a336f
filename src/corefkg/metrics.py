"""Coreference partition metrics: MUC, B-cubed, entity CEAF and their CoNLL average.

All three metrics compare a gold partition of mention ids (the *key*) with a
predicted partition (the *response*). Counting uses exact integer/rational
arithmetic; every component of every score is a ``fractions.Fraction``, so
results are reproducible bit-for-bit across platforms.

Entity CEAF aligns parts one overlap component at a time: a key part and a
response part are connected when they share a mention, and the optimal
alignment of the whole partition is the union of the optimal alignments of
its components. A component with one key part or one response part (a star)
is solved exactly as the largest similarity it contains; only the other
components go to scipy's Hungarian solver. Mention ids that carry their
document, as ``corpus_partition`` builds them, never connect two documents,
so a pooled corpus is scored as a sum of small per-document problems.

Degenerate 0/0 components are defined as 0, matching the behaviour of the
standard CoNLL scorer on partitions without links.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable

import numpy as np
from scipy.optimize import linear_sum_assignment

from .unionfind import UnionFind

__all__ = [
    "Partition",
    "PRF",
    "ScoreReport",
    "align_mentions",
    "muc",
    "b_cubed",
    "ceaf_e",
    "optimal_assignment",
    "score",
    "corpus_partition",
]

ZERO = Fraction(0)


class Partition:
    """Disjoint, non-empty sets of hashable mention ids.

    Parts keep their construction order (useful for deterministic output) but
    compare and hash as a set of sets.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Iterable[Hashable]]):
        frozen: list[frozenset] = []
        seen: set = set()
        for part in parts:
            fp = frozenset(part)
            if not fp:
                raise ValueError("empty part in partition")
            overlap = seen & fp
            if overlap:
                raise ValueError(
                    f"parts are not disjoint: {sorted(overlap, key=repr)[:3]!r} repeated")
            seen |= fp
            frozen.append(fp)
        self.parts: tuple[frozenset, ...] = tuple(frozen)

    def universe(self) -> frozenset:
        out: set = set()
        for part in self.parts:
            out |= part
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return frozenset(self.parts) == frozenset(other.parts)

    def __hash__(self) -> int:
        return hash(frozenset(self.parts))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(repr, sorted(p, key=repr))) + "}" for p in self.parts)
        return f"Partition([{inner}])"


@dataclass(frozen=True)
class PRF:
    """Precision/recall/F1 triple; F1 is the harmonic mean (0 when P+R = 0)."""

    precision: Fraction
    recall: Fraction
    f1: Fraction

    @classmethod
    def from_pr(cls, precision: Fraction, recall: Fraction) -> "PRF":
        s = precision + recall
        f1 = 2 * precision * recall / s if s > 0 else ZERO
        return cls(precision, recall, f1)

    @classmethod
    def from_counts(cls, p_num: Fraction, p_den: int, r_num: Fraction, r_den: int) -> "PRF":
        p = Fraction(p_num, p_den) if p_den else ZERO
        r = Fraction(r_num, r_den) if r_den else ZERO
        return cls.from_pr(p, r)

    def as_floats(self) -> tuple[float, float, float]:
        return (float(self.precision), float(self.recall), float(self.f1))


@dataclass(frozen=True)
class ScoreReport:
    """All three metrics plus their component-wise arithmetic mean (CoNLL)."""

    muc: PRF
    b3: PRF
    ceaf_e: PRF
    conll: PRF

    @property
    def conll_f1_of_means(self) -> Fraction:
        """Harmonic mean of the averaged P and R, as a diagnostic alternative
        to the standard CoNLL F1 (which averages the three F1 values)."""
        return PRF.from_pr(self.conll.precision, self.conll.recall).f1

    def rows(self) -> list[tuple[str, PRF]]:
        return [("MUC", self.muc), ("B3", self.b3), ("CEAFe", self.ceaf_e), ("CoNLL", self.conll)]

    def to_table(self) -> str:
        lines = ["metric\tP\tR\tF1"]
        for name, prf in self.rows():
            p, r, f = prf.as_floats()
            lines.append(f"{name}\t{100 * p:.2f}\t{100 * r:.2f}\t{100 * f:.2f}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        out: dict = {}
        for name, prf in self.rows():
            p, r, f = prf.as_floats()
            out[name.lower()] = {
                "precision": p,
                "recall": r,
                "f1": f,
                "exact": {
                    "precision": str(prf.precision),
                    "recall": str(prf.recall),
                    "f1": str(prf.f1),
                },
            }
        out["conll_f1_of_means"] = float(self.conll_f1_of_means)
        return out


def align_mentions(key: Partition, response: Partition) -> tuple[Partition, Partition]:
    """Make both partitions cover the same mention universe.

    A mention present on only one side (a twinless mention) is added to the
    other side as a singleton part.
    """
    ku, ru = key.universe(), response.universe()
    key_extra = sorted(ku - ru, key=repr)
    resp_extra = sorted(ru - ku, key=repr)
    aligned_key = Partition(list(key.parts) + [[m] for m in resp_extra])
    aligned_response = Partition(list(response.parts) + [[m] for m in key_extra])
    return aligned_key, aligned_response


def _require_aligned(key: Partition, response: Partition) -> None:
    if key.universe() != response.universe():
        raise ValueError("partitions cover different mentions; call align_mentions first")


def _muc_counts(a: Partition, b: Partition) -> tuple[int, int]:
    # For each part of `a`: size minus the number of distinct parts of `b`
    # it intersects; denominator is size minus one.
    index: dict = {}
    for i, part in enumerate(b):
        for m in part:
            index[m] = i
    num = den = 0
    for part in a:
        num += len(part) - len({index[m] for m in part})
        den += len(part) - 1
    return num, den


def muc(key: Partition, response: Partition) -> PRF:
    """Link-based metric: minimal missing/extra coreference links."""
    _require_aligned(key, response)
    r_num, r_den = _muc_counts(key, response)
    p_num, p_den = _muc_counts(response, key)
    return PRF.from_counts(Fraction(p_num), p_den, Fraction(r_num), r_den)


def _b_cubed_sum(a: Partition, b: Partition) -> Fraction:
    part_of_b: dict = {}
    for part in b:
        for m in part:
            part_of_b[m] = part
    total = ZERO
    for part in a:
        for m in part:
            total += Fraction(len(part & part_of_b[m]), len(part))
    return total


def b_cubed(key: Partition, response: Partition) -> PRF:
    """Mention-weighted overlap metric averaging per-mention precision/recall."""
    _require_aligned(key, response)
    n = len(key.universe())
    if n == 0:
        return PRF.from_pr(ZERO, ZERO)
    recall = _b_cubed_sum(key, response) / n
    precision = _b_cubed_sum(response, key) / n
    return PRF.from_pr(precision, recall)


def optimal_assignment(weights) -> dict[int, int]:
    """Injective row->column map maximizing total weight.

    ``weights`` is an n x m matrix of finite non-negative values; the result
    assigns min(n, m) rows.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError("weight matrix must be two-dimensional")
    if w.size == 0:
        return {}
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and non-negative")
    rows, cols = linear_sum_assignment(w, maximize=True)
    return dict(zip(rows.tolist(), cols.tolist()))


def _overlap_components(
    key_parts: list[frozenset], response_parts: list[frozenset]
) -> tuple[list[Counter], list[list[int]]]:
    """Shared-mention counts and the components of the overlap graph.

    Returns ``shared``, where ``shared[j]`` maps each key part index to the
    number of mentions it shares with response part ``j``, and the connected
    components as lists of response part indices. A component's key parts are
    the keys of its response parts' counts; a key part no response part
    touches belongs to no component and aligns to nothing.
    """
    key_of = {m: i for i, part in enumerate(key_parts) for m in part}
    shared = [Counter(key_of[m] for m in part) for part in response_parts]
    links = UnionFind()
    for counts in shared:
        first, *rest = counts
        links.add(first)
        for i in rest:
            links.union(first, i)
    components: dict = {}
    for j, counts in enumerate(shared):
        components.setdefault(links.find(next(iter(counts))), []).append(j)
    return shared, list(components.values())


def ceaf_e(key: Partition, response: Partition, *, drop_singleton_response_parts: bool = False) -> PRF:
    """Entity-based metric scoring an optimal one-to-one part alignment.

    Part similarity is 2|K & R| / (|K| + |R|); recall divides the optimal
    total by the number of key parts, precision by the number of response
    parts. The alignment is solved per overlap component (see the module
    docstring): a star, with one key part or one response part, scores its
    largest similarity exactly; any other component is solved by
    ``optimal_assignment`` on its own block; the exact totals are summed.
    ``drop_singleton_response_parts`` enables a non-standard variant (found
    in some neural-coreference eval scripts) that removes singleton response
    parts before aligning; leave it off for standard scoring.
    """
    _require_aligned(key, response)
    response_parts = list(response.parts)
    if drop_singleton_response_parts:
        response_parts = [p for p in response_parts if len(p) > 1]
    key_parts = list(key.parts)
    if not key_parts or not response_parts:
        return PRF.from_pr(ZERO, ZERO)
    shared, components = _overlap_components(key_parts, response_parts)

    def phi4(i: int, j: int) -> Fraction:
        return Fraction(2 * shared[j][i], len(key_parts[i]) + len(response_parts[j]))

    total = ZERO
    for cols in components:
        rows = sorted({i for j in cols for i in shared[j]})
        if len(rows) == 1 or len(cols) == 1:
            # every pair of a star overlaps and only one pair can be aligned
            total += max(phi4(i, j) for j in cols for i in shared[j])
        else:
            block = [[phi4(i, j) for j in cols] for i in rows]
            assignment = optimal_assignment([[float(x) for x in row] for row in block])
            total += sum((block[a][b] for a, b in assignment.items()), start=ZERO)
    return PRF.from_counts(total, len(response_parts), total, len(key_parts))


def corpus_partition(corpus) -> Partition:
    """Pool every document's clusters (annotated plus implicit singletons)
    into one partition of mention identity 4-tuples."""
    from .model import all_clusters  # local import; model does not import metrics

    parts = []
    for doc in corpus:
        for cluster in all_clusters(doc):
            parts.append(frozenset(m.key for m in cluster.mentions))
    return Partition(parts)


def score(
    key: Partition,
    response: Partition,
    *,
    ceafe_drop_singleton_response_parts: bool = False,
) -> ScoreReport:
    """Align both partitions, compute all three metrics and their means."""
    k, r = align_mentions(key, response)
    m = muc(k, r)
    b = b_cubed(k, r)
    c = ceaf_e(k, r, drop_singleton_response_parts=ceafe_drop_singleton_response_parts)
    conll = PRF(
        precision=(m.precision + b.precision + c.precision) / 3,
        recall=(m.recall + b.recall + c.recall) / 3,
        f1=(m.f1 + b.f1 + c.f1) / 3,
    )
    return ScoreReport(muc=m, b3=b, ceaf_e=c, conll=conll)
