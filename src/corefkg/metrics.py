"""Coreference partition metrics: MUC, B-cubed, entity CEAF and their CoNLL average.

All three metrics compare a gold partition of mention ids (the *key*) with a
predicted partition (the *response*). Counting uses exact integer/rational
arithmetic; every component of every score is a ``fractions.Fraction``, so
results are reproducible bit-for-bit across platforms.

Each metric is computed from one sparse overlap table, built in one pass over
the mentions: for every response part, the number of mentions it shares with
each key part it touches, plus the part sizes on both sides and the number of
mentions N. The reference CoNLL scorer (Pradhan et al., 2014) scores from the
same counts. MUC needs only the number of non-zero cells; B-cubed sums the
squared cells per part size, so it builds one ``Fraction`` per distinct size.

Entity CEAF aligns parts one overlap component at a time: a key part and a
response part are connected when they share a mention, and the optimal
alignment of the whole partition is the union of the optimal alignments of
its components. A component with one key part or one response part (a star)
is solved exactly as the largest similarity it contains; only the other
components go to ``optimal_assignment``, a sparse augmenting-path solver, with
integer weights: each similarity scaled by the lcm of the component's
denominators. No float enters the arithmetic, so the alignment is exactly
optimal. Mention ids that carry their document, as
``corpus_partition`` builds them, never connect two documents, so a pooled
corpus is scored as a sum of small per-document problems.

Degenerate 0/0 components are defined as 0, matching the behaviour of the
standard CoNLL scorer on partitions without links.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Hashable, Iterable, NamedTuple

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


class _Overlap(NamedTuple):
    """The sparse key x response overlap table of two aligned partitions.

    ``shared[j]`` maps each key part index to the number of mentions it
    shares with response part ``j`` (only non-zero cells are stored);
    ``key_sizes`` and ``response_sizes`` are the part sizes and ``n`` the
    number of mentions.
    """

    shared: list[Counter]
    key_sizes: list[int]
    response_sizes: list[int]
    n: int


def _overlap(key: Partition, response: Partition) -> _Overlap:
    """Count the mentions each key part shares with each response part.

    Raises ValueError unless both partitions cover the same mentions.
    """
    unaligned = "partitions cover different mentions; call align_mentions first"
    key_of = {m: i for i, part in enumerate(key.parts) for m in part}
    try:
        shared = [Counter(map(key_of.__getitem__, part)) for part in response.parts]
    except KeyError:
        raise ValueError(unaligned) from None
    response_sizes = [len(part) for part in response.parts]
    if sum(response_sizes) != len(key_of):
        raise ValueError(unaligned)
    return _Overlap(shared, [len(part) for part in key.parts], response_sizes, len(key_of))


def muc(key: Partition, response: Partition) -> PRF:
    """Link-based metric: minimal missing/extra coreference links.

    From the overlap table: both link numerators are N minus the number of
    non-zero cells; recall divides by N - |K|, precision by N - |R|.
    """
    shared, key_sizes, response_sizes, n = _overlap(key, response)
    links = Fraction(n - sum(map(len, shared)))
    return PRF.from_counts(links, n - len(response_sizes), links, n - len(key_sizes))


def _sum_by_size(squares: Counter) -> Fraction:
    # squares maps a part size to the sum of squared overlaps of its parts
    return sum((Fraction(total, size) for size, total in squares.items()), start=ZERO)


def b_cubed(key: Partition, response: Partition) -> PRF:
    """Mention-weighted overlap metric averaging per-mention precision/recall.

    From the overlap table: recall is the sum of n_kr^2 / |k| over the
    non-zero cells, divided by N, and precision the same with |r|. The
    squares are summed per part size first, so there is one ``Fraction`` per
    distinct size rather than one per mention.
    """
    shared, key_sizes, response_sizes, n = _overlap(key, response)
    if n == 0:
        return PRF.from_pr(ZERO, ZERO)
    by_key_size: Counter = Counter()
    by_response_size: Counter = Counter()
    for counts, response_size in zip(shared, response_sizes):
        for i, n_kr in counts.items():
            by_key_size[key_sizes[i]] += n_kr * n_kr
            by_response_size[response_size] += n_kr * n_kr
    recall = _sum_by_size(by_key_size) / n
    precision = _sum_by_size(by_response_size) / n
    return PRF.from_pr(precision, recall)


def optimal_assignment(rows: list[dict[int, int | Fraction]]) -> dict[int, int]:
    """Injective row->column map maximizing total weight.

    ``rows`` is a sparse matrix, one ``{column: weight}`` dict per row, of
    finite non-negative weights; zero cells may be left out and are never
    assigned, so a row may stay unassigned. The solver grows the matching by
    successive shortest augmenting paths: each round runs Dijkstra from all
    unassigned rows over the non-zero cells, with reduced costs
    u[i] + v[j] - w[i][j] kept non-negative by row potentials u and column
    potentials v, and it stops when no augmenting path gains weight. Every
    row starts at the same potential, the largest weight, so the unassigned
    rows always share one potential ``level`` and a path to a free column
    gains ``level`` minus its length. The arithmetic is the weights' own: int
    and ``Fraction`` weights give an exact optimum.
    """
    cells = []
    level = 0
    for row in rows:
        out = []
        for j, w in row.items():
            if not 0 <= w < math.inf:
                raise ValueError("weights must be finite and non-negative")
            if w:
                out.append((j, w))
                level = max(level, w)
        cells.append(out)
    row_pot = [level] * len(cells)
    col_pot = dict.fromkeys([j for out in cells for j, _ in out], 0)
    row_of: dict[int, int] = {}
    col_of: dict[int, int] = {}
    free = {i for i, out in enumerate(cells) if out}
    while free:
        # Dijkstra from every free row at distance 0; a path whose length
        # reaches ``level`` cannot gain, so it is never pushed
        heap: list = []
        came: dict[int, int] = {}
        done: dict = {}
        reached = dict.fromkeys(free, 0)
        scan = list(free)
        end = None
        while scan:
            i = scan.pop()
            base = reached[i] + row_pot[i]
            for j, w in cells[i]:
                d = base + col_pot[j] - w
                if d < level and j not in done:
                    heappush(heap, (d, j, i))
            while heap and not scan:
                d, j, i = heappop(heap)
                if j in done:
                    continue
                done[j], came[j] = d, i
                if j in row_of:
                    reached[row_of[j]] = d
                    scan.append(row_of[j])
                else:
                    end = j
                    break
        if end is None:
            break
        # shift potentials so the path is tight, then flip it
        length = done[end]
        for i, d in reached.items():
            row_pot[i] -= length - d
        for j, d in done.items():
            col_pot[j] += length - d
        level -= length
        j = end
        while j is not None:
            i = came[j]
            row_of[j] = i
            col_of[i], j = j, col_of.get(i)
        free.discard(i)
    return col_of


def _components(shared: dict[int, Counter]) -> list[list[int]]:
    """Connected components of the overlap graph, as lists of response part
    indices. A component's key parts are the keys of its response parts'
    counts; a key part no response part touches belongs to no component."""
    links = UnionFind()
    for counts in shared.values():
        first, *rest = counts
        links.add(first)
        for i in rest:
            links.union(first, i)
    components: dict = {}
    for j, counts in shared.items():
        components.setdefault(links.find(next(iter(counts))), []).append(j)
    return list(components.values())


def ceaf_e(key: Partition, response: Partition, *, drop_singleton_response_parts: bool = False) -> PRF:
    """Entity-based metric scoring an optimal one-to-one part alignment.

    Part similarity is 2|K & R| / (|K| + |R|); recall divides the optimal
    total by the number of key parts, precision by the number of response
    parts. The alignment is solved per component of the overlap table (see
    the module docstring): a star, with one key part or one response part,
    scores its largest similarity exactly; any other component is solved by
    ``optimal_assignment`` on its own sparse rows, one per key part, of
    integer weights 2|K & R| * (L // (|K| + |R|)), L being the lcm of the
    component's cells' |K| + |R|; the assigned weights are summed and divided by L.
    ``drop_singleton_response_parts`` enables a non-standard variant (found
    in some neural-coreference eval scripts) that removes singleton response
    parts before aligning; leave it off for standard scoring.
    """
    all_shared, key_sizes, response_sizes, _ = _overlap(key, response)
    shared = {j: counts for j, counts in enumerate(all_shared)
              if response_sizes[j] > 1 or not drop_singleton_response_parts}
    if not key_sizes or not shared:
        return PRF.from_pr(ZERO, ZERO)

    total = ZERO
    for cols in _components(shared):
        if len(cols) == 1 or len({i for j in cols for i in shared[j]}) == 1:
            # every pair of a star overlaps and only one pair can be aligned;
            # find the largest 2n / (|K| + |R|) by cross-multiplying integers
            best_num, best_den = 0, 1
            for j in cols:
                for i, n_kr in shared[j].items():
                    den = key_sizes[i] + response_sizes[j]
                    if 2 * n_kr * best_den > best_num * den:
                        best_num, best_den = 2 * n_kr, den
            total += Fraction(best_num, best_den)
        else:
            # one row per key part of integer weights 2n * (L // (|K| + |R|)), the
            # similarities scaled by L, the lcm of the component's denominators
            scale = math.lcm(*{key_sizes[i] + response_sizes[j] for j in cols for i in shared[j]})
            by_key: dict[int, dict[int, int]] = {}
            for j in cols:
                for i, n_kr in shared[j].items():
                    den = key_sizes[i] + response_sizes[j]
                    by_key.setdefault(i, {})[j] = 2 * n_kr * (scale // den)
            weights = list(by_key.values())
            assignment = optimal_assignment(weights)
            total += Fraction(sum(weights[a][j] for a, j in assignment.items()), scale)
    return PRF.from_counts(total, len(shared), total, len(key_sizes))


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
