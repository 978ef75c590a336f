"""Coreference partition metrics: MUC, B-cubed, entity CEAF and their CoNLL average.

All three metrics compare a gold partition of mention ids (the *key*) with a
predicted partition (the *response*). Counting uses exact integer/rational
arithmetic; every component of every score is a ``fractions.Fraction``, so
results are reproducible bit-for-bit across platforms.

All three metrics are computed from one sparse overlap table, built in one
pass over the mentions: for every response part, the number of mentions it
shares with each key part it touches, plus the part sizes on both sides and
the number of mentions N. ``score`` builds that table once; a twinless
mention, present on one side only, enters it as a singleton part on the
other side, as ``align_mentions`` would add it. The reference CoNLL scorer
(Pradhan et al., 2014) scores from the same counts. Each metric turns the
table into raw counts: MUC needs N, the part counts and the number of
non-zero cells; B-cubed sums the squared cells per part size, so it builds
one ``Fraction`` per distinct size; CEAFe sums the aligned similarities per
denominator.

Entity CEAF aligns parts one overlap component at a time: a key part and a
response part are connected when they share a mention, and the optimal
alignment of the whole partition is the union of the optimal alignments of
its components. A component with one key part or one response part (a star)
is solved exactly as the largest similarity it contains; only the other
components go to ``optimal_assignment``, the textbook shortest augmenting path
that adds one row (key part) at a time, with integer weights: each similarity
scaled by the lcm of the component's denominators. No float enters the
arithmetic, so the alignment is exactly optimal.

Mention ids that carry their document, as ``corpus_partition`` builds them,
never connect two documents, so every raw count of a pooled corpus is a sum
of per-document counts. ``score_corpora`` scores two corpora that way: a
map turns each document into its parts over (start, end, type value) ids,
plain values that a worker process can hand back (``_parts``), and a sum
pairs documents by doc_id, builds one small table per pair, sums the counts
and turns the sums into scores once (``_scored``).

Degenerate 0/0 components are defined as 0, matching the behaviour of the
standard CoNLL scorer on partitions without links.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import iadd
from typing import Hashable, Iterable, Iterator, NamedTuple


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
    "score_corpora",
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
    """The sparse key x response overlap table of two partitions.

    ``shared[j]`` maps each key part index to the number of mentions it
    shares with response part ``j`` (only non-zero cells are stored);
    ``key_sizes`` and ``response_sizes`` are the part sizes and ``n`` the
    number of mentions.
    """

    shared: list[dict[int, int]]
    key_sizes: list[int]
    response_sizes: list[int]
    n: int


_UNALIGNED = "partitions cover different mentions; call align_mentions first"


def _overlap(key_parts, response_parts, *, align: bool = False) -> _Overlap:
    """Count the mentions each key part shares with each response part.

    The parts are sized collections of mention ids, disjoint on each side.
    With ``align``, a mention found on one side only (a twinless mention)
    counts as a singleton part on the other side, as ``align_mentions`` adds
    it; otherwise ValueError unless both sides cover the same mentions.
    """
    key_of = {m: i for i, part in enumerate(key_parts) for m in part}
    key_sizes = [len(part) for part in key_parts]
    n_key = len(key_sizes)
    lookup = key_of.__getitem__
    shared: list[dict[int, int]] = []
    for part in response_parts:
        try:
            if len(part) == 1:  # most parts: no Counter to build
                for m in part:
                    shared.append({lookup(m): 1})
            else:
                shared.append(Counter(map(lookup, part)))
        except KeyError:
            if not align:
                raise ValueError(_UNALIGNED) from None
            counts: Counter = Counter()
            for m in part:
                i = key_of.get(m)
                if i is None:  # twinless: a key singleton of its own
                    i = len(key_sizes)
                    key_sizes.append(1)
                counts[i] += 1
            shared.append(counts)
    response_sizes = [len(part) for part in response_parts]
    twinless = len(key_sizes) - n_key
    if sum(response_sizes) - twinless != len(key_of):
        if not align:
            raise ValueError(_UNALIGNED)
        # each key mention no response part holds: a response singleton
        covered = [0] * n_key
        for counts in shared:
            for i, n_kr in counts.items():
                if i < n_key:
                    covered[i] += n_kr
        for i, held in enumerate(covered):
            for _ in range(key_sizes[i] - held):
                shared.append({i: 1})
                response_sizes.append(1)
    return _Overlap(shared, key_sizes, response_sizes, len(key_of) + twinless)


# Each metric is split in two: a private count function turns one overlap
# table into the metric's raw counts, and a private PRF function turns counts
# into the score. Counts of tables over disjoint mentions add up (ints by +,
# Counters of numerators per denominator by +=), so the corpus scorer sums
# them per document and applies the same PRF functions once.

def _muc_counts(table: _Overlap) -> tuple[int, int, int, int]:
    """N, the number of non-zero cells, |K| and |R|."""
    return table.n, sum(map(len, table.shared)), len(table.key_sizes), len(table.response_sizes)


def _muc_prf(n: int, cells: int, key_parts: int, response_parts: int) -> PRF:
    links = Fraction(n - cells)
    return PRF.from_counts(links, n - response_parts, links, n - key_parts)


def muc(key: Partition, response: Partition) -> PRF:
    """Link-based metric: minimal missing/extra coreference links.

    From the overlap table: both link numerators are N minus the number of
    non-zero cells; recall divides by N - |K|, precision by N - |R|.
    """
    return _muc_prf(*_muc_counts(_overlap(key.parts, response.parts)))


def _b_cubed_counts(table: _Overlap) -> tuple[Counter, Counter, int]:
    """The squared cells summed per key part size and per response part
    size, and N."""
    key_sizes = table.key_sizes
    by_key_size: Counter = Counter()
    by_response_size: Counter = Counter()
    for counts, response_size in zip(table.shared, table.response_sizes):
        for i, n_kr in counts.items():
            by_key_size[key_sizes[i]] += n_kr * n_kr
            by_response_size[response_size] += n_kr * n_kr
    return by_key_size, by_response_size, table.n


def _sum_of_ratios(numerators: Counter) -> Fraction:
    """The sum of num / den over a Counter of numerator sums by denominator."""
    return sum((Fraction(num, den) for den, num in numerators.items()), start=ZERO)


def _b_cubed_prf(by_key_size: Counter, by_response_size: Counter, n: int) -> PRF:
    if n == 0:
        return PRF.from_pr(ZERO, ZERO)
    return PRF.from_pr(_sum_of_ratios(by_response_size) / n, _sum_of_ratios(by_key_size) / n)


def b_cubed(key: Partition, response: Partition) -> PRF:
    """Mention-weighted overlap metric averaging per-mention precision/recall.

    From the overlap table: recall is the sum of n_kr^2 / |k| over the
    non-zero cells, divided by N, and precision the same with |r|. The
    squares are summed per part size first, so there is one ``Fraction`` per
    distinct size rather than one per mention.
    """
    return _b_cubed_prf(*_b_cubed_counts(_overlap(key.parts, response.parts)))


def optimal_assignment(rows: list[dict[int, int | Fraction]]) -> dict[int, int]:
    """Injective row->column map maximizing total weight.

    ``rows`` is a sparse matrix, one ``{column: weight}`` dict per row, of
    finite non-negative weights; zero cells may be left out and are never
    assigned, so a row may stay unassigned. The solver is the textbook
    shortest augmenting path (Jonker and Volgenant, 1987; Crouse, 2016). Each
    row gets a private column of weight 0, numbered above every real column,
    that stands for leaving it unassigned, so every row can be matched. The
    rows are added one at a time: a Dijkstra run from the new row alone, over
    the non-zero cells and the private columns, with reduced costs
    u[i] + v[j] - w[i][j] kept non-negative by row potentials u and column
    potentials v, stops at the first free column. The potentials are then
    shifted so that the path is tight, and the path is flipped. The
    arithmetic is the weights' own: int and ``Fraction`` weights give an
    exact optimum.
    """
    private = 1 + max((j for row in rows for j in row), default=0)
    cells = []
    for i, row in enumerate(rows):
        if not all(0 <= w < math.inf for w in row.values()):
            raise ValueError("weights must be finite and non-negative")
        cells.append([(j, w) for j, w in row.items() if w] + [(private + i, 0)])
    row_pot = [max(w for _, w in out) for out in cells]
    col_pot = dict.fromkeys([j for out in cells for j, _ in out], 0)
    row_of: dict[int, int] = {}
    col_of: dict[int, int] = {}
    for start in range(len(cells)):
        heap: list = []
        came: dict[int, int] = {}
        done: dict = {}
        i, d = start, 0
        while True:
            base = d + row_pot[i]
            for j, w in cells[i]:
                if j not in done:
                    heappush(heap, (base + col_pot[j] - w, j, i))
            d, j, i = heappop(heap)
            while j in done:
                d, j, i = heappop(heap)
            done[j], came[j] = d, i
            if j not in row_of:
                break
            i = row_of[j]
        # shift potentials so the path is tight, then flip it
        row_pot[start] -= d
        for k, dk in done.items():
            col_pot[k] += d - dk
            if k in row_of:
                row_pot[row_of[k]] -= d - dk
        while j is not None:
            i = came[j]
            row_of[j] = i
            col_of[i], j = j, col_of.get(i)
    return {i: j for i, j in col_of.items() if j < private}


def _components(shared: dict[Hashable, Iterable[Hashable]]) -> list[tuple[list, list]]:
    """Connected components of the bipartite graph that links each key ``j``
    of ``shared`` to each item ``i`` of ``shared[j]``, which holds at least
    one: each component as its ``j``s and its ``i``s, each once, in the order
    of each component's first ``i`` met. Two components that meet are merged,
    the smaller into the larger."""
    component_of: dict[Hashable, tuple[list, list]] = {}  # by i
    for j, counts in shared.items():
        into = None
        for i in counts:
            found = component_of.get(i)
            if found is None:
                if into is None:
                    into = ([], [])
                into[1].append(i)
                component_of[i] = into
            elif into is None:
                into = found
            elif found is not into:
                if len(found[0]) + len(found[1]) > len(into[0]) + len(into[1]):
                    found, into = into, found
                into[0].extend(found[0])
                into[1].extend(found[1])
                for k in found[1]:
                    component_of[k] = into
        into[0].append(j)
    return list({id(c): c for c in component_of.values()}.values())


def _ceaf_e_counts(table: _Overlap, drop_singleton_response_parts: bool
                   ) -> tuple[Counter, int, int]:
    """The optimal aligned total, as numerators summed per denominator, and
    the numbers of response parts (after any drop) and key parts."""
    all_shared, key_sizes, response_sizes, _ = table
    shared = {j: counts for j, counts in enumerate(all_shared)
              if response_sizes[j] > 1 or not drop_singleton_response_parts}
    aligned: Counter = Counter()
    for cols, keys in _components(shared):
        if len(cols) == 1 or len(keys) == 1:
            # every pair of a star overlaps and only one pair can be aligned;
            # find the largest 2n / (|K| + |R|) by cross-multiplying integers
            best_num, best_den = 0, 1
            for j in cols:
                for i, n_kr in shared[j].items():
                    den = key_sizes[i] + response_sizes[j]
                    if 2 * n_kr * best_den > best_num * den:
                        best_num, best_den = 2 * n_kr, den
            aligned[best_den] += best_num
        else:
            # one row per key part of integer weights 2n * (L // (|K| + |R|)), the
            # similarities scaled by L, the lcm of the component's denominators
            scale = math.lcm(*{key_sizes[i] + response_sizes[j] for j in cols for i in shared[j]})
            by_key: dict[int, dict[int, int]] = {}
            # rows in table order, whatever order the parts merged in or their
            # mentions hash in; the twinless key singletons of a part, which
            # _overlap numbers in hash order, have equal rows
            for j in sorted(cols):
                for i, n_kr in sorted(shared[j].items()):
                    den = key_sizes[i] + response_sizes[j]
                    by_key.setdefault(i, {})[j] = 2 * n_kr * (scale // den)
            weights = list(by_key.values())
            # through the module global, so a patched metrics.optimal_assignment sees it
            assignment = optimal_assignment(weights)
            aligned[scale] += sum(weights[a][j] for a, j in assignment.items())
    return aligned, len(shared), len(key_sizes)


def _ceaf_e_prf(aligned: Counter, response_parts: int, key_parts: int) -> PRF:
    total = _sum_of_ratios(aligned)
    return PRF.from_counts(total, response_parts, total, key_parts)


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
    table = _overlap(key.parts, response.parts)
    return _ceaf_e_prf(*_ceaf_e_counts(table, drop_singleton_response_parts))


def corpus_partition(corpus) -> Partition:
    """Pool every document's clusters (annotated plus implicit singletons)
    into one partition of mention identity 4-tuples."""
    from .model import all_clusters  # local import; model does not import metrics

    parts = []
    for doc in corpus:
        for cluster in all_clusters(doc):
            parts.append(frozenset(m.key for m in cluster.mentions))
    return Partition(parts)


def _counts(table: _Overlap, ceafe_drop_singleton_response_parts: bool) -> tuple:
    """The raw counts of all three metrics, from one overlap table."""
    return (_muc_counts(table), _b_cubed_counts(table),
            _ceaf_e_counts(table, ceafe_drop_singleton_response_parts))


def _report(muc_counts: tuple, b_cubed_counts: tuple, ceaf_e_counts: tuple) -> ScoreReport:
    m = _muc_prf(*muc_counts)
    b = _b_cubed_prf(*b_cubed_counts)
    c = _ceaf_e_prf(*ceaf_e_counts)
    conll = PRF(
        precision=(m.precision + b.precision + c.precision) / 3,
        recall=(m.recall + b.recall + c.recall) / 3,
        f1=(m.f1 + b.f1 + c.f1) / 3,
    )
    return ScoreReport(muc=m, b3=b, ceaf_e=c, conll=conll)


def score(
    key: Partition,
    response: Partition,
    *,
    ceafe_drop_singleton_response_parts: bool = False,
) -> ScoreReport:
    """Compute all three metrics and their means from one overlap table.

    A twinless mention counts as a singleton part on the other side, as
    ``align_mentions`` would add it.
    """
    table = _overlap(key.parts, response.parts, align=True)
    return _report(*_counts(table, ceafe_drop_singleton_response_parts))


def _document_parts(doc) -> list[list[tuple]]:
    """The parts of ``all_clusters(doc)``, as lists of (start, end, type value)
    ids: plain values, which ``marshal`` carries."""
    # _value_, the member's own attribute, is read about ten times faster than .value
    parts = [[(m.start, m.end, m.concept_type._value_) for m in cluster.mentions]
             for cluster in doc.clusters]
    covered = {i for part in parts for i in part}
    parts += [[i] for m in doc.mentions
              if (i := (m.start, m.end, m.concept_type._value_)) not in covered]
    return parts


def _parts(docs: Iterable) -> Iterator[tuple[str, list[list[tuple]]]]:
    """The map of scoring: the doc_id and ``_document_parts`` of each document."""
    for doc in docs:
        yield doc.doc_id, _document_parts(doc)


def _unique(records: Iterable[tuple]) -> Iterator[tuple]:
    """The ``_parts`` records of a corpus; ValueError at the first repeated doc_id."""
    seen: set[str] = set()
    for record in records:
        if record[0] in seen:
            raise ValueError("a corpus repeats a doc_id")
        seen.add(record[0])
        yield record


def _scored(key: Iterable[tuple], response: Iterable[tuple],
            ceafe_drop_singleton_response_parts: bool) -> ScoreReport:
    """The sum of scoring: the report of the ``_parts`` records of a key corpus
    and of a response corpus. The key records are read to their end before the
    first response record is, so that a fault of the key is raised first. Each
    response document is scored as it is read, against the key document of its
    doc_id, in one overlap table over (start, end, type value) ids; the key
    documents left over are scored last, as twinless. ValueError if either
    corpus repeats a doc_id."""
    key_parts = dict(_unique(key))

    def pairs() -> Iterator[tuple[list, list]]:
        for doc_id, parts in _unique(response):
            yield key_parts.pop(doc_id, []), parts
        yield from ((parts, []) for parts in key_parts.values())

    drop = ceafe_drop_singleton_response_parts
    totals = _counts(_overlap((), ()), drop)  # every count zero
    for key_doc, response_doc in pairs():
        table = _overlap(key_doc, response_doc, align=True)
        totals = [tuple(map(iadd, total, counts))
                  for total, counts in zip(totals, _counts(table, drop))]
    return _report(*totals)


def score_corpora(
    key: Iterable,
    response: Iterable,
    *,
    ceafe_drop_singleton_response_parts: bool = False,
) -> ScoreReport:
    """Score a response corpus against a key corpus, one document at a time.

    Equal to ``score(corpus_partition(key), corpus_partition(response))``:
    pooled mention ids carry their document, so every metric's raw counts
    are exact sums of per-document counts. Each corpus is iterated once, the
    key first, keeping only its documents' parts (the map ``_parts``), and
    the per-document counts are summed (``_scored``). ValueError if either
    corpus repeats a doc_id.
    """
    return _scored(_parts(key), _parts(response), ceafe_drop_singleton_response_parts)
