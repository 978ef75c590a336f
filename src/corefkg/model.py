"""Core data model: typed mentions, coreference clusters, documents, corpora.

A mention is a contiguous character span over the document text, typed with
one of four scientific concept types (or ``None`` for spans contributed only
by coreference annotation, e.g. pronouns). Its identity key is the 4-tuple
(doc_id, start, end, concept_type). Clusters group mentions within a single
document; a cluster of size one is a singleton cluster.

All types are immutable value objects and every operation here is a pure
function of its inputs. ``Mention`` and ``CoreferenceCluster``, of which a
corpus holds one per annotation, are slotted: they carry no per-instance
``__dict__``, so a large corpus takes less memory. Their ``__init__`` is
written in the class body and stores each field through its slot's member
descriptor, which is cheaper than the generated ``object.__setattr__`` per
field; parameters, defaults, equality, hashing, copying and
``dataclasses.replace`` are the dataclass's. The corpus readers are
the validation boundary: while they build a document they check, on
integers, the invariants it does not hold by construction, and they call
``validate`` only to word the violations of a document that failed those
checks. Code that builds documents by hand checks them with
``validate_corpus``; ``all_clusters`` and ``corpus_stats`` assume valid
input and do not re-check it.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from typing import Iterable

__all__ = [
    "ConceptType",
    "MentionSource",
    "MentionKey",
    "Mention",
    "CoreferenceCluster",
    "Document",
    "Corpus",
    "CANONICAL_TYPES",
    "concept_type_from_string",
    "validate",
    "validate_corpus",
    "all_clusters",
    "corpus_stats",
    "StatRow",
    "StatsTable",
]


class ConceptType(enum.Enum):
    """Concept type of a mention, cluster, or KG concept.

    ``MIXED`` is a bookkeeping value for clusters/concepts whose members
    disagree; it is never assigned to a single mention. ``NONE`` marks
    mentions found only by coreference annotation (pronouns and noun
    phrases spanning several original mentions).

    Members are singletons compared by identity, so they hash by identity
    too (``object.__hash__``), which is cheaper than ``Enum.__hash__``.
    """

    __hash__ = object.__hash__

    PROCESS = "Process"
    METHOD = "Method"
    MATERIAL = "Material"
    DATA = "Data"
    NONE = "None"
    MIXED = "Mixed"

    def __str__(self) -> str:
        return self.value


#: The four types a single mention may carry (besides NONE).
CANONICAL_TYPES = (
    ConceptType.DATA,
    ConceptType.MATERIAL,
    ConceptType.METHOD,
    ConceptType.PROCESS,
)

_TYPE_BY_NAME = {t.value: t for t in ConceptType}


def concept_type_from_string(name: str) -> ConceptType:
    """Map a serialized type name to a ConceptType; raises on unknown values."""
    try:
        return _TYPE_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown concept type {name!r}") from None


class MentionSource(enum.Enum):
    """Which stage produced a mention; hashed by identity like ConceptType."""

    __hash__ = object.__hash__

    CONCEPT_EXTRACTOR = "concept_extractor"
    COREF_ONLY = "coref_only"


#: Identity key of a mention within a corpus: (doc_id, start, end, type name).
MentionKey = tuple[str, int, int, str]


@dataclass(frozen=True, slots=True)
class Mention:
    """A typed text span; ``surface`` must equal ``text[start:end]`` of its document."""

    doc_id: str
    start: int
    end: int
    concept_type: ConceptType
    surface: str
    source: MentionSource = MentionSource.CONCEPT_EXTRACTOR

    def __init__(self, doc_id: str, start: int, end: int, concept_type: ConceptType,
                 surface: str, source: MentionSource = MentionSource.CONCEPT_EXTRACTOR):
        _set_mention_doc_id(self, doc_id)
        _set_mention_start(self, start)
        _set_mention_end(self, end)
        _set_mention_concept_type(self, concept_type)
        _set_mention_surface(self, surface)
        _set_mention_source(self, source)

    def __hash__(self) -> int:
        """Hash of the span (doc_id, start, end) alone.

        Equal mentions have equal spans, so this agrees with the generated
        ``__eq__``; mentions differing only in type, surface or source share
        a hash and are told apart by ``__eq__``.
        """
        return hash((self.doc_id, self.start, self.end))

    @property
    def key(self) -> MentionKey:
        return (self.doc_id, self.start, self.end, self.concept_type.value)

    def span(self) -> str:
        return f"{self.doc_id}[{self.start},{self.end})"


@dataclass(frozen=True, slots=True)
class CoreferenceCluster:
    """A non-empty set of mentions of one document referring to the same concept."""

    doc_id: str
    mentions: frozenset[Mention]

    def __init__(self, doc_id: str, mentions: frozenset[Mention]):
        mentions = frozenset(mentions)
        if not mentions:
            raise ValueError(f"empty cluster in document {doc_id!r}")
        _set_cluster_doc_id(self, doc_id)
        _set_cluster_mentions(self, mentions)

    @property
    def size(self) -> int:
        return len(self.mentions)

    @property
    def is_singleton(self) -> bool:
        return len(self.mentions) == 1

    def sorted_mentions(self) -> list[Mention]:
        if len(self.mentions) == 1:  # most clusters: no sort key to build
            return list(self.mentions)
        return sorted(self.mentions, key=lambda m: (m.start, m.end, m.concept_type.value))

    def span_key(self) -> tuple[int, int]:
        """Deterministic sort key: position of the earliest member."""
        first = min((m.start, m.end) for m in self.mentions)
        return first

    def concept_type(self) -> ConceptType:
        """Type describing the whole cluster.

        The shared type if all non-None members agree, MIXED if they
        disagree, NONE if every member is a coreference-only mention.
        """
        types = {m.concept_type for m in self.mentions} - {ConceptType.NONE}
        if not types:
            return ConceptType.NONE
        if len(types) == 1:
            return next(iter(types))
        return ConceptType.MIXED


# The __init__ of each slotted value class stores its fields through the
# slots' member descriptors, which a frozen class's __setattr__ cannot block
# and which cost less than the generated object.__setattr__ per field.
_set_mention_doc_id = Mention.doc_id.__set__
_set_mention_start = Mention.start.__set__
_set_mention_end = Mention.end.__set__
_set_mention_concept_type = Mention.concept_type.__set__
_set_mention_surface = Mention.surface.__set__
_set_mention_source = Mention.source.__set__
_set_cluster_doc_id = CoreferenceCluster.doc_id.__set__
_set_cluster_mentions = CoreferenceCluster.mentions.__set__


@dataclass(frozen=True)
class Document:
    """An abstract with its text, mentions, coreference clusters and domain tag.

    ``entity_links`` optionally maps mentions to external entity identifiers
    (opaque strings, e.g. Wikipedia page titles).
    """

    doc_id: str
    domain: str
    text: str
    mentions: tuple[Mention, ...] = ()
    clusters: tuple[CoreferenceCluster, ...] = ()
    entity_links: dict[Mention, str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "mentions", tuple(self.mentions))
        object.__setattr__(self, "clusters", tuple(self.clusters))
        if self.entity_links is not None and not self.entity_links:
            object.__setattr__(self, "entity_links", None)


@dataclass(frozen=True)
class Corpus:
    """A collection of documents with unique doc_ids."""

    documents: tuple[Document, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def domains(self) -> dict[str, str]:
        return {doc.doc_id: doc.domain for doc in self.documents}


def validate(doc: Document) -> list[str]:
    """Check all document invariants; returns one entry per violation.

    Violations are data, not failures: an empty list means the document is
    well formed. Each entry names the rule and the offending span.
    """
    violations: list[str] = []
    n = len(doc.text)
    seen_keys: set[tuple[str, int, int, ConceptType]] = set()
    for m in doc.mentions:
        if m.doc_id != doc.doc_id:
            violations.append(f"mention doc_id mismatch @ {m.span()} in document {doc.doc_id!r}")
        if not (0 <= m.start < m.end):
            violations.append(f"offset order violated @ {m.span()}")
        elif m.end > n:
            violations.append(f"offset out of range @ {m.span()} for text of length {n}")
        elif doc.text[m.start:m.end] != m.surface:
            violations.append(
                f"surface mismatch @ {m.span()}: {m.surface!r} != {doc.text[m.start:m.end]!r}"
            )
        if m.concept_type is ConceptType.MIXED:
            violations.append(f"mention typed Mixed @ {m.span()}")
        # one-to-one with m.key, without building it through Enum.value
        key = (m.doc_id, m.start, m.end, m.concept_type)
        if key in seen_keys:
            violations.append(f"duplicate mention key @ {m.span()} type {m.concept_type}")
        seen_keys.add(key)

    known = set(doc.mentions)
    cluster_count: Counter[Mention] = Counter()
    for cluster in doc.clusters:
        if cluster.doc_id != doc.doc_id:
            violations.append(
                f"cluster doc_id mismatch: cluster of {cluster.doc_id!r} in document {doc.doc_id!r}"
            )
        for m in cluster.mentions:
            cluster_count[m] += 1
            if m.doc_id != doc.doc_id:
                violations.append(f"cluster member from another document @ {m.span()}")
            if m not in known:
                violations.append(f"cluster member not in document mentions @ {m.span()}")
    overlapping = [(m, k) for m, k in cluster_count.items() if k > 1]
    for m, k in sorted(overlapping, key=lambda kv: (kv[0].start, kv[0].end)):
        violations.append(f"overlapping clusters @ {m.span()}: mention in {k} clusters")
    return violations


#: Domain names that ``kgpop.kg_stats`` uses for its own columns.
_RESERVED_DOMAINS = frozenset({"Total", "MIX"})


def validate_corpus(corpus: Corpus) -> list[str]:
    """Validate every document plus corpus-level uniqueness of doc_ids.

    The domain names ``Total`` and ``MIX`` are reserved for the columns of
    ``kgpop.kg_stats``.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for doc in corpus:
        if doc.doc_id in seen:
            violations.append(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        violations.extend(validate(doc))
        if doc.domain in _RESERVED_DOMAINS:
            violations.append(f"domain name {doc.domain!r} is reserved")
    return violations


def all_clusters(doc: Document) -> tuple[CoreferenceCluster, ...]:
    """Annotated clusters plus one singleton per mention not covered by any.

    For a valid document the result is a partition of ``doc.mentions``:
    annotated clusters first (in document order), then singletons in
    mention order.
    """
    covered: set[Mention] = set()
    for cluster in doc.clusters:
        covered.update(cluster.mentions)
    singletons = tuple(
        CoreferenceCluster(doc.doc_id, frozenset([m])) for m in doc.mentions if m not in covered
    )
    return doc.clusters + singletons


_TYPE_GROUPS = ("Data", "Material", "Method", "Process", "Mixed", "None")

#: Row name of a cluster or mention of ``doc`` with the given type, per grouping.
_GROUPINGS = {
    "concept_type": lambda doc, concept_type: concept_type.value,
    "domain": lambda doc, concept_type: doc.domain,
}


@dataclass(frozen=True)
class StatRow:
    """One row of corpus statistics.

    ``mentions`` counts concept mentions (the four canonical types only);
    ``coreferent_mentions`` counts every mention, including coreference-only
    ones, that sits in a cluster of size >= 2.
    """

    mentions: int = 0
    coreferent_mentions: int = 0
    coreference_clusters: int = 0
    singleton_clusters: int = 0

    @property
    def overall_clusters(self) -> int:
        return self.coreference_clusters + self.singleton_clusters


@dataclass(frozen=True)
class StatsTable:
    group_by: str
    rows: dict[str, StatRow] = field(default_factory=dict)
    total: StatRow = StatRow()

    def to_tsv(self) -> str:
        counts = [f.name for f in fields(StatRow)]
        lines = ["\t".join([self.group_by, *counts, "overall_clusters"])]
        for group, row in [*self.rows.items(), ("Total", self.total)]:
            values = [group, *(getattr(row, c) for c in counts), row.overall_clusters]
            lines.append("\t".join(map(str, values)))
        return "\n".join(lines) + "\n"


def corpus_stats(corpus: Iterable[Document], group_by: str = "concept_type") -> StatsTable:
    """Mention/cluster counts per concept type or per domain, plus totals.

    ``corpus`` may be any iterable of documents; it is iterated once.

    Grouping by concept type, a cluster with disagreeing member types counts
    under Mixed and a cluster of only coreference-found mentions under None.
    The ``mentions`` column always counts concept mentions only, so its
    Mixed/None cells are zero by construction.
    """
    group = _GROUPINGS.get(group_by)
    if group is None:
        raise ValueError(f"unknown grouping {group_by!r}")

    # per group, in StatRow field order: mentions, coreferent_mentions,
    # coreference_clusters, singleton_clusters
    cells: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for doc in corpus:
        for cluster in all_clusters(doc):
            coreferent = not cluster.is_singleton
            cells[group(doc, cluster.concept_type())][2 if coreferent else 3] += 1
            for m in cluster.mentions:
                row = cells[group(doc, m.concept_type)]
                if m.concept_type in CANONICAL_TYPES:
                    row[0] += 1
                if coreferent:
                    row[1] += 1

    names = _TYPE_GROUPS if group_by == "concept_type" else sorted(cells)
    rows = {name: StatRow(*cells[name]) for name in names}
    total = StatRow(*map(sum, zip(*(cells[name] for name in names))))
    return StatsTable(group_by=group_by, rows=rows, total=total)
