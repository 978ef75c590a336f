"""Knowledge-graph population: collapsing coreference clusters into concepts.

Two clusters are *collapsable* iff their labels are equal and, under
in-domain collapsing, their documents share a domain. Concepts are the
equivalence classes of that relation (a quotient of the cluster set); each
paper is linked to a concept by one ``mentions`` edge per mention.

Everything here is deterministic: concept ids are content-derived hashes,
and all outputs are sorted, so re-population of the same corpus produces
byte-identical exports regardless of document order.

Every graph is built by one map and one reduce. The map, ``_records``, turns
each document into one record of plain values: its counts for the statistics
table and one record per kept cluster (``_cluster_record``: collapse key,
span key, mention count, typed mentions' types and a payload). The reduce,
``_concept_groups``, groups cluster records into concepts as they arrive and
takes each concept's id and majority type; of a kept cluster it keeps only a
flat member, ``(doc_id, start, end, mention count, payload)``, and its type
names. ``populate`` and ``corefkg populate`` reach it through ``_Population``,
which counts each document as it arrives, ``goldkg.evaluate_population``
directly; ``collapse`` builds the cluster records of the clusters it is given.
Only the clusters kept and the payload differ (see ``_records``). Payloads
other than the library's clusters are plain values, so that a worker can send
its records back with ``marshal`` (see ``corefkg.parallel``). One writer
serves each export format: ``_triples`` writes the N-Triples lines and
``_kg_lines`` the JSONL lines.
"""

from __future__ import annotations

import enum
import hashlib
import json
import urllib.parse
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ParseError
from .jsonl import (_QUOTED, _concept_type, _expect, _expect_entries, _expect_source,
                    _json_objects, _key_group, _lines, _mention_entry, _mention_key, _quote)
from .model import (
    CANONICAL_TYPES,
    ConceptType,
    CoreferenceCluster,
    Document,
    Mention,
    MentionKey,
    MentionSource,
    _TYPE_BY_NAME,
    all_clusters,
)
from .normalize import EMPTY_ACRONYMS, AcronymMap, _Labeler, build_acronym_map

__all__ = [
    "DomainScope",
    "CollapseStrategy",
    "ALL_DOMAINS",
    "Concept",
    "KnowledgeGraph",
    "filter_clusters",
    "collapse",
    "assign_type",
    "populate",
    "kg_stats",
    "KgStats",
    "export_ntriples",
    "export_kg_jsonl",
    "read_kg_jsonl",
]


class DomainScope(enum.Enum):
    CROSS_DOMAIN = "cross_domain"
    IN_DOMAIN = "in_domain"


@dataclass(frozen=True)
class CollapseStrategy:
    """How clusters merge into concepts.

    ``use_coreference=False`` ignores annotated clusters entirely: every
    concept mention is treated as a singleton cluster before collapsing.
    """

    scope: DomainScope = DomainScope.CROSS_DOMAIN
    use_coreference: bool = True

    def clusters(self, doc: Document) -> tuple[CoreferenceCluster, ...]:
        """The clusters of ``doc`` this strategy collapses: annotated plus
        implicit singletons, or one singleton per mention without coreference."""
        if self.use_coreference:
            return all_clusters(doc)
        return tuple(CoreferenceCluster(doc.doc_id, frozenset([m])) for m in doc.mentions)


#: domain_scope value of concepts built under cross-domain collapsing.
ALL_DOMAINS = "ALL"

#: tie-break of ``_majority_type``: Process > Method > Material > Data
_TYPE_PRIORITY = {
    ConceptType.PROCESS.value: 0,
    ConceptType.METHOD.value: 1,
    ConceptType.MATERIAL.value: 2,
    ConceptType.DATA.value: 3,
}
_NONE = ConceptType.NONE
#: each type's name, looked up faster than ``ConceptType.value`` is read
_NAMES = {t: t.value for t in ConceptType}


@dataclass(frozen=True)
class Concept:
    """An equivalence class of clusters sharing one label (and domain scope)."""

    concept_id: str
    label: str
    domain_scope: str
    concept_type: ConceptType
    clusters: tuple[CoreferenceCluster, ...]

    @property
    def n_mentions(self) -> int:
        return sum(c.size for c in self.clusters)

    def doc_ids(self) -> frozenset[str]:
        return frozenset(c.doc_id for c in self.clusters)


@dataclass(frozen=True)
class KnowledgeGraph:
    """Papers, concepts, and one ``mentions`` edge per kept mention."""

    papers: tuple[str, ...]
    concepts: tuple[Concept, ...]
    edges: tuple[tuple[str, str], ...]  # (doc_id, concept_id), one per mention


def _graph(papers: tuple[str, ...], concepts: Iterable[Concept]) -> KnowledgeGraph:
    """Sort the concepts and derive the sorted ``mentions`` edges from them."""
    concepts = sorted(concepts, key=lambda c: (c.domain_scope, c.label, c.concept_id))
    edges = sorted(
        (cluster.doc_id, concept.concept_id)
        for concept in concepts
        for cluster in concept.clusters
        for _ in cluster.mentions
    )
    return KnowledgeGraph(papers=papers, concepts=tuple(concepts), edges=tuple(edges))


def _typed(cluster: CoreferenceCluster) -> tuple[str, ...]:
    """The type names of the cluster's mentions that have a type (not None)."""
    names = _NAMES
    return tuple([names[m.concept_type] for m in cluster.mentions if m.concept_type is not _NONE])


def _majority_type(types: Iterable[str]) -> ConceptType:
    """The most frequent of a concept's mention ``types`` (see ``_typed``),
    None if there is none; ties break by fixed priority Process > Method >
    Material > Data."""
    counts = Counter(types)
    if not counts:
        return _NONE
    return _TYPE_BY_NAME[max(counts, key=lambda t: (counts[t], -_TYPE_PRIORITY[t]))]


def assign_type(concept: Concept) -> ConceptType:
    """Most frequent concept type over the concept's mentions (None excluded)."""
    return _majority_type(chain.from_iterable(map(_typed, concept.clusters)))


def filter_clusters(doc: Document) -> tuple[CoreferenceCluster, ...]:
    """Drop annotated clusters in which every mention is coreference-only.

    Such clusters carry no concept type, so they cannot become KG nodes.
    Coreference-only members of the surviving clusters are retained.
    """
    return tuple(c for c in doc.clusters if not _all_coref_only(c))


def _all_coref_only(cluster: CoreferenceCluster) -> bool:
    return all(m.source is MentionSource.COREF_ONLY for m in cluster.mentions)


def _cluster_record(cluster: CoreferenceCluster, label: str, scope: str, payload) -> tuple:
    """The record of ``cluster`` in the reduce: ``(key, doc_id, span_key,
    size, types, payload)``, with its ``span_key()``, its mention count and
    its ``_typed`` types. ``key`` is ``(scope, label, distinct)``, the key of
    the concept it joins; ``distinct`` is empty unless the label is: such a
    cluster is keyed by its first mention, so it never merges with anything."""
    distinct = ""
    if not label:
        start, end, name = min((m.start, m.end, m.concept_type.value) for m in cluster.mentions)
        distinct = f"{cluster.doc_id}:{start}-{end}:{name}"
    return ((scope, label, distinct), cluster.doc_id, cluster.span_key(), cluster.size,
            _typed(cluster), payload)


def _concept_groups(records: Iterable[tuple]) -> list[tuple[str, str, str, ConceptType, list]]:
    """The concepts of the cluster ``records`` (see ``_cluster_record``), in
    the order of ``KnowledgeGraph.concepts``, as ``(domain_scope, label,
    concept_id, concept_type, members)``, each record dropped once grouped.
    The concept id hashes the key. A concept's members ``(doc_id, start, end,
    size, payload)`` are in the order of ``Concept.clusters``: by doc_id and
    span, and members with equal ones keep the order they came in (the sort is
    stable)."""
    groups = defaultdict(lambda: ([], []))  # key -> (type names, members)
    for key, doc_id, (start, end), size, types, payload in records:
        type_names, members = groups[key]
        type_names.extend(types)
        members.append((doc_id, start, end, size, payload))
    concepts = []
    for key, (type_names, members) in groups.items():
        members.sort(key=itemgetter(0, 1, 2))  # doc_id, span key
        concept_id = hashlib.sha256("\x1f".join(key).encode("utf-8")).hexdigest()[:16]
        concepts.append((*key[:2], concept_id, _majority_type(type_names), members))
    concepts.sort(key=itemgetter(0, 1, 2))
    return concepts


def _concepts(groups: Iterable[tuple[str, str, str, ConceptType, list]]) -> list[Concept]:
    """The ``Concept``s of ``_concept_groups`` whose members carry their cluster."""
    return [Concept(concept_id, label, scope, concept_type, tuple([m[4] for m in members]))
            for scope, label, concept_id, concept_type, members in groups]


def collapse(
    clusters: Iterable[CoreferenceCluster],
    domains: Mapping[str, str],
    strategy: CollapseStrategy,
    acronyms: Mapping[str, AcronymMap] | None = None,
) -> tuple[Concept, ...]:
    """Build the quotient set of ``clusters`` under the collapsable relation.

    ``domains`` maps doc_id to its domain; ``acronyms`` optionally maps
    doc_id to the document's acronym expansions. Clusters whose label
    normalizes to the empty string never merge with anything (each becomes
    its own concept) so a degenerate catch-all node cannot arise. Labels
    follow ``normalize.cluster_label``; one labeler serves the whole call,
    so each distinct surface is expanded and normalized once. The concepts
    come from ``_concept_groups``, as those of ``populate`` do.
    """
    acronyms = acronyms or {}
    labeler = _Labeler()
    cross = strategy.scope is DomainScope.CROSS_DOMAIN
    return tuple(_concepts(_concept_groups(
        _cluster_record(cluster,
                        labeler.cluster(cluster, acronyms.get(cluster.doc_id, EMPTY_ACRONYMS)),
                        ALL_DOMAINS if cross else domains[cluster.doc_id], cluster)
        for cluster in clusters)))


def _kept(gold: bool, payload: Callable[[CoreferenceCluster], object] | None
          ) -> Callable[[CoreferenceCluster], tuple[CoreferenceCluster, object] | None]:
    """The ``keep`` of ``_records`` for ``populate(..., gold=gold)``, each kept
    cluster with its ``payload`` (None without one)."""
    def keep(cluster: CoreferenceCluster) -> tuple[CoreferenceCluster, object] | None:
        if (cluster.concept_type() is _NONE) if gold else _all_coref_only(cluster):
            return None
        return cluster, payload(cluster) if payload else None

    return keep


def populate(
    corpus: Iterable[Document], strategy: CollapseStrategy, *, gold: bool = False
) -> KnowledgeGraph:
    """Populate a knowledge graph from a corpus.

    Clusters found only by coreference (no typed mention) are dropped; with
    ``gold=True`` the source-based filter is bypassed but untyped clusters
    still cannot become nodes. Every kept mention contributes one edge from
    its paper to the concept of its cluster.

    ``corpus`` may be any iterable of documents with distinct doc_ids. It is
    iterated once, in any order, through the map and the reduce that
    ``corefkg populate`` runs (``_records`` and ``_Population``); of each
    document only its record, which holds its kept clusters, is kept, never
    its text.
    """
    population = _Population(_records(corpus, strategy, keep=_kept(gold, lambda c: c)))
    return _graph(tuple(sorted(population.tally.domains)), _concepts(population.concepts))


@dataclass(frozen=True)
class KgStats:
    """Population statistics per domain plus totals, Table-style.

    ``MIX`` aggregates concepts whose mentions span several domains; such a
    concept is excluded from the single-domain columns and counted once in
    the totals. ``reduction_pct`` is 1 - concepts/mentions (percent).
    """

    domains: tuple[str, ...]
    abstracts: dict[str, int]
    mentions: dict[str, int]
    coreferent_mentions: dict[str, int]
    concepts: dict[str, int]
    concepts_by_type: dict[str, dict[str, int]]  # type name -> per-domain counts

    def reduction_pct(self, column: str) -> float | None:
        mentions = self.mentions.get(column, 0)
        if not mentions or column == "MIX":
            return None
        return 100.0 * (1.0 - self.concepts[column] / mentions)

    def columns(self) -> list[str]:
        return [*self.domains, "MIX", "Total"]

    def to_tsv(self) -> str:
        cols = self.columns()
        lines = ["\t".join(["stat", *cols])]

        def row(name: str, values: Mapping[str, int | float | None]) -> str:
            cells = []
            for c in cols:
                v = values.get(c)
                cells.append("-" if v is None else (f"{v:.0f}%" if isinstance(v, float) else str(v)))
            return "\t".join([name, *cells])

        lines.append(row("abstracts", self.abstracts))
        lines.append(row("mentions", self.mentions))
        lines.append(row("coreferent_mentions", self.coreferent_mentions))
        lines.append(row("concepts", self.concepts))
        for type_name in ("Data", "Material", "Method", "Process"):
            lines.append(row(f"concepts_{type_name.lower()}", self.concepts_by_type[type_name]))
        lines.append(row("reduction", {c: self.reduction_pct(c) for c in cols}))
        return "\n".join(lines) + "\n"


def _counts(doc: Document) -> tuple[int, int]:
    """The document's concept mentions and coreferent mentions, as ``kg_stats`` counts them."""
    mentions = sum(m.concept_type in CANONICAL_TYPES for m in doc.mentions)
    coreferent = sum(c.size for c in doc.clusters if c.size >= 2)
    return mentions, coreferent


class _Tally:
    """The per-document counts of ``kg_stats``, taken one document at a time."""

    def __init__(self):
        self.domains: dict[str, str] = {}  # doc_id -> domain
        # domain -> [abstracts, mentions, coreferent mentions]
        self.counts: dict[str, list[int]] = {}

    def count(self, doc_id: str, domain: str, mentions: int, coreferent: int) -> None:
        """Count one document of ``domain`` with these counts (see ``_counts``)."""
        self.domains[doc_id] = domain
        row = self.counts.setdefault(domain, [0, 0, 0])
        row[0] += 1
        row[1] += mentions
        row[2] += coreferent

    def table(self, concepts: Iterable[tuple[Iterable[str], ConceptType]]) -> KgStats:
        """The table of the counted documents and of ``concepts``, each given
        as the doc_ids of its clusters and its type."""
        domains = self.domains
        domain_list = tuple(sorted(self.counts))
        cols = [*domain_list, "MIX"]
        abstracts, mentions, coreferent, counted = (dict.fromkeys(cols, 0) for _ in range(4))
        by_type = {t.value: dict.fromkeys(cols, 0) for t in CANONICAL_TYPES}
        for domain, (n_abstracts, n_mentions, n_coreferent) in self.counts.items():
            abstracts[domain] = n_abstracts
            mentions[domain] = n_mentions
            coreferent[domain] = n_coreferent

        for doc_ids, concept_type in concepts:
            concept_domains = {domains[d] for d in doc_ids}
            column = next(iter(concept_domains)) if len(concept_domains) == 1 else "MIX"
            counted[column] += 1
            if concept_type in CANONICAL_TYPES:
                by_type[concept_type.value][column] += 1

        for row in (abstracts, mentions, coreferent, counted, *by_type.values()):
            row["Total"] = sum(row.values())
        return KgStats(
            domains=domain_list,
            abstracts=abstracts,
            mentions=mentions,
            coreferent_mentions=coreferent,
            concepts=counted,
            concepts_by_type=by_type,
        )


def kg_stats(kg: KnowledgeGraph, corpus: Iterable[Document]) -> KgStats:
    """Per-domain counts for a populated graph; each row's Total sums its cells.

    ``corpus`` is iterated once, as in ``populate``.
    """
    tally = _Tally()
    for doc in corpus:
        tally.count(doc.doc_id, doc.domain, *_counts(doc))
    return tally.table((concept.doc_ids(), concept.concept_type) for concept in kg.concepts)


class _Iris(dict):
    """IRIs under one prefix, keyed by value: each value is quoted once."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, value: str) -> str:
        iri = self[value] = f"<{self.prefix}:{urllib.parse.quote(value, safe='/._-~')}>"
        return iri


def _literal(value: str) -> str:
    escaped = (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
    )
    return f'"{escaped}"'


def _triples(edges: Iterable[tuple[str, str]],
             concepts: Iterable[tuple[str, str, ConceptType]]) -> Iterator[str]:
    """The N-Triples lines of ``edges`` (doc_id, concept_id) and of ``concepts``
    (concept_id, label, type), sorted, each with its newline."""
    papers, iris = _Iris("paper"), _Iris("concept")
    lines: list[str] = []
    for doc_id, concept_id in edges:
        lines.append(f"{papers[doc_id]} <rel:mentions> {iris[concept_id]} .")
    for concept_id, label, concept_type in concepts:
        subject = iris[concept_id]
        lines.append(f"{subject} <rel:label> {_literal(label)} .")
        lines.append(f"{subject} <rel:type> {_literal(concept_type.value)} .")
    del papers, iris  # before the sort, where the export peaks in memory
    lines.sort()
    for line in lines:
        yield line + "\n"


def export_ntriples(kg: KnowledgeGraph) -> str:
    """Deterministic N-Triples export, one line per triple, sorted.

    Each edge becomes a ``mentions`` triple (repeated edges stay repeated to
    preserve mention counts); each concept contributes label and type triples.
    """
    return "".join(_triples(kg.edges,
                            ((c.concept_id, c.label, c.concept_type) for c in kg.concepts)))


def _cluster_fragment(cluster: CoreferenceCluster) -> str:
    """The cluster's object in a concept line of the JSONL export."""
    quote, quoted = _quote, _QUOTED
    return f'{{"doc_id": {quote(cluster.doc_id)}, "mentions": [' + ", ".join([
        f'{{"end": {m.end}, "source": {quoted[m.source]}, "start": {m.start}, '
        f'"surface": {quote(m.surface)}, "type": {quoted[m.concept_type]}}}'
        for m in cluster.sorted_mentions()
    ]) + "]}"


def _kg_lines(papers: Iterable[str], concepts: Iterable[tuple]) -> Iterator[str]:
    """The JSONL export's lines, each with its newline: the header of
    ``papers``, then one line per concept of ``concepts`` (domain_scope,
    label, concept_id, type, its clusters' ``_cluster_fragment``s)."""
    yield json.dumps({"record": "kg", "papers": list(papers)}, sort_keys=True) + "\n"
    quote = _quote
    for scope, label, concept_id, concept_type, fragments in concepts:
        yield (f'{{"clusters": [{", ".join(fragments)}], "concept_id": {quote(concept_id)}, '
               f'"domain_scope": {quote(scope)}, "label": {quote(label)}, '
               f'"record": "concept", "type": {_QUOTED[concept_type]}}}\n')


def export_kg_jsonl(kg: KnowledgeGraph) -> str:
    """JSONL export mirroring the data model; re-importable."""
    return "".join(_kg_lines(kg.papers, (
        (c.domain_scope, c.label, c.concept_id, c.concept_type, map(_cluster_fragment, c.clusters))
        for c in kg.concepts)))


def _records(docs: Iterable[Document], strategy: CollapseStrategy, *,
             keep: Callable[[CoreferenceCluster], tuple[CoreferenceCluster, object] | None]
             ) -> Iterator[tuple]:
    """The map: one record per document, ``(doc_id, domain, mentions,
    coreferent, clusters)``, with the counts of ``_counts`` and, in
    ``strategy.clusters`` order, the ``_cluster_record`` of each cluster and
    payload that ``keep(cluster)`` returns, unless it returns None: ``_kept``
    and the cluster, fragment or None for ``populate``, the gold-universe
    restriction and its mention keys for ``evaluate_population``. One labeler
    serves every document, as one serves a ``collapse`` call.
    """
    labeler = _Labeler()
    cross = strategy.scope is DomainScope.CROSS_DOMAIN
    for doc in docs:
        acronyms = build_acronym_map(doc.text)
        scope = ALL_DOMAINS if cross else doc.domain
        clusters = [
            _cluster_record(cluster, labeler.cluster(cluster, acronyms), scope, payload)
            for cluster, payload in filter(None, map(keep, strategy.clusters(doc)))
        ]
        yield (doc.doc_id, doc.domain, *_counts(doc), clusters)


class _Population:
    """The reduce of ``populate`` over ``_records``: the documents' counts,
    and the ``_concept_groups`` of their cluster records, which may come in
    any document order. Each document is counted, and its records grouped, as
    it arrives."""

    def __init__(self, records: Iterable[tuple]):
        self.tally = _Tally()
        self.concepts = _concept_groups(self._counted(records))

    def _counted(self, records: Iterable[tuple]) -> Iterator[tuple]:
        """The cluster records of ``records``, each document counted as it is read."""
        count = self.tally.count
        for doc_id, domain, mentions, coreferent, clusters in records:
            count(doc_id, domain, mentions, coreferent)
            yield from clusters

    def ntriple_lines(self) -> Iterator[str]:
        """The lines of ``export_ntriples(populate(...))``."""
        edges = ((member[0], concept_id)
                 for _, _, concept_id, _, members in self.concepts
                 for member in members for _ in range(member[3]))
        return _triples(edges, ((c[2], c[1], c[3]) for c in self.concepts))

    def kg_lines(self) -> Iterator[str]:
        """The lines of ``export_kg_jsonl(populate(...))``; the payloads are fragments."""
        return _kg_lines(sorted(self.tally.domains),
                         ((*c[:4], map(itemgetter(4), c[4])) for c in self.concepts))

    def stats(self) -> KgStats:
        """``kg_stats(populate(...), corpus)``."""
        return self.tally.table(([member[0] for member in c[4]], c[3]) for c in self.concepts)


def _concept_from_dict(obj: dict, lineno: int, clustered: set[MentionKey]) -> Concept:
    """One concept record; ``clustered`` holds the keys of earlier clusters and gains its own."""
    clusters = []
    for entry in _expect_entries(obj, "clusters", dict, lineno):
        doc_id = _expect(entry, "doc_id", str, lineno)
        keys, members = [], []
        for m in _expect_entries(entry, "mentions", dict, lineno):
            start, end, ctype = _mention_entry(m, lineno)
            keys.append(_mention_key(doc_id, start, end, ctype, lineno))
            surface = _expect(m, "surface", str, lineno)
            members.append(Mention(doc_id, start, end, ctype, surface, _expect_source(m, lineno)))
        _key_group(keys, f"cluster of {doc_id!r}", clustered, lineno)
        clusters.append(CoreferenceCluster(doc_id, members))
    return Concept(
        concept_id=_expect(obj, "concept_id", str, lineno),
        label=_expect(obj, "label", str, lineno),
        domain_scope=_expect(obj, "domain_scope", str, lineno),
        concept_type=_concept_type(_expect(obj, "type", str, lineno), lineno),
        clusters=tuple(clusters),
    )


def read_kg_jsonl(text: str) -> KnowledgeGraph:
    """Re-import a JSONL knowledge-graph export.

    A malformed record raises ParseError carrying its line number, and so
    does a graph no export can produce: a second header, a header listing a
    paper twice, a repeated concept_id, a mention with offsets out of order
    or typed Mixed, a cluster that is empty or lists a (start, end, type)
    twice or that another cluster lists, or a cluster of a document that is
    not among the papers (reported at the first concept naming it, since the
    header may follow).
    """
    papers: tuple[str, ...] | None = None
    concepts: list[Concept] = []
    concept_ids: set[str] = set()
    clustered: set[MentionKey] = set()
    first_line: dict[str, int] = {}  # cluster doc_id -> first line naming it
    for lineno, obj in _json_objects(_lines(text)):
        record = obj.get("record")
        if record == "kg":
            if papers is not None:
                raise ParseError("repeated kg header record", lineno)
            papers = tuple(_expect_entries(obj, "papers", str, lineno))
            if len(set(papers)) != len(papers):
                twice = next(p for i, p in enumerate(papers) if p in papers[:i])
                raise ParseError(f"kg header lists paper {twice!r} twice", lineno)
        elif record == "concept":
            concept = _concept_from_dict(obj, lineno, clustered)
            if concept.concept_id in concept_ids:
                raise ParseError(f"duplicate concept_id {concept.concept_id!r}", lineno)
            concept_ids.add(concept.concept_id)
            for cluster in concept.clusters:
                first_line.setdefault(cluster.doc_id, lineno)
            concepts.append(concept)
        else:
            raise ParseError(f"unknown record kind {record!r}", lineno)
    if papers is None:
        raise ParseError("missing kg header record")
    unknown = set(first_line).difference(papers)
    if unknown:
        lineno, doc_id = min((first_line[d], d) for d in unknown)
        raise ParseError(f"cluster document {doc_id!r} is not among the papers", lineno)
    return _graph(papers, concepts)
