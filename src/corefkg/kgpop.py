"""Knowledge-graph population: collapsing coreference clusters into concepts.

Two clusters are *collapsable* iff their labels are equal and, under
in-domain collapsing, their documents share a domain. Concepts are the
equivalence classes of that relation (a quotient of the cluster set); each
paper is linked to a concept by one ``mentions`` edge per mention.

Everything here is deterministic: concept ids are content-derived hashes,
and all outputs are sorted, so re-population of the same corpus produces
byte-identical exports regardless of document order.
"""

from __future__ import annotations

import enum
import hashlib
import json
import urllib.parse
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ParseError
from .jsonl import (_QUOTED, _concept_type, _expect, _expect_entries, _expect_source,
                    _json_objects, _key_group, _lines, _mention_entry, _mention_key, _quote)
from .model import (
    CANONICAL_TYPES,
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionKey,
    MentionSource,
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
    "acronym_maps",
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

_TYPE_PRIORITY = {
    ConceptType.PROCESS: 0,
    ConceptType.METHOD: 1,
    ConceptType.MATERIAL: 2,
    ConceptType.DATA: 3,
}


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


def _majority_type(mentions: Iterable[Mention]) -> ConceptType:
    counts = Counter(
        m.concept_type for m in mentions if m.concept_type is not ConceptType.NONE
    )
    if not counts:
        return ConceptType.NONE
    # majority wins; ties break by fixed priority Process > Method > Material > Data
    return max(counts, key=lambda t: (counts[t], -_TYPE_PRIORITY[t]))


def assign_type(concept: Concept) -> ConceptType:
    """Most frequent concept type over the concept's mentions (None excluded)."""
    return _majority_type(m for c in concept.clusters for m in c.mentions)


def filter_clusters(doc: Document) -> tuple[CoreferenceCluster, ...]:
    """Drop annotated clusters in which every mention is coreference-only.

    Such clusters carry no concept type, so they cannot become KG nodes.
    Coreference-only members of the surviving clusters are retained.
    """
    return tuple(c for c in doc.clusters if not _all_coref_only(c))


def _all_coref_only(cluster: CoreferenceCluster) -> bool:
    return all(m.source is MentionSource.COREF_ONLY for m in cluster.mentions)


def _concept_id(label: str, domain_scope: str, distinct: str = "") -> str:
    payload = "\x1f".join((domain_scope, label, distinct))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


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
    so each distinct surface is expanded and normalized once.
    """
    acronyms = acronyms or {}
    labeler = _Labeler()
    groups: dict[tuple[str, str, str], list[CoreferenceCluster]] = {}
    for cluster in clusters:
        label = labeler.cluster(cluster, acronyms.get(cluster.doc_id, EMPTY_ACRONYMS))
        scope = (
            ALL_DOMAINS
            if strategy.scope is DomainScope.CROSS_DOMAIN
            else domains[cluster.doc_id]
        )
        if label:
            key = (scope, label, "")
        else:
            first = min((m.start, m.end, m.concept_type.value) for m in cluster.mentions)
            key = (scope, label, f"{cluster.doc_id}:{first[0]}-{first[1]}:{first[2]}")
        groups.setdefault(key, []).append(cluster)

    concepts = []
    for (scope, label, distinct), members in groups.items():
        members = sorted(members, key=lambda c: (c.doc_id, c.span_key()))
        concepts.append(
            Concept(
                concept_id=_concept_id(label, scope, distinct),
                label=label,
                domain_scope=scope,
                concept_type=_majority_type(m for c in members for m in c.mentions),
                clusters=tuple(members),
            )
        )
    concepts.sort(key=lambda c: (c.domain_scope, c.label, c.concept_id))
    return tuple(concepts)


def _kept(cluster: CoreferenceCluster, gold: bool) -> bool:
    if gold:
        return cluster.concept_type() is not ConceptType.NONE
    return not _all_coref_only(cluster)


def acronym_maps(corpus: Corpus) -> dict[str, AcronymMap]:
    """Each document's acronym expansions, keyed by doc_id (see ``collapse``)."""
    return {doc.doc_id: build_acronym_map(doc.text) for doc in corpus}


def populate(
    corpus: Iterable[Document], strategy: CollapseStrategy, *, gold: bool = False
) -> KnowledgeGraph:
    """Populate a knowledge graph from a corpus.

    Clusters found only by coreference (no typed mention) are dropped; with
    ``gold=True`` the source-based filter is bypassed but untyped clusters
    still cannot become nodes. Every kept mention contributes one edge from
    its paper to the concept of its cluster.

    ``corpus`` may be any iterable of documents with distinct doc_ids. It is
    iterated once, in any order, and of each document only its domain,
    acronym map (if not empty) and kept clusters are kept, never its text.
    """
    domains: dict[str, str] = {}
    acronyms: dict[str, AcronymMap] = {}
    kept: list[CoreferenceCluster] = []
    for doc in corpus:
        domains[doc.doc_id] = doc.domain
        acronym_map = build_acronym_map(doc.text)
        if acronym_map.expansions:  # collapse reads a missing map as empty
            acronyms[doc.doc_id] = acronym_map
        kept += [c for c in strategy.clusters(doc) if _kept(c, gold)]
    concepts = collapse(kept, domains, strategy, acronyms)
    return _graph(tuple(sorted(domains)), concepts)


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


class _Tally:
    """The per-document counts of ``kg_stats``, taken one document at a time."""

    def __init__(self):
        self.domains: dict[str, str] = {}  # doc_id -> domain
        # domain -> [abstracts, mentions, coreferent mentions]
        self.counts: dict[str, list[int]] = {}

    def add(self, doc: Document) -> Document:
        """Count ``doc`` and return it, so that ``map(tally.add, docs)``
        counts documents as they stream past."""
        self.domains[doc.doc_id] = doc.domain
        row = self.counts.setdefault(doc.domain, [0, 0, 0])
        row[0] += 1
        for m in doc.mentions:
            if m.concept_type in CANONICAL_TYPES:
                row[1] += 1
        for cluster in doc.clusters:
            if cluster.size >= 2:
                row[2] += cluster.size
        return doc

    def stats(self, kg: KnowledgeGraph) -> KgStats:
        """The table of ``kg``, populated from the counted documents."""
        domains = self.domains
        domain_list = tuple(sorted(self.counts))
        cols = [*domain_list, "MIX"]
        abstracts, mentions, coreferent, concepts = (dict.fromkeys(cols, 0) for _ in range(4))
        by_type = {t.value: dict.fromkeys(cols, 0) for t in CANONICAL_TYPES}
        for domain, (n_abstracts, n_mentions, n_coreferent) in self.counts.items():
            abstracts[domain] = n_abstracts
            mentions[domain] = n_mentions
            coreferent[domain] = n_coreferent

        for concept in kg.concepts:
            concept_domains = {domains[d] for d in concept.doc_ids()}
            column = next(iter(concept_domains)) if len(concept_domains) == 1 else "MIX"
            concepts[column] += 1
            if concept.concept_type in CANONICAL_TYPES:
                by_type[concept.concept_type.value][column] += 1

        for row in (abstracts, mentions, coreferent, concepts, *by_type.values()):
            row["Total"] = sum(row.values())
        return KgStats(
            domains=domain_list,
            abstracts=abstracts,
            mentions=mentions,
            coreferent_mentions=coreferent,
            concepts=concepts,
            concepts_by_type=by_type,
        )


def kg_stats(kg: KnowledgeGraph, corpus: Iterable[Document]) -> KgStats:
    """Per-domain counts for a populated graph; each row's Total sums its cells.

    ``corpus`` is iterated once, as in ``populate``.
    """
    tally = _Tally()
    for doc in corpus:
        tally.add(doc)
    return tally.stats(kg)


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


def _ntriple_lines(kg: KnowledgeGraph) -> Iterator[str]:
    """The lines of ``export_ntriples``, sorted, each with its newline."""
    papers, concepts = _Iris("paper"), _Iris("concept")
    lines: list[str] = []
    for doc_id, concept_id in kg.edges:
        lines.append(f"{papers[doc_id]} <rel:mentions> {concepts[concept_id]} .")
    for concept in kg.concepts:
        subject = concepts[concept.concept_id]
        lines.append(f"{subject} <rel:label> {_literal(concept.label)} .")
        lines.append(f"{subject} <rel:type> {_literal(concept.concept_type.value)} .")
    del papers, concepts  # before the sort, where the export peaks in memory
    lines.sort()
    for line in lines:
        yield line + "\n"


def export_ntriples(kg: KnowledgeGraph) -> str:
    """Deterministic N-Triples export, one line per triple, sorted.

    Each edge becomes a ``mentions`` triple (repeated edges stay repeated to
    preserve mention counts); each concept contributes label and type triples.
    """
    return "".join(_ntriple_lines(kg))


def _kg_lines(kg: KnowledgeGraph) -> Iterator[str]:
    """The header line, then one line per concept, each with its newline."""
    quote, quoted = _quote, _QUOTED
    yield json.dumps({"record": "kg", "papers": list(kg.papers)}, sort_keys=True) + "\n"
    for concept in kg.concepts:
        clusters = ", ".join([
            f'{{"doc_id": {quote(cluster.doc_id)}, "mentions": [' + ", ".join([
                f'{{"end": {m.end}, "source": {quoted[m.source]}, "start": {m.start}, '
                f'"surface": {quote(m.surface)}, "type": {quoted[m.concept_type]}}}'
                for m in cluster.sorted_mentions()
            ]) + "]}"
            for cluster in concept.clusters
        ])
        yield (f'{{"clusters": [{clusters}], "concept_id": {quote(concept.concept_id)}, '
               f'"domain_scope": {quote(concept.domain_scope)}, "label": {quote(concept.label)}, '
               f'"record": "concept", "type": {quoted[concept.concept_type]}}}\n')


def export_kg_jsonl(kg: KnowledgeGraph) -> str:
    """JSONL export mirroring the data model; re-importable."""
    return "".join(_kg_lines(kg))


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
