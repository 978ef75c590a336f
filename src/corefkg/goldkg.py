"""Gold knowledge graph: compilation from entity-linked mentions, and
evaluation of population strategies against it.

A cluster enters the gold KG only if every one of its mentions is linked and
all links agree on one entity; clusters sharing an entity are merged into
one gold concept. The result is a partition of mention identity 4-tuples,
which serves as the *key* when scoring a population strategy's concepts
(the *response*) with the coreference metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .errors import ParseError, ValidationError
from .jsonl import (_concept_type, _digits, _expect, _expect_entries, _json_objects, _key_group,
                    _lines, _mention_entry, _mention_key)
from .kgpop import CollapseStrategy, acronym_maps, collapse
from .metrics import Partition, ScoreReport, score
from .model import (
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionKey,
    all_clusters,
)

__all__ = [
    "GoldConcept",
    "GoldKg",
    "compile_gold",
    "write_gold_jsonl",
    "read_gold_jsonl",
    "read_entity_links",
    "attach_entity_links",
    "EvalResult",
    "evaluate_population",
]


@dataclass(frozen=True)
class GoldConcept:
    """All mentions linked to one external entity, across documents."""

    entity: str
    mentions: frozenset[MentionKey]

    def sorted_mentions(self) -> list[MentionKey]:
        return sorted(self.mentions)


@dataclass(frozen=True)
class GoldKg:
    concepts: tuple[GoldConcept, ...]
    n_clusters_kept: int
    n_singleton_clusters: int

    def partition(self) -> Partition:
        return Partition(c.mentions for c in self.concepts)

    def mix_count(self, domains: Mapping[str, str]) -> int:
        """Concepts whose mentions span at least two domains."""
        count = 0
        for concept in self.concepts:
            if len({domains[key[0]] for key in concept.mentions}) > 1:
                count += 1
        return count


def compile_gold(corpus: Corpus) -> GoldKg:
    """Compile the gold KG from a corpus carrying entity links.

    Considers every cluster (annotated plus implicit singletons); keeps a
    cluster iff each member is linked and all links agree, then merges kept
    clusters per entity. Mentions without links are silently excluded.
    """
    by_entity: dict[str, set[MentionKey]] = {}
    kept = singleton = 0
    for doc in corpus:
        links = doc.entity_links or {}
        if not links:
            continue
        for cluster in all_clusters(doc):
            entities = {links.get(m) for m in cluster.mentions}
            if len(entities) != 1 or None in entities:
                continue
            entity = next(iter(entities))
            kept += 1
            singleton += 1 if cluster.is_singleton else 0
            by_entity.setdefault(entity, set()).update(m.key for m in cluster.mentions)
    concepts = tuple(
        GoldConcept(entity=e, mentions=frozenset(ms))
        for e, ms in sorted(by_entity.items())
    )
    return GoldKg(concepts=concepts, n_clusters_kept=kept, n_singleton_clusters=singleton)


def write_gold_jsonl(gold: GoldKg) -> str:
    """One concept per line: {entity, mentions: [{doc_id, start, end, type}]}."""
    lines = []
    header = {
        "record": "gold_kg",
        "clusters_kept": gold.n_clusters_kept,
        "singleton_clusters": gold.n_singleton_clusters,
    }
    lines.append(json.dumps(header, sort_keys=True))
    for concept in gold.concepts:
        obj = {
            "entity": concept.entity,
            "mentions": [
                {"doc_id": d, "start": s, "end": e, "type": t}
                for d, s, e, t in concept.sorted_mentions()
            ],
        }
        lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + "\n"


def read_gold_jsonl(text: str) -> GoldKg:
    """Parse a gold KG; a malformed line raises ParseError with its number, and so does
    a second header, a repeated entity, a mention with offsets out of order or typed
    Mixed, or a concept that is empty, lists a mention twice or shares one."""
    concepts: list[GoldConcept] = []
    seen: set[MentionKey] = set()
    entities: set[str] = set()
    header: tuple[int, int] | None = None
    for lineno, obj in _json_objects(text):
        if obj.get("record") == "gold_kg":
            if header is not None:
                raise ParseError("repeated gold_kg header record", lineno)
            header = (_expect(obj, "clusters_kept", int, lineno),
                      _expect(obj, "singleton_clusters", int, lineno))
            continue
        entity = _expect(obj, "entity", str, lineno)
        if entity in entities:
            raise ParseError(f"duplicate gold concept entity {entity!r}", lineno)
        entities.add(entity)
        keys = [_mention_key(_expect(m, "doc_id", str, lineno), *_mention_entry(m, lineno), lineno)
                for m in _expect_entries(obj, "mentions", dict, lineno)]
        mentions = _key_group(keys, f"gold concept {entity!r}", seen, lineno)
        concepts.append(GoldConcept(entity=entity, mentions=mentions))
    kept, singleton = header or (0, 0)
    return GoldKg(
        concepts=tuple(concepts), n_clusters_kept=kept, n_singleton_clusters=singleton
    )


def read_entity_links(text: str) -> dict[MentionKey, str]:
    """Parse an entity-links TSV: doc_id, start, end, type, entity per line.

    Each key must have ``0 <= start < end`` and a mention type (any but Mixed).
    """
    links: dict[MentionKey, str] = {}
    for lineno, line in enumerate(_lines(text), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(f"expected 5 tab-separated columns, got {line!r}", lineno)
        if any(p != p.strip() for p in parts):
            raise ParseError(f"field with surrounding whitespace in {line!r}", lineno)
        doc_id, start_s, end_s, type_name, entity = parts
        key = _mention_key(doc_id, _digits(start_s, "start", lineno), _digits(end_s, "end", lineno),
                           _concept_type(type_name, lineno), lineno)
        if not entity:
            raise ParseError("empty entity id", lineno)
        if key in links and links[key] != entity:
            raise ParseError(f"conflicting entity for mention {key}", lineno)
        links[key] = entity
    return links


def attach_entity_links(
    corpus: Corpus, links: Mapping[MentionKey, str], *, skip_unmatched: bool = False
) -> Corpus:
    """Return a corpus whose documents carry the given entity links.

    Link rows that match no mention raise ValidationError unless
    ``skip_unmatched`` is set.
    """
    matched: set[MentionKey] = set()
    documents = []
    for doc in corpus:
        doc_links: dict[Mention, str] = dict(doc.entity_links or {})
        for m in doc.mentions:
            entity = links.get(m.key)
            if entity is not None:
                doc_links[m] = entity
                matched.add(m.key)
        documents.append(
            Document(
                doc_id=doc.doc_id,
                domain=doc.domain,
                text=doc.text,
                mentions=doc.mentions,
                clusters=doc.clusters,
                entity_links=doc_links or None,
            )
        )
    unmatched = set(links) - matched
    if unmatched and not skip_unmatched:
        sample = ", ".join(map(str, sorted(unmatched)[:3]))
        raise ValidationError(
            [f"entity link matches no mention: {sample} ({len(unmatched)} total)"]
        )
    return Corpus(tuple(documents))


@dataclass(frozen=True)
class EvalResult:
    report: ScoreReport
    n_concepts: int

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out["n_concepts"] = self.n_concepts
        return out


def evaluate_population(
    gold: GoldKg,
    corpus: Corpus,
    strategy: CollapseStrategy,
    *,
    ceafe_drop_singleton_response_parts: bool = False,
) -> EvalResult:
    """Collapse the corpus clusters restricted to the gold mention universe
    and score the resulting concepts against the gold partition.

    With ``use_coreference=False`` every gold-universe mention becomes a
    singleton cluster first. Raises ValidationError if the corpus does not
    cover the gold mention universe.
    """
    key = gold.partition()
    universe = key.universe()
    key_of: dict[Mention, MentionKey] = {}  # each kept mention's key, computed once
    response_clusters: list[CoreferenceCluster] = []
    for doc in corpus:
        for cluster in strategy.clusters(doc):
            members = {m: k for m in cluster.mentions if (k := m.key) in universe}
            if members:
                response_clusters.append(CoreferenceCluster(doc.doc_id, frozenset(members)))
                key_of.update(members)
    missing = universe.difference(key_of.values())
    if missing:
        sample = ", ".join(map(str, sorted(missing)[:3]))
        raise ValidationError(
            [f"corpus does not cover the gold mention universe: missing {sample} "
             f"({len(missing)} total)"]
        )

    concepts = collapse(response_clusters, corpus.domains(), strategy, acronym_maps(corpus))
    response = Partition(
        frozenset(key_of[m] for c in concept.clusters for m in c.mentions) for concept in concepts
    )
    report = score(
        key,
        response,
        ceafe_drop_singleton_response_parts=ceafe_drop_singleton_response_parts,
    )
    return EvalResult(report=report, n_concepts=len(concepts))
