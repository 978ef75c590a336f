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
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ParseError, ValidationError
from .jsonl import (_concept_type, _digits, _expect, _expect_entries, _json_objects, _key_group,
                    _lines, _mention_entry, _mention_key, _quote)
from .kgpop import CollapseStrategy, _concept_groups, _records
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


def compile_gold(corpus: Iterable[Document]) -> GoldKg:
    """Compile the gold KG from the documents of a corpus carrying entity
    links, iterated once.

    Considers every cluster (annotated plus implicit singletons); keeps a
    cluster iff each member is linked and all links agree, then merges kept
    clusters per entity. Mentions without links are silently excluded. The
    map and reduce of ``corefkg compile-gold`` (``_gold_records``, ``_gold``)
    run in this process.
    """
    return _gold(_gold_records(corpus, {}), {}, skip_unmatched=False)


def _doc_links(doc: Document, links: Mapping[MentionKey, str]
               ) -> tuple[dict[Mention, str], list[MentionKey]]:
    """The entity links of ``doc``, its own overridden by those of ``links``,
    and the keys of ``links`` that name a mention of it."""
    doc_links: dict[Mention, str] = dict(doc.entity_links or {})
    matched = []
    if links:
        for m in doc.mentions:
            key = m.key
            entity = links.get(key)
            if entity is not None:
                doc_links[m] = entity
                matched.append(key)
    return doc_links, matched


def _gold_records(docs: Iterable[Document], links: Mapping[MentionKey, str]) -> Iterator[tuple]:
    """The map of ``compile_gold``: per document linked as ``_doc_links`` links
    it, ``(clusters, matched)``, the ``(entity, mention keys, is_singleton)``
    of each kept cluster and the keys of ``links`` it matched, all plain
    values that ``marshal`` carries (see ``corefkg.parallel``)."""
    for doc in docs:
        doc_links, matched = _doc_links(doc, links)
        clusters = []
        if doc_links:
            for cluster in all_clusters(doc):
                entities = {doc_links.get(m) for m in cluster.mentions}
                if len(entities) != 1 or None in entities:
                    continue
                clusters.append((next(iter(entities)), [m.key for m in cluster.mentions],
                                 cluster.is_singleton))
        yield clusters, matched


def _gold(records: Iterable[tuple], links: Mapping[MentionKey, str], *,
          skip_unmatched: bool) -> GoldKg:
    """The reduce of ``compile_gold`` over ``_gold_records``: kept clusters
    merged per entity. Once the last record is read, keys of ``links`` that
    matched no mention raise ValidationError unless ``skip_unmatched`` is set."""
    by_entity: dict[str, set[MentionKey]] = {}
    matched: set[MentionKey] = set()
    kept = singleton = 0
    for clusters, keys in records:
        matched.update(keys)
        for entity, mentions, is_singleton in clusters:
            kept += 1
            singleton += is_singleton
            by_entity.setdefault(entity, set()).update(mentions)
    if not skip_unmatched:
        _check_matched(links, matched)
    concepts = tuple(
        GoldConcept(entity=e, mentions=frozenset(ms))
        for e, ms in sorted(by_entity.items())
    )
    return GoldKg(concepts=concepts, n_clusters_kept=kept, n_singleton_clusters=singleton)


def _check_matched(links: Mapping[MentionKey, str], matched: set[MentionKey]) -> None:
    """ValidationError if a key of ``links`` is not among the ``matched``."""
    if len(matched) < len(links):
        unmatched = set(links) - matched
        sample = ", ".join(map(str, sorted(unmatched)[:3]))
        raise ValidationError(
            [f"entity link matches no mention: {sample} ({len(unmatched)} total)"]
        )


def _gold_lines(gold: GoldKg) -> Iterator[str]:
    """The header line, then one line per concept, each with its newline."""
    header = {
        "record": "gold_kg",
        "clusters_kept": gold.n_clusters_kept,
        "singleton_clusters": gold.n_singleton_clusters,
    }
    yield json.dumps(header, sort_keys=True) + "\n"
    for concept in gold.concepts:
        mentions = ", ".join([
            f'{{"doc_id": {_quote(d)}, "end": {e}, "start": {s}, "type": {_quote(t)}}}'
            for d, s, e, t in concept.sorted_mentions()
        ])
        yield f'{{"entity": {_quote(concept.entity)}, "mentions": [{mentions}]}}\n'


def write_gold_jsonl(gold: GoldKg) -> str:
    """One concept per line: {entity, mentions: [{doc_id, start, end, type}]}."""
    return "".join(_gold_lines(gold))


def read_gold_jsonl(text: str) -> GoldKg:
    """Parse a gold KG; a malformed line raises ParseError with its number, and so does
    a second header, header counts that break 0 <= singleton_clusters <= clusters_kept,
    a repeated entity, a mention with offsets out of order or typed Mixed, or a concept
    that is empty, lists a mention twice or shares one."""
    return _gold_kg(_lines(text))


def _gold_kg(lines: Iterable[str]) -> GoldKg:
    """``read_gold_jsonl`` of a gold KG's ``lines``; each doc_id is one string."""
    concepts: list[GoldConcept] = []
    seen: set[MentionKey] = set()
    entities: set[str] = set()
    share = {}.setdefault
    header: tuple[int, int] | None = None
    for lineno, obj in _json_objects(lines):
        if obj.get("record") == "gold_kg":
            if header is not None:
                raise ParseError("repeated gold_kg header record", lineno)
            header = (_expect(obj, "clusters_kept", int, lineno),
                      _expect(obj, "singleton_clusters", int, lineno))
            if not 0 <= header[1] <= header[0]:
                raise ParseError("gold_kg header needs 0 <= singleton_clusters <= clusters_kept,"
                                 f" got {header[1]} and {header[0]}", lineno)
            continue
        entity = _expect(obj, "entity", str, lineno)
        if entity in entities:
            raise ParseError(f"duplicate gold concept entity {entity!r}", lineno)
        entities.add(entity)
        keys = []
        for m in _expect_entries(obj, "mentions", dict, lineno):
            doc_id = _expect(m, "doc_id", str, lineno)
            keys.append(_mention_key(share(doc_id, doc_id), *_mention_entry(m, lineno), lineno))
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
    return _entity_links(_lines(text))


def _entity_links(lines: Iterable[str]) -> dict[MentionKey, str]:
    """``read_entity_links`` of a file's ``lines``; each doc_id and entity is one string."""
    links: dict[MentionKey, str] = {}
    share = {}.setdefault
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(f"expected 5 tab-separated columns, got {line!r}", lineno)
        if any(p != p.strip() for p in parts):
            raise ParseError(f"field with surrounding whitespace in {line!r}", lineno)
        doc_id, start_s, end_s, type_name, entity = parts
        key = _mention_key(share(doc_id, doc_id), _digits(start_s, "start", lineno),
                           _digits(end_s, "end", lineno), _concept_type(type_name, lineno), lineno)
        if not entity:
            raise ParseError("empty entity id", lineno)
        if key in links and links[key] != entity:
            raise ParseError(f"conflicting entity for mention {key}", lineno)
        links[key] = share(entity, entity)
    return links


def attach_entity_links(
    corpus: Corpus, links: Mapping[MentionKey, str], *, skip_unmatched: bool = False
) -> Corpus:
    """Return a corpus whose documents carry the given entity links.

    Link rows that match no mention raise ValidationError, once every
    document is linked, unless ``skip_unmatched`` is set.
    """
    documents, matched = [], set()
    for doc in corpus:
        doc_links, keys = _doc_links(doc, links)
        documents.append(replace(doc, entity_links=doc_links or None))
        matched.update(keys)
    if not skip_unmatched:
        _check_matched(links, matched)
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
    corpus: Iterable[Document],
    strategy: CollapseStrategy,
    *,
    ceafe_drop_singleton_response_parts: bool = False,
) -> EvalResult:
    """Collapse the corpus clusters restricted to the gold mention universe
    and score the resulting concepts against the gold partition.

    With ``use_coreference=False`` every gold-universe mention becomes a
    singleton cluster first. Raises ValidationError if the corpus does not
    cover the gold mention universe. ``corpus`` is iterated once, through the
    map and reduce that ``corefkg eval-kg`` runs: ``kgpop._records`` with the
    ``_restriction`` to the universe, then ``_evaluated``.
    """
    key = gold.partition()
    universe = key.universe()
    records = _records(corpus, strategy, keep=_restriction(universe))
    return _evaluated(key, universe, records, ceafe_drop_singleton_response_parts)


def _restriction(universe: frozenset[MentionKey]
                 ) -> Callable[[CoreferenceCluster], tuple[CoreferenceCluster, list] | None]:
    """The ``keep`` of ``kgpop._records`` for ``evaluate_population``: each
    cluster restricted to its mentions in ``universe``, with their keys as
    payload, or None if none is in it. Each key is computed once."""
    def restricted(cluster: CoreferenceCluster) -> tuple[CoreferenceCluster, list] | None:
        members, keys = [], []
        for m in cluster.mentions:
            key = m.key
            if key in universe:
                members.append(m)
                keys.append(key)
        return (CoreferenceCluster(cluster.doc_id, members), keys) if keys else None

    return restricted


def _evaluated(key: Partition, universe: frozenset[MentionKey], records: Iterable[tuple],
               ceafe_drop_singleton_response_parts: bool) -> EvalResult:
    """The reduce of ``evaluate_population`` over the ``kgpop._records`` of
    ``_restriction(universe)``, ``universe`` being that of ``key``: the
    records' concepts (``kgpop._concept_groups``), each the keys of its
    members, scored as the response against ``key``."""
    concepts = _concept_groups(chain.from_iterable(r[4] for r in records))
    response = Partition(chain.from_iterable(m[4] for m in c[4]) for c in concepts)
    missing = universe.difference(*response)
    if missing:
        sample = ", ".join(map(str, sorted(missing)[:3]))
        raise ValidationError(
            [f"corpus does not cover the gold mention universe: missing {sample} "
             f"({len(missing)} total)"]
        )

    report = score(
        key,
        response,
        ceafe_drop_singleton_response_parts=ceafe_drop_singleton_response_parts,
    )
    return EvalResult(report=report, n_concepts=len(concepts))
