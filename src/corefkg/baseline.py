"""Deterministic string-match coreference baseline.

Clusters the mentions of a document whose normalized labels coincide (using
the document's acronym expansions), so the full population pipeline can run
end-to-end without a learned resolver. Pronouns are never clustered: string
identity is a catastrophically bad signal for them.
"""

from __future__ import annotations

from .model import CoreferenceCluster, Corpus, Document
from .normalize import _Labeler, build_acronym_map

__all__ = ["PRONOUNS", "resolve", "resolve_corpus"]

PRONOUNS = frozenset(
    {"it", "they", "them", "this", "that", "these", "those", "its", "their"}
)


def resolve(doc: Document) -> tuple[CoreferenceCluster, ...]:
    """Partition the document's non-pronoun mentions by normalized label.

    Label-unique mentions stay singletons; mentions whose label is empty
    after normalization never merge. The result is independent of mention
    order.
    """
    return _resolve(doc, _Labeler())


def _resolve(doc: Document, labeler: _Labeler) -> tuple[CoreferenceCluster, ...]:
    acronyms = build_acronym_map(doc.text)
    groups: dict[str, list] = {}
    for m in doc.mentions:
        if m.surface.strip().lower() in PRONOUNS:
            continue
        label = labeler.mention(m.surface, acronyms)
        key = label if label else f"\x00{m.start}:{m.end}:{m.concept_type.value}"
        groups.setdefault(key, []).append(m)
    clusters = [CoreferenceCluster(doc.doc_id, frozenset(ms)) for ms in groups.values()]
    clusters.sort(key=CoreferenceCluster.span_key)
    return tuple(clusters)


def resolve_corpus(corpus: Corpus) -> Corpus:
    """Replace every document's clusters with baseline predictions.

    One labeler serves the whole call, so each distinct surface is expanded
    and normalized once.
    """
    labeler = _Labeler()
    return Corpus(tuple(
        Document(
            doc_id=doc.doc_id,
            domain=doc.domain,
            text=doc.text,
            mentions=doc.mentions,
            clusters=_resolve(doc, labeler),
            entity_links=doc.entity_links,
        )
        for doc in corpus
    ))
