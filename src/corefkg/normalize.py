"""Cluster label normalization: acronym resolution, determiner stripping,
whitespace collapsing and plural-to-singular conversion.

Two clusters collapse into one KG concept exactly when their labels are
equal, so this module decides the granularity of the populated graph. The
label of a cluster is its longest mention (measured after acronym
expansion), normalized.

A label is a function of the acronym-expanded surface and the lemma
exception table alone. Callers that label many mentions (``resolve_corpus``
and ``kgpop.collapse``) share one ``_Labeler`` per call, which expands and
normalizes each distinct surface once; only a surface that the document's
acronym map can touch is expanded again. No memo lives beyond that call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ParseError
from .jsonl import _reading, _unmarked
from .model import CoreferenceCluster

__all__ = [
    "AcronymMap",
    "build_acronym_map",
    "load_lemma_exceptions",
    "set_default_lemma_exceptions",
    "singularize",
    "normalize_mention",
    "cluster_label",
]

DETERMINERS = frozenset({"a", "an", "the"})
DEMONSTRATIVES = frozenset({"this", "that", "these", "those"})
POSSESSIVES = frozenset({"its", "their", "our", "his", "her"})
_LEADING_STOP = DETERMINERS | DEMONSTRATIVES | POSSESSIVES

_PAREN = re.compile(r"\(([^()]{1,80})\)")


@dataclass(frozen=True)
class AcronymMap:
    """Document-scoped short form -> long form expansions."""

    expansions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for short, long in self.expansions.items():
            if not short:
                raise ValueError("empty short form in acronym map")
            if short == long:
                raise ValueError(f"short form {short!r} maps to itself")

    def __contains__(self, short: str) -> bool:
        return short in self.expansions

    def __len__(self) -> int:
        return len(self.expansions)

    def get(self, short: str, default: str | None = None) -> str | None:
        return self.expansions.get(short, default)

    def items(self):
        return self.expansions.items()


EMPTY_ACRONYMS = AcronymMap({})


def _valid_short_form(candidate: str) -> bool:
    # Schwartz-Hearst candidate conditions: 2-10 characters, at most two
    # words, first character alphanumeric, at least one letter.
    if not (2 <= len(candidate) <= 10):
        return False
    if len(candidate.split()) > 2:
        return False
    if not candidate[0].isalnum():
        return False
    return any(ch.isalpha() for ch in candidate)


def _best_long_form(short: str, window: str) -> str | None:
    # Match the short form's alphanumeric characters right-to-left inside the
    # window; the first character must start a word of the long form.
    s = len(short) - 1
    l = len(window) - 1
    while s >= 0:
        ch = short[s].lower()
        if not ch.isalnum():
            s -= 1
            continue
        while (l >= 0 and window[l].lower() != ch) or (
            s == 0 and l > 0 and window[l - 1].isalnum()
        ):
            l -= 1
        if l < 0:
            return None
        s -= 1
        l -= 1
    start = window.rfind(" ", 0, l + 1) + 1
    return window[start:]


def build_acronym_map(doc_text: str) -> AcronymMap:
    """Extract `long form (SHORT)` definitions from a document.

    Standard Schwartz-Hearst extraction: the candidate inside parentheses
    must pass the short-form test, and each of its characters must be found
    in the window of min(|S|+5, 2|S|) words preceding the parenthesis. The
    first definition of a short form wins; a long form that already contains
    the short form is rejected.
    """
    expansions: dict[str, str] = {}
    for match in _PAREN.finditer(doc_text):
        short = match.group(1).strip()
        if not _valid_short_form(short) or short in expansions:
            continue
        n = min(len(short) + 5, 2 * len(short))
        window = " ".join(doc_text[: match.start()].rsplit(None, n)[-n:])
        if not window:
            continue
        long_form = _best_long_form(short, window)
        if not long_form:
            continue
        long_form = long_form.strip(" ,;:")
        if len(long_form) <= len(short) or short in long_form:
            continue
        expansions[short] = long_form
    return AcronymMap(expansions)


_DEFAULT_EXCEPTIONS: dict[str, str] | None = None


def load_lemma_exceptions(path: str | Path | None = None) -> dict[str, str]:
    """Load a plural -> singular exception table (two-column TSV).

    Without a path, the table shipped with the package is used. Lines
    starting with '#' are comments; any other line that is not two
    tab-separated columns, or that gives a plural a second singular, raises
    ParseError, naming the path and the line, as does a UTF-8 byte-order mark
    before the first line.
    """
    if path is None:
        path = Path(__file__).parent / "data" / "lemma_exceptions.tsv"
    table: dict[str, str] = {}
    with _reading(path) as lines:
        for lineno, line in enumerate(lines, start=1):
            if lineno == 1:
                _unmarked(line)
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected two columns, got {line!r}", lineno)
            plural, singular = (part.strip().lower() for part in parts)
            if table.setdefault(plural, singular) != singular:
                raise ParseError(f"conflicting singular for plural {plural!r}", lineno)
    return table


def _default_exceptions() -> dict[str, str]:
    global _DEFAULT_EXCEPTIONS
    if _DEFAULT_EXCEPTIONS is None:
        _DEFAULT_EXCEPTIONS = load_lemma_exceptions()
    return _DEFAULT_EXCEPTIONS


def set_default_lemma_exceptions(table: Mapping[str, str] | None) -> None:
    """Replace the packaged exception table process-wide; None restores it.

    The CLI's --lemma-exceptions flag sets it for one command and restores
    the packaged table when the command returns.
    """
    global _DEFAULT_EXCEPTIONS
    _DEFAULT_EXCEPTIONS = dict(table) if table is not None else None


def singularize(token: str, exceptions: Mapping[str, str] | None = None) -> str:
    """Rule-based plural -> singular for a single token (returned lowercase).

    Falls back to conservative suffix rules after the exception table, so
    non-plural tokens come back unchanged.
    """
    tok = token.lower()
    table = exceptions if exceptions is not None else _default_exceptions()
    if tok in table:
        return table[tok]
    if len(tok) <= 3:
        return tok
    if tok.endswith(("ss", "us", "is")):
        return tok
    if tok.endswith("ies") and len(tok) >= 5:
        return tok[:-3] + "y"
    if tok.endswith("sses"):
        return tok[:-2]
    if tok.endswith(("xes", "ches", "shes", "oes")):
        return tok[:-2]
    if tok.endswith("s"):
        return tok[:-1]
    return tok


def _expand_acronyms(surface: str, acronyms: AcronymMap) -> str:
    expansions = acronyms.expansions
    stripped = surface.strip()
    expanded = expansions.get(stripped)
    if expanded is not None:
        return expanded
    return " ".join([expansions.get(t) or t for t in stripped.split()])


class _Labeler:
    """Label rules plus two memos: raw surface -> its parts and plain label,
    and acronym-expanded surface -> label.

    A label depends only on the expanded surface and the exception table,
    and a surface whose stripped form and tokens are all absent from the
    document's acronym map expands to its whitespace-collapsed self. So one
    labeler expands and normalizes each distinct surface once, and expands
    again only a surface the map can touch. Its scope is one call:
    ``normalize_mention`` and ``cluster_label`` make a fresh labeler per
    call, and ``resolve_corpus`` and ``collapse`` one per call for all the
    mentions they label. Nothing outlives that call, so a table swapped with
    ``set_default_lemma_exceptions`` applies from the next call.
    """

    def __init__(self):
        self._exceptions = _default_exceptions()
        self._labels: dict[str, str] = {}
        # raw surface -> (stripped, tokens, whitespace-collapsed, its label)
        self._surfaces: dict[str, tuple[str, tuple[str, ...], str, str]] = {}

    def _normalize(self, expanded: str) -> str:
        label = self._labels.get(expanded)
        if label is not None:
            return label
        tokens = expanded.lower().split()
        while tokens and tokens[0] in _LEADING_STOP:
            tokens = tokens[1:]
        cleaned: list[str] = []
        for tok in tokens:
            for suffix in ("'s", "’s", "'", "’"):
                if tok.endswith(suffix):
                    tok = tok[: -len(suffix)]
                    break
            if tok:
                cleaned.append(singularize(tok, self._exceptions))
        label = self._labels[expanded] = " ".join(cleaned)
        return label

    def _parts(self, surface: str) -> tuple[str, tuple[str, ...], str, str]:
        parts = self._surfaces.get(surface)
        if parts is None:
            stripped = surface.strip()
            tokens = stripped.split()
            collapsed = " ".join(tokens)
            if collapsed == stripped:
                collapsed = stripped  # share the string the mentions hold
            # A lone token is the stripped surface itself, which is looked up
            # in the acronym map anyway, so tokens are kept only when several.
            kept = tuple(tokens) if len(tokens) > 1 else ()
            parts = (stripped, kept, collapsed, self._normalize(collapsed))
            self._surfaces[surface] = parts
        return parts

    def _expanded(self, surface: str, acronyms: AcronymMap) -> str:
        stripped, tokens, collapsed, _ = self._parts(surface)
        expansions = acronyms.expansions
        if stripped in expansions or not expansions.keys().isdisjoint(tokens):
            return _expand_acronyms(surface, acronyms)
        return collapsed

    def mention(self, surface: str, acronyms: AcronymMap) -> str:
        stripped, tokens, _, label = self._parts(surface)
        expansions = acronyms.expansions
        if stripped in expansions or not expansions.keys().isdisjoint(tokens):
            return self._normalize(_expand_acronyms(surface, acronyms))
        return label

    def cluster(self, cluster: CoreferenceCluster, acronyms: AcronymMap) -> str:
        if len(cluster.mentions) == 1:  # the lone mention is the longest
            for m in cluster.mentions:
                return self.mention(m.surface, acronyms)
        # Each mention is expanded once; the winner's expansion is the one
        # normalized. Equal (start, end, surface) imply equal expansions.
        best = min(
            (-len(expanded), m.start, m.end, m.surface, expanded)
            for m in cluster.mentions
            for expanded in (self._expanded(m.surface, acronyms),)
        )
        return self._normalize(best[-1])


def normalize_mention(surface: str, acronyms: AcronymMap = EMPTY_ACRONYMS) -> str:
    """Normalize a mention surface into a label.

    Pipeline: acronym expansion (whole surface or per token), lower-casing,
    stripping of leading determiners/demonstratives/possessives and trailing
    possessive markers, whitespace collapsing, and per-token singularization.
    Labels are idempotent under this function.
    """
    return _Labeler().mention(surface, acronyms)


def cluster_label(cluster: CoreferenceCluster, acronyms: AcronymMap = EMPTY_ACRONYMS) -> str:
    """Label of a cluster: its longest mention, normalized.

    Length is measured in characters after acronym expansion, so an
    acronym-only cluster still yields an informative label; ties break by
    earliest start offset.
    """
    return _Labeler().cluster(cluster, acronyms)
