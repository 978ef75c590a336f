"""JSONL corpus interchange: one document object per line.

Schema per line:

    {"doc_id": str, "domain": str, "text": str,
     "mentions": [{"start": int, "end": int, "type": str, "source": str}, ...],
     "clusters": [[mention index, ...], ...],
     "entity_links": [[mention index, entity id], ...]}   # optional

Mention surfaces are not stored (they are slices of the text by invariant),
so the round-trip is lossless. ``source`` may be omitted; it then defaults
to ``coref_only`` for type ``None`` and ``concept_extractor`` otherwise.

This module also holds the line handling and field checks, mention entries,
keys and key groups among them, that the package's line-oriented readers
share, so each of those facts is decided in one place.
"""

from __future__ import annotations

import json
import sys
from typing import Iterator

from .errors import ParseError
from .model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionKey,
    MentionSource,
    _RESERVED_DOMAINS,
    concept_type_from_string,
    validate,
)

__all__ = ["write_jsonl", "read_jsonl", "document_to_dict", "document_from_dict"]

_SOURCES = {s.value: s for s in MentionSource}
_MIXED = ConceptType.MIXED  # bound once: an Enum member read off its class costs ~0.1 µs
#: The types a single mention may carry, by name; Mixed is left to the checks.
_MENTION_TYPES = {t.value: t for t in ConceptType if t is not _MIXED}


def document_to_dict(doc: Document) -> dict:
    index = {m: i for i, m in enumerate(doc.mentions)}
    out: dict = {
        "doc_id": doc.doc_id,
        "domain": doc.domain,
        "text": doc.text,
        "mentions": [
            {"start": m.start, "end": m.end, "type": m.concept_type.value, "source": m.source.value}
            for m in doc.mentions
        ],
        "clusters": sorted(sorted(index[m] for m in c.mentions) for c in doc.clusters),
    }
    if doc.entity_links:
        out["entity_links"] = sorted([index[m], e] for m, e in doc.entity_links.items())
    return out


def write_jsonl(corpus: Corpus) -> str:
    lines = [
        json.dumps(document_to_dict(doc), ensure_ascii=False, sort_keys=True) for doc in corpus
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _lines(text: str) -> list[str]:
    r"""Split on ``\n`` only, dropping a trailing ``\r``.

    ``str.splitlines`` would also break on U+2028, U+0085 and other
    separators that JSON strings written with ``ensure_ascii=False`` carry
    unescaped, so it would cut such a line in two.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" not in text:
        return lines
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _long_numeral(what: str, lineno: int) -> ParseError:
    """The error for a numeral that ``int()`` refuses: it has more digits than
    ``sys.get_int_max_str_digits()`` allows."""
    return ParseError(f"{what} has more than {sys.get_int_max_str_digits()} digits", lineno)


def _json_objects(text: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for every non-blank line of a JSONL text."""
    for lineno, line in enumerate(_lines(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
        except ValueError:  # an int past the digit limit: int() refused it
            raise _long_numeral("JSON number", lineno) from None
        if not isinstance(obj, dict):
            raise ParseError("line must be a JSON object", lineno)
        yield lineno, obj


def _expect(obj: dict, field: str, kind, lineno: int):
    if field not in obj:
        raise ParseError(f"missing field {field!r}", lineno)
    value = obj[field]
    # JSON decoding yields exact builtin types, so an exact type check also
    # rejects true/false where an int is expected.
    if type(value) is not kind:
        raise ParseError(f"field {field!r} has wrong type {type(value).__name__}", lineno)
    return value


def _expect_entries(obj: dict, field: str, kind, lineno: int) -> list:
    """The list ``obj[field]``, every entry of which must be a ``kind``."""
    entries = _expect(obj, field, list, lineno)
    for entry in entries:
        if type(entry) is not kind:
            raise ParseError(f"entry of {field!r} has wrong type {type(entry).__name__}", lineno)
    return entries


def _digits(text: str, what: str, lineno: int) -> int:
    """The int spelled by ``text``, which must be ASCII digits only.

    ``int()`` alone would also take a sign, surrounding spaces, ``_``
    separators and non-ASCII digits such as ``٣``; the text readers must
    not silently coerce those.
    """
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} must be ASCII digits, got {text!r}", lineno)
    try:
        return int(text)
    except ValueError:
        raise _long_numeral(what, lineno) from None


def _concept_type(name: str, lineno: int) -> ConceptType:
    try:
        return concept_type_from_string(name)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _expect_source(obj: dict, lineno: int) -> MentionSource:
    name = _expect(obj, "source", str, lineno)
    if name not in _SOURCES:
        raise ParseError(f"unknown mention source {name!r}", lineno)
    return _SOURCES[name]


def _mention_entry(entry: dict, lineno: int) -> tuple[int, int, ConceptType]:
    """Start, end and type of a corpus, gold-KG or KG mention entry: one lookup per field
    for int offsets and a mention type, else the field checks, which word any error."""
    start, end, name = entry.get("start"), entry.get("end"), entry.get("type")
    ctype = _MENTION_TYPES.get(name) if type(name) is str else None
    if ctype is None or type(start) is not int or type(end) is not int:
        start = _expect(entry, "start", int, lineno)
        end = _expect(entry, "end", int, lineno)
        ctype = _concept_type(_expect(entry, "type", str, lineno), lineno)
    return start, end, ctype


def _mention_key(doc_id: str, start: int, end: int, ctype: ConceptType, lineno: int) -> MentionKey:
    """The key of a mention from outside a corpus: ParseError, in ``validate``'s
    words, unless ``0 <= start < end`` and the type is not Mixed."""
    if not 0 <= start < end:
        raise ParseError(f"offset order violated @ {doc_id}[{start},{end})", lineno)
    if ctype is _MIXED:
        raise ParseError(f"mention typed Mixed @ {doc_id}[{start},{end})", lineno)
    return (doc_id, start, end, ctype.value)


def _key_group(keys: list[MentionKey], label: str, seen: set[MentionKey], lineno: int) -> frozenset:
    """``keys`` as a group: non-empty, no key twice, none in ``seen`` (earlier groups' keys)."""
    group = frozenset(keys)
    if not group:
        raise ParseError(f"{label} without mentions", lineno)
    if len(group) != len(keys):
        raise ParseError(f"{label} lists a mention twice", lineno)
    if not seen.isdisjoint(group):
        shared = min(seen & group)
        raise ParseError(f"{label} shares mention {shared} with an earlier group", lineno)
    seen |= group
    return group


def _checked(doc: Document, sound: bool, lineno: int, seen_ids: set[str]) -> Document:
    """The readers' validation boundary: ``doc`` must be valid and its doc_id new.

    A reader checks, while it builds ``doc``, the invariants it does not
    guarantee by construction, and passes the outcome as ``sound``.
    ``validate`` runs only on a document that failed one of them, to word
    its violations.
    """
    if doc.doc_id in seen_ids:
        raise ParseError(f"duplicate doc_id {doc.doc_id!r}", lineno)
    seen_ids.add(doc.doc_id)
    if not sound:
        violations = validate(doc)
        if violations:
            raise ParseError("; ".join(violations), lineno)
    if doc.domain in _RESERVED_DOMAINS:
        raise ParseError(f"domain name {doc.domain!r} is reserved", lineno)
    return doc


def document_from_dict(obj: dict, lineno: int = 0) -> Document:
    return _document_from_dict(obj, lineno)[0]


def _document_from_dict(obj: dict, lineno: int) -> tuple[Document, bool]:
    """The document of one JSONL object, and whether it passed the checks
    ``validate`` would otherwise repeat (see ``_checked``).

    Doc ids, surfaces and cluster membership hold by construction; offsets,
    Mixed types, repeated (start, end, type) keys and a mention in two
    clusters are checked here, on integers.
    """
    doc_id = _expect(obj, "doc_id", str, lineno)
    domain = _expect(obj, "domain", str, lineno)
    text = _expect(obj, "text", str, lineno)
    n = len(text)
    sound = True

    mentions: list[Mention] = []
    keys: set[tuple[int, int, ConceptType]] = set()
    for entry in _expect_entries(obj, "mentions", dict, lineno):
        start, end, ctype = _mention_entry(entry, lineno)
        name = entry.get("source")
        source = _SOURCES.get(name) if type(name) is str else None
        if source is None:  # a missing source defaults by type
            source = _expect_source(entry, lineno) if "source" in entry else (
                MentionSource.COREF_ONLY if ctype is ConceptType.NONE
                else MentionSource.CONCEPT_EXTRACTOR)
        if not 0 <= start < end <= n or ctype is _MIXED:
            sound = False
        keys.add((start, end, ctype))
        mentions.append(Mention(doc_id, start, end, ctype, text[start:end], source))
    if len(keys) != len(mentions):
        sound = False

    clusters: list[CoreferenceCluster] = []
    clustered = bytearray(len(mentions))
    for group in _expect(obj, "clusters", list, lineno):
        if not isinstance(group, list) or not group:
            raise ParseError(f"cluster must be a non-empty list of mention indices", lineno)
        members = []
        for idx in group:
            if type(idx) is not int or not (0 <= idx < len(mentions)):
                raise ParseError(
                    f"mention index {idx!r} out of range (document has {len(mentions)})", lineno
                )
            if clustered[idx]:
                sound = False
            clustered[idx] = 1
            members.append(mentions[idx])
        # Compared as Mentions, not indices: two entries may spell one mention.
        cluster = frozenset(members)
        if len(cluster) != len(members):
            raise ParseError(f"cluster {group!r} lists a mention twice", lineno)
        clusters.append(CoreferenceCluster(doc_id, cluster))

    entity_links: dict[Mention, str] | None = None
    if "entity_links" in obj:
        entity_links = {}
        for pair in _expect(obj, "entity_links", list, lineno):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"entity link must be [index, entity], got {pair!r}", lineno)
            idx, entity = pair
            if type(idx) is not int or not (0 <= idx < len(mentions)):
                raise ParseError(f"entity link index {idx!r} out of range", lineno)
            if not isinstance(entity, str) or not entity:
                raise ParseError(f"entity id must be a non-empty string, got {entity!r}", lineno)
            if entity_links.setdefault(mentions[idx], entity) != entity:
                raise ParseError(f"conflicting entity {entity!r} for mention index {idx}", lineno)

    return Document(
        doc_id=doc_id,
        domain=domain,
        text=text,
        mentions=tuple(mentions),
        clusters=tuple(clusters),
        entity_links=entity_links,
    ), sound


def read_jsonl(text: str) -> Corpus:
    """Parse and validate a JSONL corpus.

    Schema violations, document invariant violations (see ``validate``) and
    repeated doc_ids raise ParseError carrying the document's line number.
    """
    seen: set[str] = set()
    return Corpus(tuple(
        _checked(*_document_from_dict(obj, lineno), lineno, seen)
        for lineno, obj in _json_objects(text)
    ))
