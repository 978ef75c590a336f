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
share, the JSON fragments that the corpus, KG and gold-KG writers share, and
the block and refusal rules of the per-document corpus readers and writers,
so each of those facts is decided in one place.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from itertools import chain, islice
from json.encoder import encode_basestring as _quote
from typing import Iterable, Iterator

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
    _SOURCE_BY_TYPE,
    _doc_id_fault,
    concept_type_from_string,
    validate,
)

__all__ = ["write_jsonl", "read_jsonl", "document_to_dict", "document_from_dict"]

_SOURCES = {s.value: s for s in MentionSource}
_MIXED = ConceptType.MIXED  # bound once: an Enum member read off its class costs ~0.1 µs
#: The types a single mention may carry, by name; Mixed is left to the checks.
_MENTION_TYPES = {t.value: t for t in ConceptType if t is not _MIXED}

# The JSONL writers build each line from fragments. A record's line equals
# json.dumps(record, ensure_ascii=False, sort_keys=True): keys are spelled in
# sorted order with json's ", " and ": " separators, a free string goes
# through ``_quote`` (json's own encoder for ensure_ascii=False) and an int is
# its repr. Header records are written by json.dumps itself, ASCII-escaped.
#: every ConceptType and MentionSource value as a JSON string
_QUOTED = {member: _quote(member.value) for member in (*ConceptType, *MentionSource)}


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


def _document_lines(corpus: Corpus) -> Iterator[str]:
    """The line of each document's ``document_to_dict`` object, newline included."""
    quote, quoted = _quote, _QUOTED
    for doc in corpus:
        index = {m: i for i, m in enumerate(doc.mentions)}
        # a list of lists of ints, whose repr is its JSON
        clusters = repr(sorted([sorted([index[m] for m in c.mentions]) for c in doc.clusters]))
        mentions = ", ".join([
            f'{{"end": {m.end}, "source": {quoted[m.source]}, "start": {m.start}, '
            f'"type": {quoted[m.concept_type]}}}'
            for m in doc.mentions
        ])
        links = ""
        if doc.entity_links:
            pairs = sorted([(index[m], e) for m, e in doc.entity_links.items()])
            links = ', "entity_links": [' + ", ".join([f"[{i}, {quote(e)}]" for i, e in pairs]) + "]"
        yield (f'{{"clusters": {clusters}, "doc_id": {quote(doc.doc_id)}, '
               f'"domain": {quote(doc.domain)}{links}, "mentions": [{mentions}], '
               f'"text": {quote(doc.text)}}}\n')


def write_jsonl(corpus: Corpus) -> str:
    return "".join(_document_lines(corpus))


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


def _not_utf8(exc: UnicodeDecodeError, line: int, path) -> ParseError:
    """The error for bytes of the file at ``path`` that are not UTF-8, at ``line``."""
    return ParseError(f"not UTF-8: {exc.reason} (byte {exc.object[exc.start]:#04x})", line,
                      path=str(path))


def _naming(exc: ParseError, path) -> ParseError:
    """``exc``, or if it names no file and ``path`` is not None, the same fault
    naming ``path``."""
    if exc.path is not None or path is None:
        return exc
    return ParseError(exc.reason, exc.line, path=str(path))


def _read_text(path, *, newlines: bool = True) -> str:
    r"""The UTF-8 text of the file at ``path``, read with one unbuffered read.

    With ``newlines``, ``\r\n`` and a lone ``\r`` become ``\n``, as a file
    opened in text mode reads them; without it the text stays as stored, as
    ``newline=""`` reads it. Bytes that are not UTF-8 raise ParseError naming
    the path and the line (one plus the ``\n`` bytes before the first bad byte).
    """
    with open(path, "rb", buffering=0) as f:
        data = f.readall()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, data.count(b"\n", 0, exc.start) + 1, path) from None
    if newlines and b"\r" in data:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


#: Bytes ``_reading`` reads at once, and then on to the end of their last line.
_CHUNK = 1 << 16


@contextlib.contextmanager
def _reading(path, start: int = 0, stop: int | None = None,
             read_on=None) -> Iterator[Iterator[str]]:
    """The lines of the file at ``path`` from byte offset ``start`` to ``stop``
    (line starts; None is the end of the file), numbered from ``start`` and read
    in chunks of whole lines, each decoded once: for the whole file,
    ``_lines(_read_text(path))``, or its ParseError. Once they reach ``stop``,
    they go on if ``read_on()`` returns true. The lines before a bad byte's
    line are handed on before its fault. A ParseError raised in the body names
    ``path`` unless it names a file, but a bad byte anywhere after the lines
    read wins, as if the whole file were decoded before it is parsed."""
    with open(path, "rb") as f:
        if start:
            f.seek(start)
        line, pending = 1, b""  # one plus the \n bytes before the bytes read and not decoded

        def texts(stop: int | None) -> Iterator[str]:
            nonlocal line, pending
            while True:
                if stop is not None and not pending and f.tell() == stop:  # its lines all read
                    if not (read_on and read_on()):
                        return
                    stop = None
                size = _CHUNK if stop is None else min(_CHUNK, stop - f.tell())
                chunk, pending = pending + f.read(size), b""
                if not chunk:
                    return
                if not chunk.endswith(b"\n"):
                    chunk += f.readline()
                try:
                    text = chunk.decode("utf-8")
                except UnicodeDecodeError as exc:
                    cut = chunk.rfind(b"\n", 0, exc.start) + 1  # where the bad byte's line starts
                    chunk, pending = chunk[:cut], chunk[cut:]  # its line is read again
                    if not cut:
                        raise _not_utf8(exc, line, path) from None
                    text = chunk.decode("utf-8")
                line += chunk.count(b"\n")
                yield text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text

        try:
            yield chain.from_iterable(map(_lines, texts(stop)))
        except ParseError as fault:
            for _ in texts(None):  # the rest of the file, from a bad byte's line if one was met
                pass
            raise _naming(fault, path) from None


def _long_numeral(what: str, lineno: int) -> ParseError:
    """The error for a numeral that ``int()`` refuses: it has more digits than
    ``sys.get_int_max_str_digits()`` allows."""
    return ParseError(f"{what} has more than {sys.get_int_max_str_digits()} digits", lineno)


def _unmarked(line: str) -> None:
    """ParseError at line 1 if ``line``, the first of a table's text, starts
    with a UTF-8 byte-order mark, which would otherwise join its first field."""
    if line.startswith("\ufeff"):
        raise ParseError("text starts with a UTF-8 byte-order mark (BOM)", 1)


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]").search


def _lone_surrogate(line: str, obj) -> bool:
    """Whether ``obj``, decoded from ``line``, holds a lone surrogate, which no
    UTF-8 text can: one raw in the line, or an escape that pairs with none (a
    valid escaped pair decodes to one character)."""
    try:
        if not line.isascii():
            line.encode("utf-8")
        if "\\u" in line and _SURROGATE_ESCAPE(line):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _json_objects(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for every non-blank line of a JSONL text's ``lines``."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply", lineno) from None
        except ValueError:  # an int past the digit limit: int() refused it
            raise _long_numeral("JSON number", lineno) from None
        if not isinstance(obj, dict):
            raise ParseError("line must be a JSON object", lineno)
        # an ASCII line without a \u escape, the common case, holds no surrogate
        if (not line.isascii() or "\\u" in line) and _lone_surrogate(line, obj):
            raise ParseError("lone surrogate in a string: text must be valid Unicode", lineno)
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
    """The readers' validation boundary: ``doc`` must be valid and its doc_id
    new and within the doc_id rule (see ``_doc_id_fault``).

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
    fault = _doc_id_fault(doc.doc_id)
    if fault:
        raise ParseError(f"doc_id {doc.doc_id!r} {fault}", lineno)
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
            source = _expect_source(entry, lineno) if "source" in entry else _SOURCE_BY_TYPE[ctype]
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


def _documents(lines: Iterable[str], seen: set[str] | None = None) -> Iterator[Document]:
    """The checked documents of a JSONL corpus's ``lines``, decoded one at a time.

    Schema violations, document invariant violations (see ``validate``) and
    repeated doc_ids raise ParseError carrying the document's line number,
    when the decoding reaches that line. ``seen`` collects the doc_ids read;
    one already in it is repeated.
    """
    seen = set() if seen is None else seen
    for lineno, obj in _json_objects(lines):
        yield _checked(*_document_from_dict(obj, lineno), lineno, seen)


def read_jsonl(text: str) -> Corpus:
    """Parse and validate a JSONL corpus.

    Schema violations, document invariant violations (see ``validate``) and
    repeated doc_ids raise ParseError carrying the document's line number.
    """
    return Corpus(tuple(_documents(_lines(text))))


#: Documents the corpus readers (this module's and ``brat``'s ``_read_documents``)
#: read before they hand any of them on, records a worker of ``corefkg.parallel``
#: writes at once, and the unit at which it cuts a corpus into ranges. Reading
#: each document between the caller's work on the others cost about 10% more
#: CPU time in ``baseline``, 5% in ``populate`` (10k generated documents) and
#: 10-15% in ``compile-gold`` and ``eval-kg`` (700); in blocks this size they
#: run as fast as from a whole corpus.
_BLOCK = 128


def _in_blocks(documents: Iterator[Document]) -> Iterator[Document]:
    """``documents``, each handed on once the ``_BLOCK`` documents of its block
    are read, so that a fault is raised before any document of its block."""
    while block := list(islice(documents, _BLOCK)):
        yield from block
        del block  # before the next block is read


def _unrefused(records: Iterable[tuple]) -> Iterator[tuple]:
    """The records of a corpus writer's map (``conll._columns``, ``brat._pairs``)
    up to the first refusal, a ``(None, why)`` record; the rest are then read,
    so that a read fault anywhere in the corpus wins, and ValueError(why) is
    raised after the last."""
    records = iter(records)
    for record in records:
        if record[0] is None:
            for _ in records:
                pass
            raise ValueError(record[1])
        yield record


def _read_documents(path, start: int = 0, stop: int | None = None, *,
                    seen: set[str] | None = None, read_on=None) -> Iterator[Document]:
    """``_documents`` of the ``_reading`` of the JSONL file at ``path``, handed
    on in blocks of ``_BLOCK``: for the whole file, ``read_jsonl(_read_text(path))``."""
    with _reading(path, start, stop, read_on) as lines:
        yield from _in_blocks(_documents(lines, seen))
