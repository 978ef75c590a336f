"""Reader/writer for BRAT standoff annotation (.txt/.ann file pairs).

Entity lines (``T1<TAB>Material 0 3<TAB>CNN``) become mentions. Coreference
is accepted in two encodings and unioned: binary relation lines
(``R1<TAB>Coreference Arg1:T1 Arg2:T2``), whose transitive closure forms the
clusters, and equivalence lines (``*<TAB>Coreference T1 T2 T3``), taken as
whole clusters. The relation/equivalence label is configurable because
published corpora do not agree on one.

Character offsets are Unicode scalar-value counts over the text as stored:
the .txt is read and written without newline translation, so ``\r\n`` is
two characters. Discontinuous spans (offsets containing ';') are rejected.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Iterator

from .errors import ParseError
from .jsonl import _checked, _in_blocks, _lines, _long_numeral, _read_text
from .model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
)
from .unionfind import UnionFind

__all__ = [
    "DEFAULT_RELATION_LABEL",
    "COREF_MENTION_LABEL",
    "parse_brat",
    "write_brat",
    "read_brat_dir",
    "write_brat_dir",
]

DEFAULT_RELATION_LABEL = "Coreference"

#: Entity-type label used for mentions that only the coreference annotation
#: contributes (pronouns etc.); they carry no scientific concept type.
COREF_MENTION_LABEL = "CorefMention"

_ENTITY_TYPES = {t.value: t for t in ConceptType if t not in (ConceptType.NONE, ConceptType.MIXED)}
_ENTITY_TYPES[COREF_MENTION_LABEL] = ConceptType.NONE
_SOURCE_BY_TYPE = {
    t: MentionSource.COREF_ONLY if t is ConceptType.NONE else MentionSource.CONCEPT_EXTRACTOR
    for t in ConceptType
}

# [0-9], not \d: \d also matches non-ASCII digits such as ٣, which int() takes.
_T_LINE = re.compile(r"^(T[0-9]+)\t(\S+) ([0-9]+) ([0-9]+)\t(.*)$")
_T_DISCONT = re.compile(r"^(T[0-9]+)\t(\S+) [0-9;, ]*;[0-9;, ]*\t")
_R_LINE = re.compile(r"^R[0-9]+\t(\S+) Arg1:(T[0-9]+) Arg2:(T[0-9]+)\s*$")
_EQUIV_LINE = re.compile(r"^\*\t(\S+)((?: T[0-9]+)+)\s*$")
# A mention surface on one .ann line: each line break inside it becomes a space.
_ONE_LINE = str.maketrans("\r\n", "  ")


def parse_brat(
    text: str,
    ann: str,
    domain: str = "",
    *,
    doc_id: str = "doc",
    relation_label: str = DEFAULT_RELATION_LABEL,
    entity_types: dict[str, ConceptType] | None = None,
) -> Document:
    """Parse one .txt/.ann pair into a validated Document.

    Raises ParseError (with the offending .ann line number) for malformed
    lines, out-of-range offsets, surface mismatches, repeated mention keys,
    discontinuous spans, unknown concept types, numerals longer than
    ``int()`` takes and unsupported record kinds. A mention typed Mixed,
    which only ``entity_types`` can map to, is reported as ``validate``
    words it, at the last .ann line; the other invariants hold by
    construction.
    """
    return _parse_brat(text, ann, domain, doc_id, relation_label, entity_types, set())


def _parse_brat(text: str, ann: str, domain: str, doc_id: str, relation_label: str,
                entity_types: dict[str, ConceptType] | None, seen: set[str]) -> Document:
    """``parse_brat``; ``seen`` holds the doc_ids read before, and a repeated
    one raises ParseError at the last .ann line, as ``jsonl._checked`` words it."""
    types = entity_types if entity_types is not None else _ENTITY_TYPES
    mentions_by_tid: dict[str, Mention] = {}
    order: list[str] = []
    seen_keys: set[tuple[int, int, ConceptType]] = set()
    links: UnionFind | None = None  # built at the first R or * line
    sound = True

    lines = _lines(ann)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):  # annotator notes, ignored
            continue
        kind = line[0]
        if kind == "T":
            m = _T_LINE.match(line)
            if not m:
                # The two patterns share the ``T<n>\t<type> `` head and cannot
                # both match, so testing _T_DISCONT second keeps the message.
                if _T_DISCONT.match(line):
                    raise ParseError("discontinuous span is not supported", lineno)
                raise ParseError(f"malformed entity line: {line!r}", lineno)
            tid, type_name, start_s, end_s, surface = m.groups()
            if tid in mentions_by_tid:
                raise ParseError(f"duplicate entity id {tid}", lineno)
            ctype = types.get(type_name)
            if ctype is None:
                raise ParseError(f"unknown concept type {type_name!r}", lineno)
            if ctype is ConceptType.MIXED:
                sound = False
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:  # past the interpreter's digit limit
                raise _long_numeral("offset", lineno) from None
            # worded as validate words them; the pattern admits no negative offset
            if start >= end:
                raise ParseError(f"offset order violated @ {doc_id}[{start},{end})", lineno)
            if end > len(text):
                raise ParseError(
                    f"offset out of range @ {doc_id}[{start},{end}) for text of length {len(text)}",
                    lineno,
                )
            actual = text[start:end]
            if actual != surface and actual.translate(_ONE_LINE) != surface.translate(_ONE_LINE):
                raise ParseError(
                    f"surface mismatch for {tid}: annotation {surface!r} != text {actual!r}", lineno
                )
            if (start, end, ctype) in seen_keys:
                raise ParseError(
                    f"duplicate mention key @ {doc_id}[{start},{end}) type {ctype}", lineno
                )
            seen_keys.add((start, end, ctype))
            source = _SOURCE_BY_TYPE[ctype]
            mentions_by_tid[tid] = Mention(doc_id, start, end, ctype, actual, source)
            order.append(tid)
        elif kind == "R":
            m = _R_LINE.match(line)
            if not m:
                raise ParseError(f"malformed relation line: {line!r}", lineno)
            label, arg1, arg2 = m.groups()
            if label != relation_label:
                raise ParseError(f"unsupported relation type {label!r}", lineno)
            for tid in (arg1, arg2):
                if tid not in mentions_by_tid:
                    raise ParseError(f"relation references unknown entity {tid}", lineno)
            if links is None:
                links = UnionFind()
            links.union(arg1, arg2)
        elif kind == "*":
            m = _EQUIV_LINE.match(line)
            if not m:
                raise ParseError(f"malformed equivalence line: {line!r}", lineno)
            label, members = m.groups()
            if label != relation_label:
                raise ParseError(f"unsupported equivalence type {label!r}", lineno)
            tids = members.split()
            for tid in tids:
                if tid not in mentions_by_tid:
                    raise ParseError(f"equivalence references unknown entity {tid}", lineno)
            if links is None:
                links = UnionFind()
            for tid in tids:
                links.union(tids[0], tid)
        else:
            raise ParseError(f"unsupported record type {kind!r}: {line!r}", lineno)

    groups = links.groups() if links is not None else []
    clusters = tuple(sorted(
        (CoreferenceCluster(doc_id, frozenset(mentions_by_tid[t] for t in g)) for g in groups),
        key=CoreferenceCluster.span_key,
    ))
    mentions = tuple(mentions_by_tid[t] for t in order)
    doc = Document(doc_id=doc_id, domain=domain, text=text, mentions=mentions, clusters=clusters)
    return _checked(doc, sound, len(lines), seen)


def write_brat(doc: Document, *, relation_label: str = DEFAULT_RELATION_LABEL) -> tuple[str, str]:
    """Serialize a Document to a (text, ann) pair.

    Clusters of size >= 2 are written as equivalence lines; singleton
    clusters are implicit (re-parsing restores them via all_clusters).
    """
    label_by_type = {t: name for name, t in _ENTITY_TYPES.items()}
    tid_by_mention: dict[Mention, str] = {}
    lines: list[str] = []
    for i, m in enumerate(doc.mentions, start=1):
        if m.concept_type is ConceptType.MIXED:
            raise ValueError(f"mention typed Mixed cannot be serialized @ {m.span()}")
        tid = f"T{i}"
        tid_by_mention[m] = tid
        surface = doc.text[m.start:m.end].translate(_ONE_LINE)
        lines.append(f"{tid}\t{label_by_type[m.concept_type]} {m.start} {m.end}\t{surface}")
    for cluster in sorted(
        (c for c in doc.clusters if c.size >= 2), key=CoreferenceCluster.span_key
    ):
        tids = " ".join(tid_by_mention[m] for m in cluster.sorted_mentions())
        lines.append(f"*\t{relation_label} {tids}")
    ann = "\n".join(lines) + "\n" if lines else ""
    return doc.text, ann


def _txt_files(root: str) -> list[tuple[tuple[str, ...], str]]:
    """(components relative to ``root``, parent directory) of every ``*.txt``
    entry, sorted.

    The files and order of ``sorted(Path(root).rglob("*.txt"))``: any entry
    whose name ends in ``.txt`` counts, symlinked and unreadable directories
    are not entered, and POSIX ``Path`` order is the order of the component
    tuples (``a/x`` sorts before ``a-b/x``, unlike the joined strings).
    """
    found = []
    pending: list[tuple[str, tuple[str, ...]]] = [(root, ())]
    while pending:
        directory, dirs = pending.pop()
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    parts = (*dirs, entry.name)
                    if entry.name.endswith(".txt"):
                        found.append((parts, directory))
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((entry.path, parts))
        except PermissionError:
            continue
    found.sort()
    return found


#: Documents ``_read_documents`` reads before it hands any of them on. Reading
#: each document between the work on the others cost 10-15% more time in
#: ``compile-gold`` and ``eval-kg`` (700 generated documents, one process).
#: Blocks of 512 cost no more, but the main process of ``corefkg.parallel``
#: maps its range's last block only after it has waited for the workers:
#: on 2 CPUs, blocks of 128 took 22% off both commands, blocks of 512 9-15%.
_BLOCK = 128


def read_brat_dir(
    root: str | Path,
    *,
    relation_label: str = DEFAULT_RELATION_LABEL,
    entity_types: dict[str, ConceptType] | None = None,
) -> Corpus:
    r"""Read every .txt/.ann pair under ``root`` into a corpus.

    Documents come in ``sorted(Path(root).rglob("*.txt"))`` order: component
    by component, so ``a/x`` precedes ``a-b/x``. Symlinked directories are not
    followed. Each file is read with one unbuffered read and decoded as UTF-8;
    the .txt stays as stored, without newline translation, since BRAT offsets
    count its characters as stored, while the .ann has ``\r\n`` and a lone
    ``\r`` read as ``\n``, as text mode reads them.

    The doc_id is the path relative to ``root`` without extension; the domain
    is the first directory component (empty for flat layouts). Errors name the
    .ann path and line, and a file that is not UTF-8 its own path and line; a
    ``root`` that is missing or not a directory raises ParseError too, and so
    do two files that map to one doc_id (``.txt`` and ``.txt.txt``).
    """
    if not os.path.isdir(root):
        raise ParseError(f"BRAT root is not a directory: {root}")
    return Corpus(tuple(_read_documents(root, _txt_files(os.fspath(root)),
                                        relation_label=relation_label,
                                        entity_types=entity_types)))


def _read_documents(root, files: list[tuple[tuple[str, ...], str]], start: int = 0,
                    stop: int | None = None, *, seen: set[str] | None = None, read_on=None,
                    relation_label: str = DEFAULT_RELATION_LABEL,
                    entity_types: dict[str, ConceptType] | None = None) -> Iterator[Document]:
    """The checked documents of ``files[start:stop]``, the ``_txt_files`` of the
    tree at ``root``, read one file at a time and handed on in blocks of
    ``_BLOCK``: for all of them, the documents of ``read_brat_dir(root)``, or
    its fault, raised once the blocks before the faulty document's block are
    handed on.

    ``seen`` collects the doc_ids read; one already in it is repeated. When
    the reading reaches ``stop``, after every document before it is checked,
    it goes on to the last file if ``read_on()`` returns true.
    """
    seen = set() if seen is None else seen

    def documents() -> Iterator[Document]:
        for index in range(start, len(files)):
            if index == stop and not (read_on and read_on()):
                return
            parts, directory = files[index]
            name = parts[-1]
            # As Path.with_suffix: a bare ".txt" has no suffix, so it keeps its name.
            stem = name[:-4] or name
            try:
                ann = _read_text(os.path.join(directory, stem + ".ann"))
            except FileNotFoundError:
                raise ParseError(f"missing annotation file for {Path(root, *parts)}") from None
            text = _read_text(os.path.join(directory, name), newlines=False)
            try:
                doc = _parse_brat(text, ann, parts[0] if len(parts) > 1 else "",
                                  "/".join((*parts[:-1], stem)), relation_label, entity_types,
                                  seen)
            except ParseError as exc:
                raise ParseError(exc.reason, exc.line,
                                 path=str(Path(root, *parts[:-1], stem + ".ann"))) from exc
            yield doc

    return _in_blocks(documents(), _BLOCK)


def write_brat_dir(
    corpus: Corpus, root: str | Path, *, relation_label: str = DEFAULT_RELATION_LABEL
) -> None:
    """Write a corpus as .txt/.ann pairs under ``root``, one subdir per domain.

    Every target is worked out before any file is written: ValueError if a
    document's path (``<domain>/<doc_id>``, normalized without touching the
    file system; ``.txt`` and ``.ann`` are appended to it whole, so a dotted
    last segment such as ``v1.2`` reads back unchanged) holds a null byte,
    leaves ``root``, would be read back in another domain than the
    document's (``read_brat_dir`` takes the first directory of the path, or
    ``''`` for a file directly under ``root``) or is shared with another
    document.
    """
    root = Path(root)
    targets: dict[str, Document] = {}  # path less ".txt"/".ann" -> its document
    for doc in corpus:
        rel = Path(doc.doc_id)
        if doc.domain and rel.parts[:1] != (doc.domain,):
            rel = Path(doc.domain) / rel
        stem = os.path.normpath(rel)
        if "\0" in stem:
            raise ValueError(f"doc_id {doc.doc_id!r} of domain {doc.domain!r} holds a null "
                             f"byte, which no file name can")
        parts = Path(stem).parts
        if os.path.isabs(stem) or parts[:1] in ((), ("..",)):
            raise ValueError(f"doc_id {doc.doc_id!r} of domain {doc.domain!r} "
                             f"would be written outside {str(root)!r}")
        if (parts[0] if len(parts) > 1 else "") != doc.domain:
            raise ValueError(f"doc_id {doc.doc_id!r} of domain {doc.domain!r} would be written "
                             f"to {os.path.join(root, stem)!r}, which reads back in another domain")
        if stem in targets:
            raise ValueError(f"doc_ids {targets[stem].doc_id!r} and {doc.doc_id!r} would both "
                             f"be written to {os.path.join(root, stem)!r}")
        targets[stem] = doc
    for stem, doc in targets.items():
        text, ann = write_brat(doc, relation_label=relation_label)
        target = os.path.join(root, stem)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        Path(target + ".txt").write_text(text, "utf-8", newline="")
        Path(target + ".ann").write_text(ann, "utf-8")
