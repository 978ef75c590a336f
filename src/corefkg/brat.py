"""Reader/writer for BRAT standoff annotation (.txt/.ann file pairs).

Entity lines (``T1<TAB>Material 0 3<TAB>CNN``) become mentions. Coreference
is accepted in two encodings and unioned: binary relation lines
(``R1<TAB>Coreference Arg1:T1 Arg2:T2``) and equivalence lines
(``*<TAB>Coreference T1 T2 T3``) each link their entities, and the clusters
are the connected components of all the links.

Character offsets are Unicode scalar-value counts over the text as stored:
the .txt is read and written without newline translation, so ``\r\n`` is
two characters. Discontinuous spans (offsets containing ';') are rejected.
"""

from __future__ import annotations

import contextlib
import os
import re
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError
from .jsonl import _checked, _in_blocks, _lines, _long_numeral, _read_text, _unrefused
from .metrics import _components
from .model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    _SOURCE_BY_TYPE,
)

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

# [0-9], not \d: \d also matches non-ASCII digits such as ٣, which int() takes.
_T_LINE = re.compile(r"^(T[0-9]+)\t(\S+) ([0-9]+) ([0-9]+)\t(.*)$")
_T_DISCONT = re.compile(r"^(T[0-9]+)\t(\S+) [0-9;, ]*;[0-9;, ]*\t")
# By link line kind: its pattern (the label, then the entity ids) and its faults' word.
_LINK_LINES = {
    "R": (re.compile(r"^R[0-9]+\t(\S+) Arg1:(T[0-9]+) Arg2:(T[0-9]+)\s*$"), "relation"),
    "*": (re.compile(r"^\*\t(\S+)((?: T[0-9]+)+)\s*$"), "equivalence"),
}
# A mention surface on one .ann line: each line break inside it becomes a space.
_ONE_LINE = str.maketrans("\r\n", "  ")


def parse_brat(text: str, ann: str, domain: str = "", *, doc_id: str = "doc") -> Document:
    """Parse one .txt/.ann pair into a validated Document.

    Raises ParseError (with the offending .ann line number) for malformed
    lines, out-of-range offsets, surface mismatches, repeated mention keys,
    discontinuous spans, unknown concept types, numerals longer than
    ``int()`` takes and unsupported record kinds; the other invariants hold
    by construction.
    """
    return _parse_brat(text, ann, domain, doc_id, set())


def _parse_brat(text: str, ann: str, domain: str, doc_id: str, seen: set[str]) -> Document:
    """``parse_brat``; ``seen`` holds the doc_ids read before, and a repeated
    one raises ParseError at the last .ann line, as ``jsonl._checked`` words it."""
    mentions_by_tid: dict[str, Mention] = {}
    seen_keys: set[tuple[int, int, ConceptType]] = set()
    links: dict[int, list[str]] = {}  # the entity ids of each R or * line, by line

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
            ctype = _ENTITY_TYPES.get(type_name)
            if ctype is None:
                raise ParseError(f"unknown concept type {type_name!r}", lineno)
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
        elif kind in _LINK_LINES:
            pattern, word = _LINK_LINES[kind]
            m = pattern.match(line)
            if not m:
                raise ParseError(f"malformed {word} line: {line!r}", lineno)
            label, *ids = m.groups()
            if label != DEFAULT_RELATION_LABEL:
                raise ParseError(f"unsupported {word} type {label!r}", lineno)
            tids = " ".join(ids).split()
            for tid in tids:
                if tid not in mentions_by_tid:
                    raise ParseError(f"{word} references unknown entity {tid}", lineno)
            links[lineno] = tids
        else:
            raise ParseError(f"unsupported record type {kind!r}: {line!r}", lineno)

    clusters = tuple(sorted(
        (CoreferenceCluster(doc_id, frozenset(mentions_by_tid[t] for t in tids))
         for _, tids in _components(links)),
        key=CoreferenceCluster.span_key,
    ))
    mentions = tuple(mentions_by_tid.values())
    doc = Document(doc_id=doc_id, domain=domain, text=text, mentions=mentions, clusters=clusters)
    return _checked(doc, True, len(lines), seen)


def write_brat(doc: Document) -> tuple[str, str]:
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
        lines.append(f"*\t{DEFAULT_RELATION_LABEL} {tids}")
    ann = "\n".join(lines) + "\n" if lines else ""
    return doc.text, ann


def _txt_files(root) -> list[tuple[tuple[str, ...], str]]:
    """(components relative to ``root``, parent directory) of every ``*.txt``
    entry, sorted; ParseError if ``root`` is missing or not a directory.

    The files and order of ``sorted(Path(root).rglob("*.txt"))``: any entry
    whose name ends in ``.txt`` counts, symlinked and unreadable directories
    are not entered, and POSIX ``Path`` order is the order of the component
    tuples (``a/x`` sorts before ``a-b/x``, unlike the joined strings).
    """
    if not os.path.isdir(root):
        raise ParseError(f"BRAT root is not a directory: {root}")
    found = []
    for directory, dirs, files in os.walk(root):
        rel = os.path.relpath(directory, root)
        above = () if rel == os.curdir else tuple(rel.split(os.sep))
        found += [((*above, name), directory) for name in dirs + files if name.endswith(".txt")]
    found.sort()
    return found


def read_brat_dir(root: str | Path) -> Corpus:
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
    return Corpus(tuple(_read_documents(root, _txt_files(root))))


def _read_documents(root, files: list[tuple[tuple[str, ...], str]], start: int = 0,
                    stop: int | None = None, *, seen: set[str] | None = None,
                    read_on=None) -> Iterator[Document]:
    """The checked documents of ``files[start:stop]``, the ``_txt_files`` of the
    tree at ``root``, read one file at a time and handed on in blocks of
    ``jsonl._BLOCK``: for all of them, the documents of ``read_brat_dir(root)``, or
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
                text = _read_text(os.path.join(directory, name), newlines=False)
                doc = _parse_brat(text, ann, parts[0] if len(parts) > 1 else "",
                                  "/".join((*parts[:-1], stem)), seen)
            except FileNotFoundError as exc:
                if not exc.filename.endswith(".ann"):
                    raise
                raise ParseError(f"missing annotation file for {Path(root, *parts)}") from None
            except ParseError as exc:
                # named under root as the missing-file fault is: the bad bytes
                # of the .ann or the .txt, which _read_text names, or an .ann line
                file = os.path.basename(exc.path) if exc.path else stem + ".ann"
                raise ParseError(exc.reason, exc.line,
                                 path=str(Path(root, *parts[:-1], file))) from exc
            yield doc

    return _in_blocks(documents())


def write_brat_dir(corpus: Corpus, root: str | Path) -> None:
    """Write a corpus as .txt/.ann pairs under ``root``, one subdir per domain.

    The pairs are written into a staging directory beside ``root`` and move
    into it only once every document is written (``_staged``): ValueError,
    with ``root`` as it was, if ``root`` exists and is not a directory, or
    if a document's path (``<domain>/<doc_id>``,
    normalized without touching the file system; ``.txt`` and ``.ann`` are
    appended to it whole, so a dotted last segment such as ``v1.2`` reads
    back unchanged) holds a null byte, leaves ``root``, would be read back in
    another domain than the document's (``read_brat_dir`` takes the first
    directory of the path, or ``''`` for a file directly under ``root``), is
    shared with another document, or makes a file where another document's
    path needs a directory (``CS/x`` writes ``CS/x.txt``, which ``CS/x.txt/y``
    needs as a directory), or the other way round; the first such document
    in corpus order is the one reported.
    """
    with _staged(root) as staging:
        _written(_pairs(corpus, root, staging), root)


def _target(doc: Document, root) -> str:
    """The path of the pair of ``doc`` under ``root``, less ``.txt``/``.ann``;
    ValueError if ``write_brat_dir`` refuses it on its own, whatever the other
    documents' paths are."""
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
    return stem


def _pairs(docs: Iterable[Document], root, staging: str) -> Iterator[tuple[str | None, str]]:
    """The map of a BRAT output to ``root``: each document's pair written at
    its ``_target`` under ``staging``, and ``(doc_id, target)`` yielded, or
    ``(None, why)`` for a document refused on its own, with nothing written
    (see ``jsonl._unrefused``). Two documents whose targets collide are left
    to ``_written``, which refuses them in corpus order, whichever process
    wrote first: one target, or one path that is a file of one target and a
    directory above the other. The write that the second of them meets fails
    with one of the errors that only such a path raises in the new staging
    directory, and the document's record is yielded all the same."""
    made: set[str] = set()  # the directories known to exist
    for doc in docs:
        try:
            stem = _target(doc, root)
            text, ann = write_brat(doc)
        except ValueError as exc:
            yield None, str(exc)
            continue
        target = os.path.join(staging, stem)
        directory = os.path.dirname(target)
        try:
            if directory not in made:
                os.makedirs(directory, exist_ok=True)
                made.add(directory)
            with open(target + ".txt", "w", encoding="utf-8", newline="") as f:
                f.write(text)
            with open(target + ".ann", "w", encoding="utf-8") as f:
                f.write(ann)
        except (FileExistsError, IsADirectoryError, NotADirectoryError):
            pass  # a collision, which _written refuses
        yield doc.doc_id, stem


def _written(records: Iterable[tuple[str | None, str]], root) -> None:
    """Read the records of ``_pairs`` in corpus order: ValueError, raised once
    the last is read, for the first refusal among them, two documents whose
    targets collide included: one target, or a path that would be a file
    (``.txt`` or ``.ann``) of one target and a directory above the other."""
    targets: dict[str, str] = {}  # target -> the doc_id written there
    paths: dict[str, tuple[bool, str]] = {}  # path -> (a file?, the first target to make it)

    def collision(doc_id: str, stem: str) -> str | None:
        if stem in targets:
            return (f"doc_ids {targets[stem]!r} and {doc_id!r} would both be written to "
                    f"{os.path.join(root, stem)!r}")
        made = [(True, stem + ".txt"), (True, stem + ".ann")]
        directory = os.path.dirname(stem)
        while directory:
            made.append((False, directory))
            directory = os.path.dirname(directory)
        for is_file, path in made:
            other = paths.setdefault(path, (is_file, stem))
            if other[0] != is_file:
                first = other[1]
                return (f"doc_ids {targets[first]!r} and {doc_id!r} would be written to "
                        f"{os.path.join(root, first)!r} and {os.path.join(root, stem)!r}, "
                        f"which need {os.path.join(root, path)!r} to be both a file and a "
                        f"directory")
        targets[stem] = doc_id
        return None

    def shared() -> Iterator[tuple[str | None, str]]:
        for doc_id, stem in records:
            if doc_id is not None:
                why = collision(doc_id, stem)
                if why is not None:
                    doc_id, stem = None, why
            yield doc_id, stem

    for _ in _unrefused(shared()):
        pass


@contextlib.contextmanager
def _staged(root) -> Iterator[str]:
    """A new directory beside ``root`` (beside a symbolic link's target) to
    write a tree into. Once the body returns, the files in it move into
    ``root``, which is made if it does not exist; files of ``root`` that none
    of them replaces are kept. If the body raises, the directory is removed,
    and so are the directories above ``root`` made for it: ``root`` is then as
    it was. So it is if the body writes no file. ValueError, before anything
    is made, if ``root`` exists and is not a directory."""
    import shutil

    target = os.path.realpath(root)
    if os.path.exists(target) and not os.path.isdir(target):
        raise ValueError(f"BRAT output {str(root)!r} exists and is not a directory")
    parent, name = os.path.split(target)
    staging = os.path.join(parent, f".{name}.{os.getpid()}.tmp")
    made = []  # the directories above the target that do not exist, the innermost first
    while not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    moved = False
    try:
        os.makedirs(staging)
        yield staging
        if os.listdir(staging):
            if not os.path.lexists(target):
                os.rename(staging, target)
            else:
                for directory, _, files in os.walk(staging):
                    into = os.path.join(target, os.path.relpath(directory, staging))
                    os.makedirs(os.path.normpath(into), exist_ok=True)
                    for file in files:
                        os.replace(os.path.join(directory, file), os.path.join(into, file))
            moved = True
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        for directory in made if not moved else ():
            try:
                os.rmdir(directory)
            except OSError:
                break
