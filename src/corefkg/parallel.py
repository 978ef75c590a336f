"""Run a per-document map over a corpus on every CPU the process may use, or
over a whole input beside this process's own work.

``records(path, fmt, chain)`` yields what ``chain`` yields for the documents
of the corpus at ``path`` in format ``fmt`` (``"brat"``, ``"conll"`` or
``"jsonl"``), for a ``chain`` that maps documents to records ``marshal`` can
carry: ``baseline``'s and ``convert``'s records are their JSONL output lines,
each document's column lines and table rows (``conll._columns``), or the
doc_id and target of each document whose BRAT pair the map has written
(``brat._pairs``), a refused document being a ``(None, why)`` record in
either of the last two; ``populate``'s and ``eval-kg``'s one tuple of plain
values per document (``kgpop._records``), ``compile-gold``'s the kept
clusters and matched link keys of a document (``goldkg._gold_records``).

``documents(path, fmt)`` reads a corpus in this process alone, and
``aside(path, fmt, chain)`` maps a whole input of any format in one forked
worker, through the same ``_Worker``, from the moment it is called; ``score``
maps its response that way to the doc_id and parts of each document
(``metrics._parts``) while this process reads the key. Its records are loaded
once the caller iterates them; if the worker failed, this process maps the
input itself. It forks under the same rule as ``records`` (below), and only
for a regular file or a directory, which can be read a second time.

One constant, ``jsonl._BLOCK``, sizes everything here. The readers hand on
documents in blocks of it, a worker writes its records in blocks of it, and
the corpus is cut into one contiguous range per CPU at the whole blocks
nearest to equal shares (``_cuts``): a BRAT tree's sorted ``.txt`` files
(``brat._txt_files``), a JSONL file's lines, whose count and block starts
one pass over the file finds, or the documents of a column file in the
writer's shape, whose count and block starts, with the table rows each range
begins with, one chunked byte scan of the file and one of its table find
(``conll._starts``). ``_ranges`` is the
one place that picks the reader of a format (``jsonl._read_documents``,
``brat._read_documents``, ``conll._read_documents``), and each reader names
the file of its fault. This process maps the first range, which ends on a
block boundary, so it maps every document of its range before it waits; each
other range goes to a forked worker. A worker writes its records to an unnamed
temporary file, each block one ``marshal.dumps`` after its length, and then
the doc_ids it read. Once its own range is read, this process waits for the
workers, and if every one of them succeeded, no doc_id was read twice and its
reader does not say that its range was not read as a part of the whole (a
column file's, see ``conll._read_documents``), it loads their blocks one
whole block at a time, in corpus order, and yields their records after its
own. Otherwise it kills them and reads on to the end
of the corpus itself, so that every fault is found, worded and placed as by
one process reading the whole corpus. Documents and clusters never cross a
process boundary: pickling a decoded corpus costs more than decoding it.

One process reads the whole corpus when only one CPU is available, when
``os.fork`` does not exist, when another thread runs (forking a threaded
process is unsafe), when the input is a JSONL or column file that is not a
regular file or a column file not in the writer's shape, or when the corpus
holds fewer than two blocks of files, lines or documents. One range runs the
same code, with no worker.
"""

from __future__ import annotations

import _thread
import contextlib
import marshal
import os
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import brat, jsonl
from .errors import ParseError
from .model import Document

__all__ = ["aside", "documents", "records"]

#: Bytes of the length written beside each block of a worker's file.
_LENGTH = 8


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes() -> int:
    """The number of processes a map may run in: the CPUs this process may run
    on, or 1 without ``os.fork`` or while another thread runs (forking a
    threaded process is unsafe)."""
    return _cpus() if hasattr(os, "fork") and _thread._count() == 0 else 1


def _cuts(items: int, parts: int) -> list[int]:
    """The indices at which the ranges after the first begin: a corpus of
    ``items`` (files or lines) cut into at most ``parts`` ranges, at the whole
    blocks of ``jsonl._BLOCK`` nearest to equal shares. A corpus of fewer than
    two blocks is not cut: a worker costs a few milliseconds to start and to
    hand its records back."""
    block = jsonl._BLOCK
    if items < 2 * block:
        return []
    cuts = {(2 * items * i + parts * block) // (2 * parts * block) * block
            for i in range(1, parts)}
    return sorted(cut for cut in cuts if 0 < cut < items)


def _line_blocks(path) -> tuple[list[int], int]:
    """The byte offsets at which the blocks of ``jsonl._BLOCK`` lines of the
    file at ``path`` begin, and its number of lines (``\\n``-ended pieces, as
    ``jsonl._read_documents`` splits it)."""
    starts: list[int] = []
    lines = 0
    with open(path, "rb") as f:
        while True:
            start = f.tell()
            count = len(list(islice(f, jsonl._BLOCK)))
            if not count:
                return starts, lines
            starts.append(start)
            lines += count


def _ranges(path, fmt: str, parts: int) -> tuple[Callable[..., Iterator[Document]], list]:
    """The reader of the corpus at ``path`` in format ``fmt``, called as
    ``read(start, stop, *, seen, read_on)``, and the starts of its ranges after
    the first, fewer than ``parts``: indices into a BRAT tree's file list, byte
    offsets of a JSONL file, and of a column file in the writer's shape the
    starts of ``conll._starts``. ParseError if ``path`` is missing."""
    if not Path(path).exists():
        raise ParseError(f"no such file or directory: {path}")
    if fmt == "brat":
        files = brat._txt_files(path)
        return partial(brat._read_documents, path, files), _cuts(len(files), parts)
    if fmt == "conll":
        from . import conll  # here, so that a command that reads no column file does not load it

        read = partial(conll._read_documents, path)
        if parts < 2 or not os.path.isfile(path):
            return read, []
        return read, conll._starts(path, partial(_cuts, parts=parts))
    if fmt != "jsonl":
        raise ValueError(f"unknown corpus format {fmt!r}")
    read = partial(jsonl._read_documents, path)
    if parts < 2 or not os.path.isfile(path):
        return read, []
    starts, lines = _line_blocks(path)
    return read, [starts[cut // jsonl._BLOCK] for cut in _cuts(lines, parts)]


class _Worker:
    """A forked process that writes ``chain``'s records for the documents that
    ``read(seen=...)`` reads, collecting their doc_ids, to an unnamed temporary file,
    in blocks of ``jsonl._BLOCK`` records, each one ``marshal.dumps`` preceded
    by its length in ``_LENGTH`` bytes. Last come the doc_ids it read, one
    ``marshal.dumps`` followed by its length, so that they are found from the
    end of the file."""

    def __init__(self, read: Callable[..., Iterable[Document]],
                 chain: Callable[[Iterable[Document]], Iterable]):
        import tempfile

        self.file = tempfile.TemporaryFile()
        self.end = 0  # where the record blocks end, once joined
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                null = os.open(os.devnull, os.O_WRONLY)  # a worker never writes to stdout or stderr
                os.dup2(null, 1)
                os.dup2(null, 2)
                seen: set[str] = set()
                records = iter(chain(read(seen=seen)))
                write = self.file.write
                while block := list(islice(records, jsonl._BLOCK)):
                    data = marshal.dumps(block)
                    write(len(data).to_bytes(_LENGTH, "little"))
                    write(data)
                data = marshal.dumps(list(seen))
                write(data)
                write(len(data).to_bytes(_LENGTH, "little"))
                self.file.flush()
                status = 0
            finally:
                os._exit(status)  # runs none of the caller's clean-up, whatever happened

    def join(self) -> list[str] | None:
        """The doc_ids the worker read, once it has exited; None if it failed."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        if status != 0:
            return None
        f = self.file
        f.seek(-_LENGTH, os.SEEK_END)
        length = int.from_bytes(f.read(_LENGTH), "little")
        self.end = f.seek(-(_LENGTH + length), os.SEEK_END)
        return marshal.loads(f.read(length))

    def records(self) -> Iterator:
        """The records the worker wrote, loaded one whole block at a time."""
        f, position = self.file, 0
        f.seek(0)
        while position < self.end:
            length = int.from_bytes(f.read(_LENGTH), "little")
            block = marshal.loads(f.read(length))
            position += _LENGTH + length
            yield from block
            del block  # before the next block is loaded

    def close(self) -> None:
        """Kill the worker unless it has been joined, and free its file."""
        if self.pid:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self.file.close()


def documents(path, fmt: str) -> Iterator[Document]:
    """The documents of the corpus at ``path`` in format ``fmt``, read by this
    process once the result is iterated, and not before."""
    read, _ = _ranges(path, fmt, 1)
    yield from read(0, None)


def records(path, fmt: str, chain: Callable[[Iterable[Document]], Iterable]) -> Iterator:
    """What ``chain`` yields for the documents of the corpus at ``path`` in
    format ``fmt``, the ranges after the first mapped by forked workers. Close
    the iterator if it is left before its end: that kills running workers."""
    read, starts = _ranges(path, fmt, _processes())
    workers: list[_Worker] = []
    try:
        for start, stop in zip(starts, [*starts[1:], None]):
            workers.append(_Worker(partial(read, start, stop), chain))
        seen: set[str] = set()

        def read_on(must: bool = False) -> bool:
            """Whether this process must read the workers' ranges itself, once
            each has been joined: its reader says it ``must``, a worker failed,
            or a doc_id was read in two ranges."""
            ids = [worker.join() for worker in workers]
            if not must and None not in ids:
                theirs = set().union(*ids)
                if len(theirs) == sum(map(len, ids)) and seen.isdisjoint(theirs):
                    return False
            for worker in workers:
                worker.close()
            workers.clear()
            return True

        stop = starts[0] if starts else None
        yield from chain(read(0, stop, seen=seen, read_on=read_on))
        for worker in workers:
            yield from worker.records()
    finally:
        for worker in workers:
            worker.close()


@contextlib.contextmanager
def aside(path, fmt: str, chain: Callable[[Iterable[Document]], Iterable]) -> Iterator[Iterator]:
    """What ``chain`` yields for the ``documents`` of the corpus at ``path`` in
    format ``fmt``. When two processes may run and the input is a regular file
    or a directory, one forked worker maps the whole input from the start, while
    the body does other work. Iterating the result waits for the worker; if it
    failed, this process maps the input itself, so that its fault is found,
    worded and placed as by one process. Leaving the body kills the worker if
    it still runs."""
    worker = None
    if _processes() > 1 and (os.path.isfile(path) or os.path.isdir(path)):
        worker = _Worker(lambda seen: documents(path, fmt), chain)

    def joined() -> Iterator:
        if worker is not None and worker.join() is not None:
            yield from worker.records()
        else:
            yield from chain(documents(path, fmt))

    try:
        yield joined()
    finally:
        if worker is not None:
            worker.close()
