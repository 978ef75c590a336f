"""Run a per-document map over a corpus on every CPU the process may use.

``records(path, chain)`` yields what ``chain`` yields for the documents of a
BRAT tree (a directory) or of a JSONL file, for a ``chain`` that maps
documents to records ``marshal`` can carry: ``baseline``'s records are its
output lines, ``populate``'s and ``eval-kg``'s one tuple of plain values per
document (``kgpop._records``), ``compile-gold``'s the kept clusters and
matched link keys of a document (``goldkg._gold_records``). The corpus is
split into one contiguous range per CPU: a JSONL file at ``\\n`` bytes, into
ranges of about equal size past its first ``jsonl._BLOCK`` lines, and a BRAT
tree's sorted file list (``brat._txt_files``) into slices of equal length,
each of at least ``_FILES`` files. Each range is read by the one reader of its
format (``jsonl._read_documents``, ``brat._read_documents``). This process
maps the first range; each other range goes to a forked worker. A worker
writes its records to an unnamed temporary file in blocks of
``jsonl._BLOCK``, each one ``marshal.dumps`` after its length, and then the
doc_ids it read. Once its own range is read, this process waits for the
workers, and if every one of them succeeded and no doc_id was read twice, it
loads their blocks one whole block at a time, in corpus order, and yields
their records after its own. Otherwise it kills them and reads on to the end
of the corpus itself, so that every fault is found, worded and placed as by
one process reading the whole corpus. Documents and clusters never cross a
process boundary: pickling a decoded corpus costs more than decoding it.

One process reads the whole corpus when only one CPU is available, when
``os.fork`` does not exist, when another thread runs (forking a threaded
process is unsafe), when a JSONL input is not a regular file or ends within
its first ``jsonl._BLOCK`` lines, or when a BRAT tree holds fewer than
``2 * _FILES`` files. One range runs the same code, with no worker.
"""

from __future__ import annotations

import _thread
import marshal
import os
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator

from . import brat, jsonl
from .model import Document

__all__ = ["records"]

#: Bytes of the length written beside each block of a worker's file.
_LENGTH = 8
#: The fewest files of a BRAT tree that a range holds. A worker costs a few
#: milliseconds to start and to hand its records back: on 2 CPUs,
#: ``compile-gold`` and ``eval-kg`` broke even at about 200 documents from
#: ``perfbench/gen.py``, took 0-10% less time at 300 and 22% less at 700.
_FILES = 150


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _starts(path, parts: int) -> list[int]:
    """The byte offsets at which the ranges after the first begin: line starts
    that split the file at ``path`` into at most ``parts`` ranges of about
    equal size, past its first ``jsonl._BLOCK`` lines."""
    if parts < 2 or not os.path.isfile(path):
        return []
    with open(path, "rb") as f:
        for _ in range(jsonl._BLOCK):
            if not f.readline():
                return []
        head, size = f.tell(), os.fstat(f.fileno()).st_size
        starts: list[int] = []
        for i in range(1, parts):
            f.seek(max(head, size * i // parts) - 1)
            f.readline()  # to the start of the next line
            start = f.tell()
            if start >= size:
                break
            if not starts or start > starts[-1]:
                starts.append(start)
    return starts


def _slices(files: int, parts: int) -> list[int]:
    """The indices at which the ranges after the first begin: a file list of
    length ``files`` split into at most ``parts`` slices of equal length (give
    or take one), none of them shorter than ``_FILES``."""
    parts = min(parts, files // _FILES)
    return [files * i // parts for i in range(1, parts)]


def _ranges(path, parts: int) -> tuple[Callable[..., Iterator[Document]], list[int]]:
    """The reader of the corpus at ``path``, called as ``read(start, stop, *,
    seen, read_on)``, and the starts of its ranges after the first: byte
    offsets of a JSONL file, indices into a BRAT tree's file list."""
    if os.path.isdir(path):
        files = brat._txt_files(os.fspath(path))
        return partial(brat._read_documents, path, files), _slices(len(files), parts)
    return partial(jsonl._read_documents, path), _starts(path, parts)


class _Worker:
    """A forked process that writes ``chain``'s records for the documents that
    ``read`` reads of the range ``[start, stop)`` to an unnamed temporary file,
    in blocks of ``jsonl._BLOCK`` records, each one ``marshal.dumps`` preceded
    by its length in ``_LENGTH`` bytes. Last come the doc_ids it read, one
    ``marshal.dumps`` followed by its length, so that they are found from the
    end of the file."""

    def __init__(self, read: Callable[..., Iterator[Document]], start: int, stop: int | None,
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
                records = iter(chain(read(start, stop, seen=seen)))
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


def records(path, chain: Callable[[Iterable[Document]], Iterable]) -> Iterator:
    """What ``chain`` yields for the documents of the BRAT tree or JSONL file at
    ``path``, the ranges after the first mapped by forked workers. Close the
    iterator if it is left before its end: that kills the workers still running."""
    parts = _cpus() if hasattr(os, "fork") and _thread._count() == 0 else 1
    read, starts = _ranges(path, parts)
    workers: list[_Worker] = []
    try:
        for start, stop in zip(starts, [*starts[1:], None]):
            workers.append(_Worker(read, start, stop, chain))
        seen: set[str] = set()

        def read_on() -> bool:
            """Whether this process must read the workers' ranges itself: a
            worker failed, or a doc_id was read in two ranges."""
            ids = [worker.join() for worker in workers]
            if None not in ids:
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
