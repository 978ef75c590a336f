"""Run a per-document map over a JSONL corpus on every CPU the process may use.

``records(path, chain)`` yields what ``chain(jsonl._read_documents(path))``
yields, for a ``chain`` that maps documents to records ``marshal`` can carry:
``baseline``'s records are its output lines, ``populate``'s one tuple of
plain values per document (``kgpop._records``). The file is split at ``\\n``
bytes into one contiguous range per CPU. This process maps the first range,
which holds at least the file's first ``jsonl._BLOCK`` lines; each other
range goes to a forked worker. A worker writes its records to an unnamed
temporary file in blocks of ``jsonl._BLOCK``, each one ``marshal.dumps``
after its length, and then the doc_ids it read. Once its own range is read,
this process waits for the workers, and if every one of them succeeded and no
doc_id was read twice, it loads their blocks one whole block at a time, in
file order, and yields their records after its own. Otherwise it kills them
and reads on to the end of the file itself, so that every fault is found,
worded and placed as by one process reading the whole file. Documents and
clusters never cross a process boundary: pickling a decoded corpus costs more
than decoding it.

One process reads the whole file when only one CPU is available, when
``os.fork`` does not exist, when another thread runs (forking a threaded
process is unsafe), or when the file is not a regular file or ends within
its first ``jsonl._BLOCK`` lines. One range runs the same code, with no worker.
"""

from __future__ import annotations

import _thread
import marshal
import os
from itertools import islice
from typing import Callable, Iterable, Iterator

from . import jsonl
from .model import Document

__all__ = ["records"]

#: Bytes of the length written beside each block of a worker's file.
_LENGTH = 8


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


class _Worker:
    """A forked process that writes ``chain``'s records for the documents of
    the byte range ``[start, stop)`` to an unnamed temporary file, in blocks
    of ``jsonl._BLOCK`` records, each one ``marshal.dumps`` preceded by its
    length in ``_LENGTH`` bytes. Last come the doc_ids it read, one
    ``marshal.dumps`` followed by its length, so that they are found from the
    end of the file."""

    def __init__(self, path, start: int, stop: int | None,
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
                records = iter(chain(jsonl._read_documents(path, start, stop, seen=seen)))
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
    """What ``chain(jsonl._read_documents(path))`` yields, the ranges after the
    first mapped by forked workers. Close the iterator if it is left before
    its end: that kills the workers still running."""
    parts = _cpus() if hasattr(os, "fork") and _thread._count() == 0 else 1
    starts = _starts(path, parts)
    workers: list[_Worker] = []
    try:
        for start, stop in zip(starts, [*starts[1:], None]):
            workers.append(_Worker(path, start, stop, chain))
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
        yield from chain(jsonl._read_documents(path, 0, stop, seen=seen, read_on=read_on))
        for worker in workers:
            yield from worker.records()
    finally:
        for worker in workers:
            worker.close()
