"""Run a per-document chain over a JSONL corpus on every CPU the process may use.

``lines(path, chain)`` yields what ``chain(jsonl._read_documents(path))``
yields, for a ``chain`` that maps each document to one line. The file is split
at ``\\n`` bytes into one contiguous range per CPU. This process reads the
first range, which holds at least the file's first ``jsonl._BLOCK`` lines;
each other range goes to a forked worker, which writes its lines to an
unnamed temporary file and sends back only the doc_ids it read. Once its own
range is read, this process waits for the workers, and if every one of them
succeeded and no doc_id was read twice, it copies their lines after its own,
in file order. Otherwise it kills them and reads on to the end of the file
itself, so that every fault is found, worded and placed as by one process
reading the whole file. Documents and clusters never cross a process
boundary: pickling a decoded corpus costs more than decoding it.

One process reads the whole file when only one CPU is available, when
``os.fork`` does not exist, when another thread runs (forking a threaded
process is unsafe), or when the file is not a regular file or ends within
its first ``jsonl._BLOCK`` lines. One range runs the same code, with no worker.
"""

from __future__ import annotations

import _thread
import marshal
import os
from typing import Callable, Iterable, Iterator

from . import jsonl
from .model import Document

__all__ = ["lines"]

#: Characters of a worker's lines copied at a time: the main process holds
#: about three copies of a chunk (read, decoded, encoded) while it copies one.
_CHUNK = 1 << 16


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
    """A forked process that writes ``chain``'s lines for the documents of the
    byte range ``[start, stop)`` to an unnamed temporary file, and sends the
    doc_ids it read through a pipe if it succeeds."""

    def __init__(self, path, start: int, stop: int | None,
                 chain: Callable[[Iterable[Document]], Iterable[str]]):
        import tempfile

        self.text = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                null = os.open(os.devnull, os.O_WRONLY)  # a worker never writes to stdout or stderr
                os.dup2(null, 1)
                os.dup2(null, 2)
                seen: set[str] = set()
                self.text.writelines(chain(jsonl._read_documents(path, start, stop, seen=seen)))
                self.text.flush()
                with open(write, "wb") as pipe:
                    pipe.write(marshal.dumps(list(seen)))
                status = 0
            finally:
                os._exit(status)  # runs none of the caller's clean-up, whatever happened
        os.close(write)
        self.ids = open(read, "rb")

    def join(self) -> list[str] | None:
        """The doc_ids the worker read, once it has exited; None if it failed."""
        ids = self.ids.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        return marshal.loads(ids) if status == 0 else None

    def chunks(self) -> Iterator[str]:
        """The lines the worker wrote, ``_CHUNK`` characters at a time."""
        self.text.seek(0)
        while chunk := self.text.read(_CHUNK):
            yield chunk

    def close(self) -> None:
        """Kill the worker unless it has been joined, and free its files."""
        if self.pid:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self.ids.close()
        self.text.close()


def lines(path, chain: Callable[[Iterable[Document]], Iterable[str]]) -> Iterator[str]:
    """What ``chain(jsonl._read_documents(path))`` yields, the ranges after the
    first computed by forked workers. Close the iterator if it is left before
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
            yield from worker.chunks()
    finally:
        for worker in workers:
            worker.close()
