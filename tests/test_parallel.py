"""``baseline`` and ``populate`` on one process per CPU give what one process gives."""

import contextlib
import io
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg import jsonl, parallel
from corefkg.baseline import resolve_corpus
from corefkg.cli import main
from corefkg.jsonl import write_jsonl
from corefkg.kgpop import (CollapseStrategy, DomainScope, export_kg_jsonl, export_ntriples,
                           kg_stats, populate)

from corpusgen import random_corpus

#: lines that fail: JSON that does not parse, and a document whose mention leaves its text
BAD_JSON = b'{"doc_id": '
BAD_DOCUMENT = (b'{"clusters": [], "doc_id": "bad", "domain": "CS", '
                b'"mentions": [{"end": 9, "start": 0, "type": "Data"}], "text": "ab"}')
#: the faults a corpus may carry, at most one each
FAULTS = [None, "bad-json", "bad-document", "repeated-id", "byte-after-json"]
_SCOPES = {"cross": DomainScope.CROSS_DOMAIN, "in": DomainScope.IN_DOMAIN}


def _corpus_file(path, seed: int, n_docs: int, fault, position: int, crlf: bool, blank: int):
    """A corpus of ``n_docs`` documents with a blank line and ``fault`` injected;
    returns the corpus written."""
    corpus = random_corpus(random.Random(seed), n_docs=n_docs)
    lines = write_jsonl(corpus).encode("utf-8").splitlines()
    if fault in ("bad-json", "bad-document"):
        lines[position] = BAD_JSON if fault == "bad-json" else BAD_DOCUMENT
    elif fault == "repeated-id":  # a document again, in the last range
        lines.append(lines[position])
    elif fault == "byte-after-json":  # bad JSON in the first range, a bad byte in the last
        lines[0] = BAD_JSON
        lines.append(b'{"doc_id": "\xff"}')
    lines.insert(blank, b" ")
    path.write_bytes(b"".join(line + (b"\r\n" if crlf else b"\n") for line in lines))
    return corpus


#: populate in each of its variants: the argv after its input, and the library call it matches
POPULATE = [
    (("--strategy", strategy, "--format", fmt, *gold, *no_coref),
     (CollapseStrategy(_SCOPES[strategy], use_coreference=not no_coref), fmt, bool(gold)))
    for strategy in ("cross", "in") for fmt in ("jsonl", "ntriples")
    for gold in ((), ("--gold",)) for no_coref in ((), ("--no-coref",))
]


def _run(src, out_dir, cpus: int, to_stdout: bool, forks: list, argv: list[str], name: str):
    """Exit status, stdout, stderr and the output directory's files of one call
    of ``argv`` with ``--in src`` and ``--out`` the file ``name`` or stdout."""
    out_dir.mkdir()
    out, err = io.StringIO(), io.StringIO()
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    target = "-" if to_stdout else str(out_dir / name)
    with mock.patch.object(parallel, "_cpus", lambda: cpus), \
            mock.patch.object(os, "fork", counted_fork), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([*argv, "--in", str(src), "--out", target])
    with pytest.raises(ChildProcessError):  # every worker has been waited for
        os.waitpid(-1, os.WNOHANG)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return status, out.getvalue(), err.getvalue(), files


def _outcome(root, src, argv: list[str], name: str, block: int) -> dict[bool, tuple]:
    """The outcome of ``argv`` with ``--out`` a file and with stdout (the
    keys), which must be the same with ``_cpus`` patched to 1, 2 and 3."""
    outcomes: dict[bool, list] = {}
    with mock.patch.object(jsonl, "_BLOCK", block):
        for to_stdout in (False, True):
            for cpus in (1, 2, 3):
                forks: list[int] = []
                outcome = _run(src, root / f"out-{to_stdout}-{cpus}", cpus, to_stdout, forks,
                               argv, name)
                assert len(forks) == len(parallel._starts(src, cpus)) >= min(cpus - 1, 1)
                outcomes.setdefault(to_stdout, []).append(outcome)
    for one, *more in outcomes.values():
        assert all(outcome == one for outcome in more)
    return {to_stdout: one for to_stdout, (one, *_) in outcomes.items()}


#: a corpus file with at most one fault, as ``_corpus_file`` writes it
CORPORA = dict(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(6, 14),
               block=st.sampled_from([1, 2, 3]), fault=st.sampled_from(FAULTS),
               position=st.integers(0, 13), crlf=st.booleans(), blank=st.integers(0, 14))


@settings(max_examples=25, deadline=None)
@given(**CORPORA)
def test_every_process_count_gives_the_outcome_of_one(tmp_path_factory, seed, n_docs, block,
                                                      fault, position, crlf, blank):
    root = tmp_path_factory.mktemp("split")
    src = root / "in.jsonl"
    corpus = _corpus_file(src, seed, n_docs, fault, position % n_docs, crlf, blank % n_docs)
    outcome = _outcome(root, src, ["baseline"], "pred.jsonl", block)
    for to_stdout, (status, out, err, files) in outcome.items():
        assert status == (0 if fault is None else 2)
        expected = write_jsonl(resolve_corpus(corpus)) if fault is None else None
        if to_stdout:
            assert files == {} and (fault is not None or out == expected)
        else:
            assert out == ""  # and no temporary file beside the output
            assert files == ({} if fault else {"pred.jsonl": expected.encode("utf-8")})
        if fault == "byte-after-json":
            assert "not UTF-8" in err


@pytest.mark.parametrize("argv, library", POPULATE, ids=[" ".join(a) for a, _ in POPULATE])
@settings(max_examples=8, deadline=None)
@given(**CORPORA)
def test_every_process_count_populates_as_one(tmp_path_factory, argv, library, seed, n_docs,
                                              block, fault, position, crlf, blank):
    root = tmp_path_factory.mktemp("populate")
    src = root / "in.jsonl"
    corpus = _corpus_file(src, seed, n_docs, fault, position % n_docs, crlf, blank % n_docs)
    strategy, fmt, gold = library
    name = "kg.nt" if fmt == "ntriples" else "kg.jsonl"
    outcome = _outcome(root, src, ["populate", *argv], name, block)
    kg = populate(corpus, strategy, gold=gold)
    export = (export_ntriples if fmt == "ntriples" else export_kg_jsonl)(kg)
    table = kg_stats(kg, corpus).to_tsv()
    for to_stdout, (status, out, err, files) in outcome.items():
        if fault is not None:  # nothing is written before every document is read
            assert (status, out, files) == (2, "", {})
            assert ("not UTF-8" in err) is (fault == "byte-after-json")
        elif to_stdout:
            assert (status, out, err, files) == (0, export, table, {})
        else:  # and no temporary file beside the output
            assert (status, out, err, files) == (0, table, "", {name: export.encode("utf-8")})


def _faultless_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonl, "_BLOCK", 2)
    monkeypatch.setattr(parallel, "_cpus", lambda: 3)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(random_corpus(random.Random(3), n_docs=12)), "utf-8")
    assert len(parallel._starts(src, 3)) == 2
    return src


class _Interrupted(io.StringIO):
    """A stdout on which the first write is interrupted, as by Ctrl-C."""

    def writelines(self, lines):
        next(iter(lines))
        raise KeyboardInterrupt


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_main_process(tmp_path, monkeypatch, exception):
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["baseline"])


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_populate(tmp_path, monkeypatch, exception):
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["populate", "--strategy", "cross"])


def _interrupt_while_waiting(tmp_path, monkeypatch, exception, command):
    src = _faultless_corpus(tmp_path, monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def interrupted(worker):
        raise exception

    monkeypatch.setattr(parallel._Worker, "join", interrupted)  # while it waits for a worker
    with pytest.raises(exception) as raised:
        main([*command, "--in", str(src), "--out", str(out_dir / "out.jsonl")])
    with pytest.raises(ChildProcessError):  # while the traceback holds the command's frames
        os.waitpid(-1, os.WNOHANG)
    del raised
    assert list(out_dir.iterdir()) == []


def test_no_worker_outlives_a_stdout_that_fails(tmp_path, monkeypatch):
    src = _faultless_corpus(tmp_path, monkeypatch)
    monkeypatch.setattr("sys.stdout", _Interrupted())  # the main process's first line
    with pytest.raises(KeyboardInterrupt) as raised:
        main(["baseline", "--in", str(src), "--out", "-"])
    with pytest.raises(ChildProcessError):  # while the traceback holds the command's frames
        os.waitpid(-1, os.WNOHANG)
    del raised


def test_a_file_that_ends_within_the_first_block_is_read_by_one_process(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 4)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(random_corpus(random.Random(3), n_docs=jsonl._BLOCK)), "utf-8")
    assert parallel._starts(src, 4) == []
    with open(src, "ab") as f:
        f.write(b"\n")
    assert len(parallel._starts(src, 4)) == 1  # the blank line is the only range after it
    assert parallel._starts(os.devnull, 4) == []  # not a regular file
