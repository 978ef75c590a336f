"""``baseline``, ``populate``, ``compile-gold`` and ``eval-kg`` on one process per CPU
give what one process gives, from a JSONL file and from a BRAT tree."""

import contextlib
import io
import json
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg import brat, jsonl, parallel
from corefkg.baseline import resolve_corpus
from corefkg.brat import read_brat_dir, write_brat_dir
from corefkg.cli import main
from corefkg.goldkg import (attach_entity_links, compile_gold, evaluate_population,
                            write_gold_jsonl)
from corefkg.jsonl import write_jsonl
from corefkg.kgpop import (CollapseStrategy, DomainScope, export_kg_jsonl, export_ntriples,
                           kg_stats, populate)
from corefkg.model import Corpus

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


def _run(src, out_dir, cpus: int, to_stdout: bool, forks: list, argv: list[str], name: str,
         out_flag: str = "--out"):
    """Exit status, stdout, stderr and the output directory's files of one call
    of ``argv`` with ``--in src`` and ``out_flag`` the file ``name`` or stdout."""
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
        status = main([*argv, "--in", str(src), out_flag, target])
    with pytest.raises(ChildProcessError):  # every worker has been waited for
        os.waitpid(-1, os.WNOHANG)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return status, out.getvalue(), err.getvalue(), files


def _outcome(root, src, argv: list[str], name: str, block: int,
             out_flag: str = "--out") -> dict[bool, tuple]:
    """The outcome of ``argv`` with ``out_flag`` a file and with stdout (the
    keys), which must be the same with ``_cpus`` patched to 1, 2 and 3. A
    BRAT tree is split into ranges of one file and more, and either input is
    read in blocks of ``block`` documents."""
    outcomes: dict[bool, list] = {}
    with mock.patch.object(jsonl, "_BLOCK", block), mock.patch.object(brat, "_BLOCK", block), \
            mock.patch.object(parallel, "_FILES", 1):
        for to_stdout in (False, True):
            for cpus in (1, 2, 3):
                forks: list[int] = []
                outcome = _run(src, root / f"out-{to_stdout}-{cpus}", cpus, to_stdout, forks,
                               argv, name, out_flag)
                assert len(forks) == len(parallel._ranges(src, cpus)[1]) >= min(cpus - 1, 1)
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


#: the faults a BRAT tree may carry, at most one each: a bad .ann line in the first file
#: (the first range) or in the last file (the last range), a missing .ann, a .txt that is
#: not UTF-8, a surface that is not the text's, and two files of one doc_id
BRAT_FAULTS = [None, "ann-first", "ann-last", "missing-ann", "txt-not-utf8", "surface",
               "repeated-id"]


def _brat_tree(root, seed: int, n_docs: int, fault, position: int):
    """A BRAT tree of ``n_docs`` documents with ``fault`` injected at the file
    ``position`` (see ``BRAT_FAULTS``); returns the corpus it read back as
    before the fault."""
    write_brat_dir(random_corpus(random.Random(seed), n_docs=n_docs), root)
    corpus = read_brat_dir(root)
    files = sorted(root.rglob("*.txt"))
    txt = files[position % len(files)]
    ann = txt.with_suffix(".ann")
    if fault in ("ann-first", "ann-last"):
        with open(files[0 if fault == "ann-first" else -1].with_suffix(".ann"), "a",
                  encoding="utf-8") as f:
            f.write("garbage line\n")
    elif fault == "missing-ann":
        ann.unlink()
    elif fault == "txt-not-utf8":
        txt.write_bytes(txt.read_bytes() + b"\n\xff")
    elif fault == "surface":
        with open(ann, "a", encoding="utf-8") as f:
            f.write("T999\tData 0 1\t\u2603\n")
    elif fault == "repeated-id":  # ".txt" and ".txt.txt" both read as the doc_id ".txt"
        for name in (".txt", ".txt.txt", ".txt.ann"):
            (txt.parent / name).write_text("", "utf-8")
    return corpus


#: a link key that no corpus has
NOWHERE = ("nowhere", 0, 5, "Data")


def _links(corpus, seed: int) -> dict:
    """Entity links for about 70% of the corpus's mentions, and at times one link
    that matches no mention."""
    rng = random.Random(seed)
    links = {m.key: rng.choice(["Q1", "Q2", m.surface])
             for doc in corpus for m in doc.mentions if rng.random() < 0.7}
    if rng.random() < 0.2:
        links[NOWHERE] = "Q9"
    return links


def _links_file(path, links: dict) -> None:
    path.write_text("".join(f"{d}\t{s}\t{e}\t{t}\t{entity}\n"
                            for (d, s, e, t), entity in links.items()), "utf-8")


#: each command from a BRAT tree: its argv after the input, given the gold and links files;
#: the name of its output file; its output flag
BRAT_COMMANDS = {
    "baseline": (lambda gold, links: ["baseline"], "pred.jsonl", "--out"),
    "populate": (lambda gold, links: ["populate", "--strategy", "in"], "kg.jsonl", "--out"),
    "compile-gold": (lambda gold, links: ["compile-gold", "--links", str(links)], "gold.jsonl",
                     "--out"),
    **{f"eval-kg {strategy}{no_coref}": (
        lambda gold, links, strategy=strategy, no_coref=no_coref: [
            "eval-kg", "--gold", str(gold), "--strategy", strategy, *no_coref.split()],
        "eval.json", "--json-out")
       for strategy in ("cross", "in") for no_coref in ("", " --no-coref")},
}


def _brat_expected(command: str, corpus, links: dict, gold) -> tuple[str, str]:
    """The output and the table of ``command`` on a faultless tree, from the library."""
    if command == "baseline":
        return write_jsonl(resolve_corpus(corpus)), ""
    if command == "populate":
        kg = populate(corpus, CollapseStrategy(DomainScope.IN_DOMAIN))
        return export_kg_jsonl(kg), kg_stats(kg, corpus).to_tsv()
    if command == "compile-gold":
        return write_gold_jsonl(compile_gold(attach_entity_links(corpus, links))), ""
    _, strategy, *no_coref = command.split()
    result = evaluate_population(gold, corpus, CollapseStrategy(_SCOPES[strategy], not no_coref))
    table = result.report.to_table() + f"concepts\t{result.n_concepts}\n"
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n", table


@pytest.mark.parametrize("command", BRAT_COMMANDS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(6, 12),
       block=st.sampled_from([1, 2, 3]), fault=st.sampled_from(BRAT_FAULTS),
       position=st.integers(0, 11))
def test_every_process_count_reads_a_brat_tree_as_one(tmp_path_factory, command, seed, n_docs,
                                                      block, fault, position):
    root = tmp_path_factory.mktemp("brat")
    corpus = _brat_tree(root / "in", seed, n_docs, fault, position)
    links = _links(corpus, seed)
    _links_file(root / "links.tsv", links)
    gold = compile_gold(attach_entity_links(corpus, links, skip_unmatched=True))
    (root / "gold.jsonl").write_text(write_gold_jsonl(gold), "utf-8")
    argv, name, out_flag = BRAT_COMMANDS[command]
    outcome = _outcome(root, root / "in", argv(root / "gold.jsonl", root / "links.tsv"), name,
                       block, out_flag)
    if fault is None and not (command == "compile-gold" and NOWHERE in links):
        output, table = _brat_expected(command, corpus, links, gold)
        # the table on stdout beside a file (no temporary file beside it), on stderr beside stdout
        assert outcome == {False: (0, table, "", {name: output.encode("utf-8")}),
                           True: (0, output, table, {})}
        return
    for status, out, err, files in outcome.values():
        assert status == 2 and files == {} and err
        assert ("not UTF-8" in err) is (fault == "txt-not-utf8")
        if fault is None:
            assert err.startswith("entity link matches no mention: ('nowhere'")
        if command != "baseline":  # nothing is written before every document is read
            assert out == ""


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


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_compile_gold_of_a_brat_tree(tmp_path, monkeypatch,
                                                                       exception):
    monkeypatch.setattr(parallel, "_FILES", 2)
    monkeypatch.setattr(parallel, "_cpus", lambda: 3)
    src = tmp_path / "brat"
    write_brat_dir(random_corpus(random.Random(3), n_docs=12), src)
    assert len(parallel._ranges(src, 3)[1]) == 2
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["compile-gold"], src)


def _interrupt_while_waiting(tmp_path, monkeypatch, exception, command, src=None):
    src = src or _faultless_corpus(tmp_path, monkeypatch)
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


@pytest.mark.parametrize("floor", [1, 2, 3])
def test_brat_ranges_cover_the_file_list_once_in_order(tmp_path, monkeypatch, floor):
    monkeypatch.setattr(parallel, "_FILES", floor)
    for files in range(12):
        for parts in range(1, 5):
            bounds = [0, *parallel._slices(files, parts), files]
            lengths = [b - a for a, b in zip(bounds, bounds[1:])]
            assert 1 <= len(lengths) <= parts
            if len(lengths) > 1:  # even, and none shorter than the floor
                assert min(lengths) >= floor and max(lengths) - min(lengths) <= 1
    write_brat_dir(random_corpus(random.Random(4), n_docs=11), tmp_path)
    whole = [doc.doc_id for doc in read_brat_dir(tmp_path)]
    for parts in range(1, 5):
        read, starts = parallel._ranges(tmp_path, parts)
        ranges = list(zip([0, *starts], [*starts, None]))
        assert len(ranges) == min(parts, 11 // floor)
        assert [doc.doc_id for start, stop in ranges for doc in read(start, stop)] == whole


def test_no_worker_starts_below_the_size_floor(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_FILES", 3)
    monkeypatch.setattr(parallel, "_cpus", lambda: 4)
    fork, forks = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    corpus = random_corpus(random.Random(6), n_docs=6)
    for n_docs, workers in ((5, 0), (6, 1)):
        root = tmp_path / str(n_docs)
        write_brat_dir(Corpus(corpus.documents[:n_docs]), root)
        forks.clear()
        assert main(["baseline", "--in", str(root), "--out", str(tmp_path / "pred.jsonl")]) == 0
        assert len(forks) == workers
        assert (tmp_path / "pred.jsonl").read_text("utf-8") == write_jsonl(
            resolve_corpus(read_brat_dir(root)))
