"""``baseline``, ``convert``, ``populate``, ``compile-gold`` and ``eval-kg`` on one
process per CPU give what one process gives, from a JSONL file and from a BRAT tree,
and so do ``baseline`` and ``convert`` to every output format, and ``score``, whose
response a worker reads, from every input format."""

import contextlib
import io
import json
import marshal
import os
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg import jsonl, parallel
from corefkg.baseline import resolve_corpus
from corefkg.brat import read_brat_dir, write_brat_dir
from corefkg.cli import main
from corefkg.conll import write_coref_columns
from corefkg.errors import ParseError
from corefkg.goldkg import (attach_entity_links, compile_gold, evaluate_population,
                            write_gold_jsonl)
from corefkg.jsonl import write_jsonl
from corefkg.kgpop import (CollapseStrategy, DomainScope, export_kg_jsonl, export_ntriples,
                           kg_stats, populate)
from corefkg.metrics import score_corpora
from corefkg.model import Corpus, Document

from corpusgen import random_corpus

#: lines that fail: JSON that does not parse, and a document whose mention leaves its text
BAD_JSON = b'{"doc_id": '
BAD_DOCUMENT = (b'{"clusters": [], "doc_id": "bad", "domain": "CS", '
                b'"mentions": [{"end": 9, "start": 0, "type": "Data"}], "text": "ab"}')
#: the faults a corpus may carry, at most one each
FAULTS = [None, "bad-json", "bad-document", "repeated-id", "byte-after-json"]
#: a document that the readers take and that the column and BRAT writers refuse: two
#: mentions on one span, and a path that would read back in domain "CS"
REFUSED = (b'{"clusters": [], "doc_id": "CS/refused", "domain": "", "mentions": ['
           b'{"end": 2, "start": 0, "type": "Data"}, {"end": 2, "start": 0, "type": "Method"}], '
           b'"text": "ab"}')
#: what the writer of each output says of it
REFUSALS = {
    "conll": "error: column format cannot represent two mentions sharing span CS/refused[0,2)\n",
    "brat": "error: doc_id 'CS/refused' of domain '' would be written to {out!r}, which reads "
            "back in another domain\n",
}
#: the column and BRAT outputs: the name of each one's output
OUTPUTS = {"conll": "pred.conll", "brat": "tree"}
_SCOPES = {"cross": DomainScope.CROSS_DOMAIN, "in": DomainScope.IN_DOMAIN}


def _corpus_file(path, seed: int, n_docs: int, fault, position: int, crlf: bool, blank: int):
    """A corpus of ``n_docs`` documents with a blank line and ``fault`` injected;
    returns the corpus written."""
    corpus = random_corpus(random.Random(seed), n_docs=n_docs)
    _faulty_file(path, corpus, fault, position, crlf, blank)
    return corpus


def _faulty_file(path, corpus, fault, position: int, crlf: bool = False, blank: int = 0):
    """Write ``corpus`` to the JSONL file at ``path``, with a blank line and ``fault``
    injected."""
    lines = write_jsonl(corpus).encode("utf-8").splitlines()
    if fault in ("bad-json", "bad-document"):
        lines[position] = BAD_JSON if fault == "bad-json" else BAD_DOCUMENT
    elif fault == "repeated-id":  # a document again, in the last range
        lines.append(lines[position])
    elif fault == "byte-after-json":  # bad JSON in the first range, a bad byte in the last
        lines[0] = BAD_JSON
        lines.append(b'{"doc_id": "\xff"}')
    elif fault == "refused":
        lines[position] = REFUSED
    elif fault == "refused-then-bad-json":  # a refusal in the first range, bad JSON in the last
        lines[0] = REFUSED
        lines.append(BAD_JSON)
    lines.insert(blank, b" ")
    path.write_bytes(b"".join(line + (b"\r\n" if crlf else b"\n") for line in lines))


#: populate in each of its variants: the argv after its input, and the library call it matches
POPULATE = [
    (("--strategy", strategy, "--format", fmt, *gold, *no_coref),
     (CollapseStrategy(_SCOPES[strategy], use_coreference=not no_coref), fmt, bool(gold)))
    for strategy in ("cross", "in") for fmt in ("jsonl", "ntriples")
    for gold in ((), ("--gold",)) for no_coref in ((), ("--no-coref",))
]


def _run(src, out_dir, cpus: int, to_stdout: bool, forks: list, argv: list[str], name: str,
         out_flag: str = "--out", in_flag: str = "--in", joins: list | None = None):
    """Exit status, stdout, stderr and the output directory's files of one call
    of ``argv`` with ``in_flag src`` and ``out_flag`` the file ``name`` or stdout.
    The call runs in the output directory, so that ``name`` names the output
    alike in every call's messages. ``forks`` gains the pid of each worker
    forked, and ``joins`` what each join returned: None for a worker that
    failed, whose range this process then read again. A call that succeeds must
    have joined each worker it forked, and each with the doc ids it read: a
    worker that failed there failed without cause, hidden by that reading."""
    out_dir.mkdir()
    out, err = io.StringIO(), io.StringIO()
    fork, join = os.fork, parallel._Worker.join
    joins = [] if joins is None else joins

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def spied_join(worker):
        joins.append(join(worker))
        return joins[-1]

    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        with mock.patch.object(parallel, "_cpus", lambda: cpus), \
                mock.patch.object(os, "fork", counted_fork), \
                mock.patch.object(parallel._Worker, "join", spied_join), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*argv, in_flag, str(src), out_flag, "-" if to_stdout else name])
    finally:
        os.chdir(cwd)
    with pytest.raises(ChildProcessError):  # every worker has been waited for
        os.waitpid(-1, os.WNOHANG)
    if status == 0:
        assert len(joins) == len(forks) and None not in joins, joins
    return status, out.getvalue(), err.getvalue(), _files(out_dir)


def _format(src) -> str:
    """The format of a test input: a BRAT tree or a JSONL file."""
    return "brat" if os.path.isdir(src) else "jsonl"


def _files(directory) -> dict:
    """The bytes of each file under ``directory``, and None for each directory
    under it, by relative path."""
    return {p.relative_to(directory).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(directory.rglob("*"))}


def _outcome(root, src, argv: list[str], name: str, block: int, out_flag: str = "--out",
             stdout: bool = True, in_flag: str = "--in", workers=None) -> dict[bool, tuple]:
    """The outcome of ``argv`` with ``in_flag src``, and ``out_flag`` a file and,
    if ``stdout``, stdout (the keys), which must be the same with ``_cpus``
    patched to 1, 2 and 3. Either input is read, cut and handed back in blocks
    of ``block`` documents. ``workers(cpus)`` is the number of workers each call
    starts; by default one per range after the first, at least one on 2 CPUs."""
    outcomes: dict[bool, list] = {}
    with mock.patch.object(jsonl, "_BLOCK", block):
        for to_stdout in (False, True)[:1 + stdout]:
            for cpus in (1, 2, 3):
                forks: list[int] = []
                outcome = _run(src, root / f"out-{to_stdout}-{cpus}", cpus, to_stdout, forks,
                               argv, name, out_flag, in_flag)
                if workers is None:
                    ranges = len(parallel._ranges(src, _format(src), cpus)[1])
                    assert len(forks) == ranges >= min(cpus - 1, 1)
                else:
                    assert len(forks) == workers(cpus)
                outcomes.setdefault(to_stdout, []).append(outcome)
    for one, *more in outcomes.values():
        assert all(outcome == one for outcome in more)
    return {to_stdout: one for to_stdout, (one, *_) in outcomes.items()}


#: a corpus file with at most one fault, as ``_corpus_file`` writes it
CORPORA = dict(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(6, 14),
               block=st.sampled_from([1, 2, 3]), fault=st.sampled_from(FAULTS),
               position=st.integers(0, 13), crlf=st.booleans(), blank=st.integers(0, 14))


@pytest.mark.parametrize("command", ["baseline", "convert"])
@settings(max_examples=25, deadline=None)
@given(**CORPORA)
def test_every_process_count_gives_the_outcome_of_one(tmp_path_factory, command, seed, n_docs,
                                                      block, fault, position, crlf, blank):
    root = tmp_path_factory.mktemp("split")
    src = root / "in.jsonl"
    corpus = _corpus_file(src, seed, n_docs, fault, position % n_docs, crlf, blank % n_docs)
    outcome = _outcome(root, src, [command], "pred.jsonl", block)
    if command == "baseline":
        corpus = resolve_corpus(corpus)
    for to_stdout, (status, out, err, files) in outcome.items():
        assert status == (0 if fault is None else 2)
        expected = write_jsonl(corpus) if fault is None else None
        if to_stdout:
            assert files == {} and (fault is not None or out == expected)
        else:
            assert out == ""  # and no temporary file beside the output
            assert files == ({} if fault else {"pred.jsonl": expected.encode("utf-8")})
        if fault == "byte-after-json":
            assert "not UTF-8" in err


def _library_files(corpus, output: str, directory) -> dict:
    """``_files`` of ``directory`` once the library has written ``corpus`` in it
    as ``output``, under the name ``OUTPUTS[output]``."""
    directory.mkdir()
    target = directory / OUTPUTS[output]
    if output == "brat":
        write_brat_dir(corpus, target)
    else:
        columns, table = write_coref_columns(corpus)
        target.write_text(columns, "utf-8")
        (directory / f"{target.name}.tokens").write_text(table, "utf-8")
    return _files(directory)


def _check_written(root, outcome: dict, command: str, output: str, corpus, fault, not_utf8: str):
    """The one outcome of ``command`` to ``output``: the library's files for a
    faultless corpus; otherwise exit 2 with nothing written, no staging
    directory or temporary file included."""
    (status, out, err, files), = outcome.values()
    if fault is None:
        expected = resolve_corpus(corpus) if command == "baseline" else corpus
        assert (status, out, err, files) == (0, "", "", _library_files(expected, output,
                                                                       root / "library"))
        return
    assert (status, out, files) == (2, "", {}) and err
    assert ("not UTF-8" in err) is (fault == not_utf8)
    if fault == "refused":
        assert err == REFUSALS[output].format(out="tree/CS/refused")
    if fault == "refused-then-bad-json":  # the read fault wins, as when all was read first
        assert "line " in err and "invalid JSON" in err


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("command", ["baseline", "convert"])
@settings(max_examples=8, deadline=None)
@given(**{**CORPORA, "fault": st.sampled_from([*FAULTS, "refused", "refused-then-bad-json"])})
def test_every_process_count_writes_a_column_file_or_brat_tree_as_one(
        tmp_path_factory, command, output, seed, n_docs, block, fault, position, crlf, blank):
    root = tmp_path_factory.mktemp("outputs")
    src = root / "in.jsonl"
    corpus = _corpus_file(src, seed, n_docs, fault, position % n_docs, crlf, blank % n_docs)
    outcome = _outcome(root, src, [command], OUTPUTS[output], block, stdout=False)
    _check_written(root, outcome, command, output, corpus, fault, "byte-after-json")


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
    return _faulty_tree(root, random_corpus(random.Random(seed), n_docs=n_docs), fault, position)


def _faulty_tree(root, corpus, fault, position: int):
    """``corpus`` written as a BRAT tree at ``root`` with ``fault`` injected at the
    file ``position``; returns the corpus it read back as before the fault."""
    write_brat_dir(corpus, root)
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
    "convert": (lambda gold, links: ["convert"], "corpus.jsonl", "--out"),
    "populate": (lambda gold, links: ["populate", "--strategy", "in"], "kg.jsonl", "--out"),
    "compile-gold": (lambda gold, links: ["compile-gold", "--links", str(links)], "gold.jsonl",
                     "--out"),
    **{f"eval-kg {strategy}{flags}": (
        lambda gold, links, strategy=strategy, flags=flags: [
            "eval-kg", "--gold", str(gold), "--strategy", strategy, *flags.split()],
        "eval.json", "--json-out")
       for strategy in ("cross", "in") for no_coref in ("", " --no-coref")
       for flags in (no_coref, f"{no_coref} --ceafe-drop-singletons")},
}


def _brat_expected(command: str, corpus, links: dict, gold) -> tuple[str, str]:
    """The output and the table of ``command`` on a faultless tree, from the library."""
    if command == "baseline":
        return write_jsonl(resolve_corpus(corpus)), ""
    if command == "convert":
        return write_jsonl(corpus), ""
    if command == "populate":
        kg = populate(corpus, CollapseStrategy(DomainScope.IN_DOMAIN))
        return export_kg_jsonl(kg), kg_stats(kg, corpus).to_tsv()
    if command == "compile-gold":
        return write_gold_jsonl(compile_gold(attach_entity_links(corpus, links))), ""
    _, strategy, *flags = command.split()
    result = evaluate_population(
        gold, corpus, CollapseStrategy(_SCOPES[strategy], "--no-coref" not in flags),
        ceafe_drop_singleton_response_parts="--ceafe-drop-singletons" in flags)
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
        if command not in ("baseline", "convert"):  # these write nothing before the end
            assert out == ""


#: the faults a column file may carry, at most one each: a chain cell that does not parse,
#: a row of its token table that does not, and a byte that is not UTF-8 at its end
COLUMN_FAULTS = [None, "bad-cell", "bad-row", "not-utf8"]


def _column_file(path, corpus, fault, position: int) -> None:
    """``corpus`` written as the column file at ``path`` and its token table, with
    ``fault`` injected at the token or row ``position`` (see ``COLUMN_FAULTS``;
    "bad-cell-and-row" injects both, and "wide-span" makes a row one wider)."""
    columns, table = write_coref_columns(corpus)
    lines, rows = columns.splitlines(), table.splitlines()
    if fault in ("bad-cell", "bad-cell-and-row"):
        tokens = [i for i, line in enumerate(lines) if not line.startswith("#")]
        i = tokens[position % len(tokens)]
        lines[i] = lines[i].rsplit("\t", 1)[0] + "\t(x"
    if fault in ("bad-row", "bad-cell-and-row"):
        rows[position % len(rows)] = "garbage row"
    elif fault == "wide-span":
        doc_id, index, start, end = rows[position % len(rows)].split("\t")
        rows[position % len(rows)] = f"{doc_id}\t{index}\t{start}\t{int(end) + 1}"
    tail = b"\xff\n" if fault == "not-utf8" else b""
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8") + tail)
    Path(f"{path}.tokens").write_text("".join(row + "\n" for row in rows), "utf-8")


#: each input format of score: the faults an input may carry, and its path's name
SCORE_INPUTS = {"jsonl": (FAULTS, "{}.jsonl"), "brat": (BRAT_FAULTS, "{}"),
                "conll": (COLUMN_FAULTS, "{}.conll")}


def _score_input(root, fmt: str, side: str, corpus, fault, position: int):
    """The path of ``corpus`` written under ``root`` as the ``side`` input in ``fmt``,
    with ``fault`` injected; for the fault "missing", nothing is written there."""
    path = root / SCORE_INPUTS[fmt][1].format(side)
    if fault == "missing":
        return path
    if fmt == "jsonl":
        _faulty_file(path, corpus, fault, position % len(corpus))
    elif fmt == "brat":
        _faulty_tree(path, corpus, fault, position)
    else:
        _column_file(path, corpus, fault, position)
    return path


@pytest.mark.parametrize("fmt", SCORE_INPUTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n_docs=st.integers(6, 12),
       block=st.sampled_from([1, 2, 3]), position=st.integers(0, 40))
def test_every_process_count_scores_as_one(tmp_path_factory, fmt, data, seed, n_docs, block,
                                           position):
    # a faultless input half the time, so that both inputs are at times faultless
    faults = st.none() | st.sampled_from([*SCORE_INPUTS[fmt][0][1:], "missing"])
    key_fault, response_fault = data.draw(faults, "key fault"), data.draw(faults, "response fault")
    root = tmp_path_factory.mktemp("score")
    corpus = random_corpus(random.Random(seed), n_docs=n_docs)
    response_corpus = resolve_corpus(Corpus(corpus.documents[1:]))  # one key document twinless
    key = _score_input(root, fmt, "key", corpus, key_fault, position)
    response = _score_input(root, fmt, "response", response_corpus, response_fault, position)
    # one worker reads the response while the key is read, whatever is at fault
    outcome = _outcome(root, response, ["score", "--key", str(key)], "report.json", block,
                       "--json-out", in_flag="--response",
                       workers=lambda cpus: int(cpus > 1 and response_fault != "missing"))
    if key_fault is None and response_fault is None:
        report = score_corpora(corpus, response_corpus)
        table, payload = report.to_table(), json.dumps(report.to_dict(), indent=2,
                                                       sort_keys=True) + "\n"
        assert outcome == {False: (0, table, "", {"report.json": payload.encode("utf-8")}),
                           True: (0, payload, table, {})}
        return
    for status, out, err, files in outcome.values():
        assert (status, out, files) == (2, "", {}) and err.startswith("error: ")
        if key_fault is not None:  # a key fault wins over any fault of the response
            assert str(key) in err and str(response) not in err
        else:
            assert str(response) in err


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("command", ["baseline", "convert"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(6, 12),
       block=st.sampled_from([1, 2, 3]), fault=st.sampled_from(BRAT_FAULTS),
       position=st.integers(0, 11))
def test_every_process_count_writes_a_brat_tree_to_a_column_file_or_brat_tree_as_one(
        tmp_path_factory, command, output, seed, n_docs, block, fault, position):
    root = tmp_path_factory.mktemp("brat-outputs")
    corpus = _brat_tree(root / "in", seed, n_docs, fault, position)
    outcome = _outcome(root, root / "in", [command], OUTPUTS[output], block, stdout=False)
    _check_written(root, outcome, command, output, corpus, fault, "txt-not-utf8")


def _split_corpus(tmp_path, monkeypatch, cpus: int, first: bytes | None = None,
                  last: bytes | None = None):
    """The path of a JSONL file of 12 documents, ``first`` before them and
    ``last`` after them, read in blocks of 2 and cut into ``cpus`` ranges."""
    monkeypatch.setattr(jsonl, "_BLOCK", 2)
    monkeypatch.setattr(parallel, "_cpus", lambda: cpus)
    corpus = write_jsonl(random_corpus(random.Random(8), n_docs=12)).encode("utf-8")
    lines = [first, *corpus.splitlines(), last]
    src = tmp_path / "in.jsonl"
    src.write_bytes(b"".join(line + b"\n" for line in lines if line is not None))
    assert len(parallel._ranges(src, "jsonl", cpus)[1]) == cpus - 1
    return src


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("output", OUTPUTS)
def test_a_read_fault_in_the_last_document_leaves_an_existing_output_as_it_was(
        tmp_path, monkeypatch, capsys, output, cpus):
    src = _split_corpus(tmp_path, monkeypatch, cpus, last=BAD_JSON)
    out_dir = tmp_path / "out"
    before = _library_files(random_corpus(random.Random(9), n_docs=5), output, out_dir)
    assert main(["convert", "--in", str(src), "--out", str(out_dir / OUTPUTS[output])]) == 2
    assert capsys.readouterr().err == f"error: {src}: line 13: invalid JSON: Expecting value\n"
    assert _files(out_dir) == before  # byte for byte, with no staging directory or temporary


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("output", OUTPUTS)
def test_a_read_fault_in_the_last_range_wins_over_a_refusal_in_the_first(
        tmp_path, monkeypatch, capsys, output, cpus):
    out = tmp_path / "out" / OUTPUTS[output]
    out.parent.mkdir()
    for last, err in ((BAD_JSON, "error: {src}: line 14: invalid JSON: Expecting value\n"),
                      (None, REFUSALS[output].format(out=str(out / "CS" / "refused")))):
        src = _split_corpus(tmp_path, monkeypatch, cpus, first=REFUSED, last=last)
        assert main(["baseline", "--in", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == err.format(src=src)
        assert _files(out.parent) == {}


#: a forking command of each map: its argv after its input, given the gold and links
#: files; the name of its output file; its output flag
FORKING = {command: BRAT_COMMANDS[command] for command in (
    "baseline", "convert", "populate", "compile-gold", "eval-kg in --no-coref")}


@pytest.mark.parametrize("command", FORKING)
def test_a_fault_in_a_workers_range_is_found_by_this_process_reading_it_again(
        tmp_path, monkeypatch, command):
    src = _split_corpus(tmp_path, monkeypatch, 3, last=BAD_JSON)
    corpus = random_corpus(random.Random(8), n_docs=12)  # the documents of src
    links = _links(corpus, 0)
    gold, links_path = tmp_path / "gold.jsonl", tmp_path / "links.tsv"
    gold.write_text(write_gold_jsonl(compile_gold(attach_entity_links(
        corpus, links, skip_unmatched=True))), "utf-8")
    _links_file(links_path, links)
    argv, name, out_flag = FORKING[command]
    outcomes = []
    for cpus in (1, 2, 3):
        forks, joins = [], []
        outcomes.append(_run(src, tmp_path / f"out-{cpus}", cpus, False, forks,
                             argv(gold, links_path), name, out_flag, joins=joins))
        # of the workers, only that of the last range, which holds the fault, failed
        assert len(forks) == len(joins) == cpus - 1
        assert all(joins[:-1]) and joins[-1:] == [None] * (cpus > 1), joins
    status, out, err, files = outcomes[0]
    assert (status, out, files) == (2, "", {})
    assert err == f"error: {src}: line 13: invalid JSON: Expecting value\n"
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


#: two doc_ids of domain CS whose BRAT targets collide, and how the writer words it, given
#: the output tree: one target, or a file of one target that the other needs as a directory
COLLIDING = [
    ("a", "CS/a", lambda out: f"doc_ids 'a' and 'CS/a' would both be written to "
                              f"{str(out / 'CS' / 'a')!r}"),
    *((first, last, lambda out, first=first, last=last: (
        f"doc_ids {first!r} and {last!r} would be written to {str(out / first)!r} and "
        f"{str(out / last)!r}, which need {str(out / 'CS' / 'x.txt')!r} to be both a file and "
        f"a directory"))
      for first, last in (("CS/x.txt/y", "CS/x"), ("CS/x", "CS/x.txt/y"))),
]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("first, last, why", COLLIDING, ids=[f"{a} {b}" for a, b, _ in COLLIDING])
def test_two_doc_ids_of_one_brat_target_in_different_ranges_are_refused(tmp_path, monkeypatch,
                                                                        capsys, cpus, first, last,
                                                                        why):
    src = _split_corpus(tmp_path, monkeypatch, cpus,
                           first=write_jsonl(Corpus((Document(first, "CS", "ab"),))).encode(),
                           last=write_jsonl(Corpus((Document(last, "CS", "ab"),))).encode())
    out = tmp_path / "out" / "tree"
    out.parent.mkdir()
    assert main(["convert", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {why(out)}\n"
    assert _files(out.parent) == {}


def _faultless_corpus(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonl, "_BLOCK", 2)
    monkeypatch.setattr(parallel, "_cpus", lambda: 3)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(random_corpus(random.Random(3), n_docs=12)), "utf-8")
    assert len(parallel._ranges(src, "jsonl", 3)[1]) == 2
    return src


class _Interrupted(io.StringIO):
    """A stdout on which the first write is interrupted, as by Ctrl-C."""

    def writelines(self, lines):
        next(iter(lines))
        raise KeyboardInterrupt


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_main_process(tmp_path, monkeypatch, exception):
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["baseline"])


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_column_or_brat_output(tmp_path, monkeypatch, exception,
                                                                  output):
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["baseline"],
                             name=OUTPUTS[output])


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_populate(tmp_path, monkeypatch, exception):
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["populate", "--strategy", "cross"])


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_compile_gold_of_a_brat_tree(tmp_path, monkeypatch,
                                                                       exception):
    monkeypatch.setattr(jsonl, "_BLOCK", 2)
    monkeypatch.setattr(parallel, "_cpus", lambda: 3)
    src = tmp_path / "brat"
    write_brat_dir(random_corpus(random.Random(3), n_docs=12), src)
    assert len(parallel._ranges(src, "brat", 3)[1]) == 2
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["compile-gold"], src)


@pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_interrupted_score(tmp_path, monkeypatch, exception):
    src = _faultless_corpus(tmp_path, monkeypatch)
    _interrupt_while_waiting(tmp_path, monkeypatch, exception, ["score", "--key", str(src)], src,
                             "report.json", in_flag="--response", out_flag="--json-out")


def _interrupt_while_waiting(tmp_path, monkeypatch, exception, command, src=None,
                             name="out.jsonl", in_flag="--in", out_flag="--out"):
    src = src or _faultless_corpus(tmp_path, monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def interrupted(worker):
        raise exception

    monkeypatch.setattr(parallel._Worker, "join", interrupted)  # while it waits for a worker
    with pytest.raises(exception) as raised:
        main([*command, in_flag, str(src), out_flag, str(out_dir / name)])
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


@pytest.mark.parametrize("block", [1, 2, 3])
def test_cuts_are_whole_blocks_that_cover_the_items_once_in_order(monkeypatch, block):
    monkeypatch.setattr(jsonl, "_BLOCK", block)
    for items in range(1, 14):
        for parts in range(1, 6):
            cuts = parallel._cuts(items, parts)
            bounds = [0, *cuts, items]
            assert len(bounds) - 1 <= parts
            assert all(a < b for a, b in zip(bounds, bounds[1:]))  # each item once, in order
            assert all(cut % block == 0 for cut in cuts)
            # each cut is the whole block nearest to an equal share: i * items / parts
            assert all(min(abs(2 * parts * cut - 2 * items * i) for i in range(1, parts))
                       <= parts * block for cut in cuts)
            assert (cuts == []) is (items < 2 * block or parts == 1)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_the_ranges_of_a_corpus_read_as_the_whole_corpus(tmp_path, monkeypatch, block):
    monkeypatch.setattr(jsonl, "_BLOCK", block)
    corpus = random_corpus(random.Random(4), n_docs=11)
    write_brat_dir(corpus, tmp_path / "brat")
    whole = {"brat": [doc.doc_id for doc in read_brat_dir(tmp_path / "brat")],
             "in.jsonl": [doc.doc_id for doc in corpus]}
    (tmp_path / "in.jsonl").write_text(write_jsonl(corpus).replace("\n", "\r\n", 3), "utf-8")
    for name, doc_ids in whole.items():
        for parts in range(1, 5):
            read, starts = parallel._ranges(tmp_path / name, _format(tmp_path / name), parts)
            ranges = list(zip([0, *starts], [*starts, None]))
            assert len(ranges) == 1 + len(parallel._cuts(11, parts)) >= min(parts, 2)
            assert [doc.doc_id for start, stop in ranges for doc in read(start, stop)] == doc_ids
    columns, table = write_coref_columns(corpus)
    (tmp_path / "in.conll").write_text(columns, "utf-8")
    (tmp_path / "in.conll.tokens").write_text(table, "utf-8")
    for parts in range(1, 5):  # a column file is one range
        read, starts = parallel._ranges(tmp_path / "in.conll", "conll", parts)
        assert starts == []
        assert [doc.doc_id for doc in read(0, None)] == whole["in.jsonl"]


def _bad_jsonl_line(tmp_path, corpus):
    path = tmp_path / "in.jsonl"
    lines = write_jsonl(corpus).splitlines()
    lines[1] = "nonsense"
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return path, "jsonl", path, 2


def _bad_column_line(tmp_path, corpus):
    path = tmp_path / "in.conll"
    _column_file(path, corpus, "bad-cell", 0)  # the first token, on line 2
    return path, "conll", path, 2


def _bad_table_row_and_column_line(tmp_path, corpus):
    path = tmp_path / "in.conll"
    _column_file(path, corpus, "bad-cell-and-row", 2)  # the table's fault, on its line 3, wins
    return path, "conll", Path(f"{path}.tokens"), 3


def _span_that_does_not_fit(tmp_path, corpus):
    path = tmp_path / "in.conll"
    _column_file(path, corpus, "wide-span", 0)  # of the first document's first token
    end_line = path.read_text("utf-8").splitlines().index("#end document") + 1
    return path, "conll", path, end_line


def _bad_ann_line(tmp_path, corpus):
    root = tmp_path / "tree"
    write_brat_dir(corpus, root)
    ann = sorted(root.rglob("*.ann"))[1]
    ann.write_text("nonsense\n" + ann.read_text("utf-8"), "utf-8")
    return root, "brat", ann, 1


@pytest.mark.parametrize("faulty", [_bad_jsonl_line, _bad_column_line,
                                    _bad_table_row_and_column_line, _span_that_does_not_fit,
                                    _bad_ann_line])
def test_the_reader_of_each_format_names_the_file_and_line_of_its_fault(tmp_path, faulty):
    path, fmt, at, line = faulty(tmp_path, random_corpus(random.Random(6), n_docs=3))
    read, starts = parallel._ranges(path, fmt, 1)
    with pytest.raises(ParseError) as err:
        list(read(0, None))
    assert (err.value.path, err.value.line) == (str(at), line)


def test_a_jsonl_file_of_fewer_than_two_blocks_is_read_by_one_process(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(random_corpus(random.Random(3), n_docs=2 * jsonl._BLOCK - 1)),
                   "utf-8")
    assert parallel._ranges(src, "jsonl", 4)[1] == []
    with open(src, "ab") as f:
        f.write(b"\n")
    assert len(parallel._ranges(src, "jsonl", 4)[1]) == 1  # the blank line makes two blocks
    assert parallel._ranges(os.devnull, "jsonl", 4)[1] == []  # not a regular file


def test_no_worker_starts_below_the_size_floor(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonl, "_BLOCK", 3)
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


#: each map the command line hands to ``parallel.records`` or ``parallel.aside``: a command
#: whose arguments name the input, an output directory, the gold KG and the links file
MAPS = {
    **{f"{command} to {fmt}": f"{command} --in {{src}} --out {{out}}/corpus{suffix}"
       for command in ("convert", "baseline")
       for fmt, suffix in (("jsonl", ".jsonl"), ("conll", ".conll"), ("brat", ""))},
    "populate fragments": "populate --in {src} --strategy cross --out {out}/kg.jsonl",
    "populate no payload": "populate --in {src} --strategy cross --format ntriples "
                           "--out {out}/kg.nt",
    "compile-gold links": "compile-gold --in {src} --links {links} --out {out}/gold.jsonl",
    "eval-kg restriction": "eval-kg --in {src} --gold {gold} --strategy in "
                           "--json-out {out}/eval.json",
    "score parts": "score --key {src} --response {src} --json-out {out}/report.json",
}


@pytest.mark.parametrize("command", MAPS.values(), ids=MAPS.keys())
def test_every_map_of_the_command_line_yields_records_marshal_carries(tmp_path, monkeypatch,
                                                                       capsys, command):
    # a record marshal cannot carry makes every worker fail, and the main process then
    # reads every range itself, with the same output
    corpus = random_corpus(random.Random(19), n_docs=12)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(corpus), "utf-8")
    links = {key: entity for key, entity in _links(corpus, 19).items() if key != NOWHERE}
    _links_file(tmp_path / "links.tsv", links)
    gold = compile_gold(attach_entity_links(corpus, links))
    (tmp_path / "gold.jsonl").write_text(write_gold_jsonl(gold), "utf-8")
    mapped = []

    def recorded(chain):
        def chain_recorded(docs):
            for record in chain(docs):
                mapped.append(record)
                yield record
        return chain_recorded

    monkeypatch.setattr(parallel, "_processes", lambda: 1)  # every map runs here, where seen
    for name in ("records", "aside"):
        monkeypatch.setattr(parallel, name, lambda path, fmt, chain, run=getattr(parallel, name):
                            run(path, fmt, recorded(chain)))
    (tmp_path / "out").mkdir()
    paths = {"src": src, "out": tmp_path / "out", "gold": tmp_path / "gold.jsonl",
             "links": tmp_path / "links.tsv"}
    assert main([arg.format(**paths) for arg in command.split()]) == 0
    assert len(mapped) == len(corpus.documents)  # one record per document
    assert marshal.loads(marshal.dumps(mapped)) == mapped
