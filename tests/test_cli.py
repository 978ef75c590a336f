import gc
import itertools
import json
import os
import random
import re
from pathlib import Path

import pytest

import corefkg
from corefkg import cli, jsonl
from corefkg.baseline import resolve_corpus
from corefkg.brat import read_brat_dir, write_brat_dir
from corefkg.cli import main
from corefkg.conll import read_coref_columns, write_coref_columns
from corefkg.goldkg import compile_gold, write_gold_jsonl
from corefkg.jsonl import read_jsonl, write_jsonl
from corefkg.kgpop import (CollapseStrategy, DomainScope, export_kg_jsonl, export_ntriples,
                           kg_stats, populate)
from corefkg.model import ConceptType, CoreferenceCluster, Corpus, Document, Mention, corpus_stats

from clirun import PACKAGE_ROOT, run_cli, run_python
from corpusgen import random_corpus


@pytest.fixture
def corpus_path(tmp_path):
    text = "alpha beta alpha"
    a = Mention("d1", 0, 5, ConceptType.DATA, "alpha")
    b = Mention("d1", 6, 10, ConceptType.MATERIAL, "beta")
    c = Mention("d1", 11, 16, ConceptType.DATA, "alpha")
    doc = Document("d1", "CS", text, (a, b, c),
                   (CoreferenceCluster("d1", frozenset([a, c])),),
                   entity_links={a: "Q1", c: "Q1"})
    path = tmp_path / "corpus.jsonl"
    path.write_text(write_jsonl(Corpus((doc,))), "utf-8")
    return path


def test_score_identical_is_all_ones(corpus_path, capsys):
    code = main(["score", "--key", str(corpus_path), "--response", str(corpus_path)])
    out = capsys.readouterr().out
    assert code == 0
    table = out.split("\n\n")[0] if "\n\n" in out else out
    for line in out.splitlines()[1:5]:
        name, p, r, f1 = line.split("\t")
        assert (p, r, f1) == ("100.00", "100.00", "100.00")


def test_score_json_report(corpus_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["score", "--key", str(corpus_path), "--response", str(corpus_path),
                 "--json-out", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text("utf-8"))
    assert payload["conll"]["f1"] == 1.0
    assert payload["muc"]["exact"]["f1"] == "1"


def test_populate_empty_corpus(tmp_path, capsys):
    src = tmp_path / "empty.jsonl"
    src.write_text("", "utf-8")
    out = tmp_path / "kg.nt"
    code = main(["populate", "--in", str(src), "--strategy", "in", "--no-coref",
                 "--format", "ntriples", "--out", str(out)])
    assert code == 0
    assert out.read_text("utf-8") == ""
    stats = capsys.readouterr().out
    assert stats.startswith("stat\t")


def test_populate_writes_kg_and_stats(corpus_path, tmp_path, capsys):
    out = tmp_path / "kg.jsonl"
    code = main(["populate", "--in", str(corpus_path), "--strategy", "cross",
                 "--out", str(out)])
    assert code == 0
    assert '"record": "kg"' in out.read_text("utf-8")
    assert "reduction" in capsys.readouterr().out


@pytest.mark.parametrize("kg_format", ["jsonl", "ntriples"])
def test_populate_to_stdout_writes_the_stats_table_to_stderr(corpus_path, tmp_path, capsys,
                                                             kg_format):
    argv = ["populate", "--in", str(corpus_path), "--strategy", "cross", "--format", kg_format]
    assert main([*argv, "--out", str(tmp_path / "kg")]) == 0
    to_file = capsys.readouterr()
    assert main([*argv, "--out", "-"]) == 0
    to_stdout = capsys.readouterr()
    assert to_file.out.startswith("stat\t") and to_file.err == ""
    assert to_stdout.out == (tmp_path / "kg").read_text("utf-8")
    assert to_stdout.err == to_file.out
    if kg_format == "jsonl":
        assert all(json.loads(line) for line in to_stdout.out.splitlines())


def test_corpus_output_dash_is_jsonl_on_stdout(corpus_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    corpus = read_jsonl(corpus_path.read_text("utf-8"))
    assert main(["baseline", "--in", str(corpus_path), "--out", "-"]) == 0
    assert capsys.readouterr().out == write_jsonl(resolve_corpus(corpus))
    assert main(["--format", "jsonl", "convert", "--in", str(corpus_path), "--out", "-"]) == 0
    assert capsys.readouterr().out == write_jsonl(corpus)
    assert not os.path.lexists("-")


@pytest.mark.parametrize("argv", [
    ["convert", "--to", "brat"],
    ["convert", "--to", "conll"],
    ["--format", "conll", "baseline"],
], ids=["convert-brat", "convert-conll", "baseline-conll"])
def test_corpus_output_dash_refuses_brat_and_conll(tmp_path, monkeypatch, capsys, argv):
    rng = random.Random(5)
    (tmp_path / "in.conll").write_text(write_coref_columns(random_corpus(rng))[0], "utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--in", "in.conll", "--out", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cannot be written to stdout" in err
    assert sorted(os.listdir(tmp_path)) == ["in.conll"]


def test_brat_output_that_would_lose_a_document_exits_2_before_writing(tmp_path, capsys):
    docs = [Document(doc_id, "CS", "ab") for doc_id in ("a", "CS/a")]
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(Corpus(tuple(docs))), "utf-8")
    assert main(["convert", "--in", str(src), "--out", str(tmp_path / "brat")]) == 2
    assert "would both be written to" in capsys.readouterr().err
    assert not (tmp_path / "brat").exists()


@pytest.mark.parametrize("out", ["file", "link", "/dev/null"])
def test_a_brat_output_that_exists_and_is_not_a_directory_is_refused_before_reading(
        tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    Path("in.jsonl").write_text("not json\n", "utf-8")  # a read would fault
    Path("file").write_text("kept\n", "utf-8")
    if out == "link":
        os.symlink("file", "link")
    elif not os.path.exists(out):
        pytest.skip(f"no {out} on this platform")
    assert main(["convert", "--in", "in.jsonl", "--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: BRAT output {out!r} exists and is not a "
                                       f"directory\n")
    assert Path("file").read_text("utf-8") == "kept\n"
    assert not os.path.lexists("{}/.{}.{}.tmp".format(*os.path.split(os.path.realpath(out)),
                                                      os.getpid()))  # no staging directory
    assert sorted(os.listdir()) == sorted({"in.jsonl", "file", out} - {"/dev/null"})


def test_a_doc_id_the_column_writer_cannot_write_is_refused_at_its_input_line(tmp_path, capsys):
    docs = [Document(doc_id, "CS", "ab") for doc_id in ("a", "a b")]
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(Corpus(tuple(docs))), "utf-8")
    assert main(["convert", "--in", str(src), "--out", str(tmp_path / "out.conll")]) == 2
    assert capsys.readouterr().err == f"error: {src}: line 2: doc_id 'a b' contains whitespace\n"
    assert sorted(tmp_path.iterdir()) == [src]


def test_conll_output_of_a_hash_led_doc_id_exits_2_before_writing(tmp_path, capsys):
    # the column format reads a "#"-led line as a comment, so the doc_id rule
    # refuses "#g" as the corpus is read, before anything is written
    docs = [Document(doc_id, "CS", "ab", (Mention(doc_id, 0, 2, ConceptType.DATA, "ab"),))
            for doc_id in ("#g", "h")]
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(Corpus(tuple(docs))), "utf-8")
    assert main(["convert", "--in", str(src), "--out", str(tmp_path / "out.conll")]) == 2
    assert capsys.readouterr().err == f"error: {src}: line 1: doc_id '#g' starts with '#'\n"
    assert not (tmp_path / "out.conll").exists()
    assert not (tmp_path / "out.conll.tokens").exists()


def test_malformed_ann_exits_2_with_line(tmp_path, capsys):
    root = tmp_path / "brat"
    root.mkdir()
    (root / "x.txt").write_text("hello", "utf-8")
    (root / "x.ann").write_text("T1\tMaterial 0 2\the\ngarbage line\n", "utf-8")
    code = main(["stats", "--in", str(root)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_validation_violations_printed(tmp_path, capsys):
    bad = '{"doc_id":"d","domain":"","text":"ab","mentions":[{"start":1,"end":1,"type":"Data"}],"clusters":[]}'
    src = tmp_path / "bad.jsonl"
    src.write_text(bad, "utf-8")
    code = main(["stats", "--in", str(src)])
    err = capsys.readouterr().err
    assert code == 2
    assert "offset order violated" in err


def test_usage_error_exits_1(capsys):
    assert main(["score", "--key"]) == 1
    assert main(["--bogus-flag"]) == 1
    assert main([]) == 1


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["stats", "--in", str(tmp_path / "nope.jsonl")]) == 2


def test_convert_jsonl_brat_roundtrip(tmp_path, capsys):
    rng = random.Random(12)
    corpus = random_corpus(rng, n_docs=3)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(corpus), "utf-8")
    brat_dir = tmp_path / "brat"
    assert main(["convert", "--in", str(src), "--out", str(brat_dir)]) == 0
    back = tmp_path / "back.jsonl"
    assert main(["convert", "--in", str(brat_dir), "--out", str(back)]) == 0
    restored = read_jsonl(back.read_text("utf-8"))
    # directory reads are path-sorted, so compare documents by id
    assert {d.doc_id: d for d in restored} == {d.doc_id: d for d in corpus}


def test_convert_to_conll_and_score(tmp_path, capsys):
    rng = random.Random(13)
    corpus = random_corpus(rng, n_docs=2)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(corpus), "utf-8")
    conll_path = tmp_path / "out.conll"
    assert main(["convert", "--in", str(src), "--out", str(conll_path),
                 "--to", "conll"]) == 0
    assert (tmp_path / "out.conll.tokens").exists()
    capsys.readouterr()
    code = main(["score", "--key", str(conll_path), "--response", str(conll_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "CoNLL" in out


def test_stats_table(corpus_path, capsys):
    assert main(["stats", "--in", str(corpus_path), "--group-by", "domain"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("domain\t")
    assert "CS\t3\t2\t1\t1\t2" in out


def test_baseline_roundtrip(corpus_path, tmp_path):
    out = tmp_path / "resolved.jsonl"
    assert main(["baseline", "--in", str(corpus_path), "--out", str(out)]) == 0
    resolved = read_jsonl(out.read_text("utf-8"))
    assert len(resolved.documents[0].clusters) >= 1


def test_compile_gold_and_eval(corpus_path, tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    assert main(["compile-gold", "--in", str(corpus_path), "--out", str(gold_path)]) == 0
    assert main(["eval-kg", "--in", str(corpus_path), "--gold", str(gold_path),
                 "--strategy", "in"]) == 0
    out = capsys.readouterr().out
    assert "concepts\t" in out


def test_compile_gold_with_links_file(tmp_path, capsys):
    text = "alpha beta"
    a = Mention("d1", 0, 5, ConceptType.DATA, "alpha")
    b = Mention("d1", 6, 10, ConceptType.MATERIAL, "beta")
    doc = Document("d1", "CS", text, (a, b))
    src = tmp_path / "c.jsonl"
    src.write_text(write_jsonl(Corpus((doc,))), "utf-8")
    links = tmp_path / "links.tsv"
    links.write_text("d1\t0\t5\tData\tQ_alpha\n", "utf-8")
    gold_path = tmp_path / "gold.jsonl"
    assert main(["compile-gold", "--in", str(src), "--links", str(links),
                 "--out", str(gold_path)]) == 0
    assert "Q_alpha" in gold_path.read_text("utf-8")


@pytest.mark.parametrize("row, message", [
    ("d1\t5\t2\tData\tQ", r"offset order violated @ d1\[5,2\)"),
    ("d1\t5\t2\tBogus\tQ", "unknown concept type 'Bogus'"),
    ("d1\t0\t5\tMixed\tQ", r"mention typed Mixed @ d1\[0,5\)"),
], ids=["reversed", "unknown-type", "mixed"])
def test_compile_gold_rejects_link_rows_no_mention_can_match(tmp_path, capsys, row, message):
    doc = Document("d1", "CS", "alpha", (Mention("d1", 0, 5, ConceptType.DATA, "alpha"),))
    src = tmp_path / "c.jsonl"
    src.write_text(write_jsonl(Corpus((doc,))), "utf-8")
    links = tmp_path / "links.tsv"
    links.write_text(f"d1\t0\t5\tData\tQ_alpha\n{row}\n", "utf-8")
    assert main(["compile-gold", "--in", str(src), "--links", str(links), "--skip-unmatched-links",
                 "--out", str(tmp_path / "gold.jsonl")]) == 2
    assert re.search(f"line 2: {message}", capsys.readouterr().err)


def test_identical_invocations_byte_identical(tmp_path, capsys):
    rng = random.Random(14)
    corpus = random_corpus(rng, n_docs=3)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(corpus), "utf-8")
    out1, out2 = tmp_path / "kg1.nt", tmp_path / "kg2.nt"
    for out in (out1, out2):
        assert main(["populate", "--in", str(src), "--strategy", "cross",
                     "--format", "ntriples", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture
def ox_corpus(tmp_path):
    """'oxen' and 'ox' merge into one concept only under an oxen -> ox table."""
    from corefkg.normalize import set_default_lemma_exceptions

    text = "oxen and ox"
    m1 = Mention("d", 0, 4, ConceptType.MATERIAL, "oxen")
    m2 = Mention("d", 9, 11, ConceptType.MATERIAL, "ox")
    src = tmp_path / "ox.jsonl"
    src.write_text(write_jsonl(Corpus((Document("d", "Agr", text, (m1, m2)),))), "utf-8")
    yield src
    set_default_lemma_exceptions(None)


def _populated_concepts(src, out, *global_flags) -> int:
    assert main([*global_flags, "populate", "--in", str(src), "--strategy", "in",
                 "--out", str(out)]) == 0
    return out.read_text("utf-8").count('"record": "concept"')


def test_lemma_exceptions_flag_changes_labels(ox_corpus, tmp_path, capsys):
    table = tmp_path / "irregular.tsv"
    table.write_text("oxen\tox\n", "utf-8")
    # default rules leave 'oxen' alone (two concepts); the override merges them
    assert _populated_concepts(ox_corpus, tmp_path / "kg1.jsonl") == 2
    assert _populated_concepts(ox_corpus, tmp_path / "kg2.jsonl",
                               "--lemma-exceptions", str(table)) == 1


def test_lemma_exceptions_flag_holds_for_one_call(ox_corpus, tmp_path, capsys):
    table = tmp_path / "irregular.tsv"
    table.write_text("oxen\tox\n", "utf-8")
    assert _populated_concepts(ox_corpus, tmp_path / "kg1.jsonl",
                               "--lemma-exceptions", str(table)) == 1
    # the next call without the flag labels with the packaged table again
    assert _populated_concepts(ox_corpus, tmp_path / "kg2.jsonl") == 2
    # also after a command that failed with the flag set
    assert main(["--lemma-exceptions", str(table), "populate", "--in", str(tmp_path / "nope.jsonl"),
                 "--strategy", "in", "--out", str(tmp_path / "kg3.jsonl")]) == 2
    assert _populated_concepts(ox_corpus, tmp_path / "kg4.jsonl") == 2


def test_an_empty_lemma_exceptions_value_is_refused(ox_corpus, tmp_path, capsys):
    # the flag names a file that does not exist, not the packaged table
    assert main(["--lemma-exceptions", "", "populate", "--in", str(ox_corpus),
                 "--strategy", "in", "--out", str(tmp_path / "kg.jsonl")]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
    assert not (tmp_path / "kg.jsonl").exists()


def test_brat_root_must_be_a_directory(corpus_path, capsys):
    assert main(["--format", "brat", "stats", "--in", str(corpus_path)]) == 2
    assert "BRAT root is not a directory" in capsys.readouterr().err


def test_removed_global_options_are_usage_errors(capsys):
    assert main(["--jobs", "2", "stats", "--in", "x.jsonl"]) == 1
    assert main(["--seed", "0", "stats", "--in", "x.jsonl"]) == 1
    assert main(["--config", "f", "stats", "--in", "x.jsonl"]) == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_pauses_gc_and_restores_the_callers_state(enabled, corpus_path, tmp_path,
                                                       monkeypatch, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", "utf-8")
    during = []
    stats = cli._COMMANDS["stats"]
    monkeypatch.setitem(cli._COMMANDS, "stats",
                        lambda args: during.append(gc.isenabled()) or stats(args))
    runs = [(["stats", "--in", str(corpus_path)], 0),
            (["stats", "--bogus"], 1),
            (["stats", "--in", str(bad)], 2)]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in runs:
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False, False]


@pytest.fixture
def linked_corpus_path(tmp_path):
    """Generated documents with non-ASCII text, U+2028 and non-ASCII entity links."""
    rng = random.Random(42)
    corpus = Corpus(tuple(
        Document(d.doc_id, d.domain, d.text + "\u2028é", d.mentions, d.clusters,
                 entity_links={m: rng.choice(["Q1", "Q_é", "Q\u2028"]) for m in d.mentions})
        for d in random_corpus(random.Random(41), n_docs=12)
    ))
    path = tmp_path / "linked.jsonl"
    path.write_text(write_jsonl(corpus), "utf-8")
    return path


def test_streamed_files_equal_the_library_strings(linked_corpus_path, tmp_path, capsys):
    corpus = read_jsonl(linked_corpus_path.read_text("utf-8"))
    src = str(linked_corpus_path)
    pred, kg, gold = tmp_path / "pred.jsonl", tmp_path / "kg.jsonl", tmp_path / "gold.jsonl"
    assert main(["baseline", "--in", src, "--out", str(pred)]) == 0
    assert pred.read_bytes() == write_jsonl(resolve_corpus(corpus)).encode("utf-8")
    assert main(["populate", "--in", src, "--strategy", "in", "--format", "jsonl",
                 "--out", str(kg)]) == 0
    expected_kg = export_kg_jsonl(populate(corpus, CollapseStrategy(DomainScope.IN_DOMAIN)))
    assert kg.read_bytes() == expected_kg.encode("utf-8")
    assert main(["compile-gold", "--in", src, "--out", str(gold)]) == 0
    expected_gold = write_gold_jsonl(compile_gold(corpus))
    assert '"Q_é"' in expected_gold
    assert gold.read_bytes() == expected_gold.encode("utf-8")
    capsys.readouterr()
    assert main(["compile-gold", "--in", src]) == 0  # --out defaults to -, stdout
    assert capsys.readouterr().out == expected_gold


POPULATE_STRATEGIES = {
    "cross": (["--strategy", "cross"], CollapseStrategy(DomainScope.CROSS_DOMAIN), False),
    "in-nocoref": (["--strategy", "in", "--no-coref"],
                   CollapseStrategy(DomainScope.IN_DOMAIN, use_coreference=False), False),
    "in-gold": (["--strategy", "in", "--gold"], CollapseStrategy(DomainScope.IN_DOMAIN), True),
}


@pytest.mark.parametrize("kg_format", ["jsonl", "ntriples"])
@pytest.mark.parametrize("flags, strategy, gold", POPULATE_STRATEGIES.values(),
                         ids=POPULATE_STRATEGIES.keys())
def test_streamed_commands_equal_the_whole_corpus_library_results(
        linked_corpus_path, tmp_path, capsys, kg_format, flags, strategy, gold):
    corpus = read_jsonl(linked_corpus_path.read_text("utf-8"))
    assert [d.doc_id for d in corpus] != sorted(d.doc_id for d in corpus)  # any order will do
    pred = tmp_path / "pred.jsonl"
    assert main(["baseline", "--in", str(linked_corpus_path), "--out", str(pred)]) == 0
    predicted = resolve_corpus(corpus)
    assert pred.read_bytes() == write_jsonl(predicted).encode("utf-8")
    export = export_kg_jsonl if kg_format == "jsonl" else export_ntriples
    for source, docs in ((linked_corpus_path, corpus), (pred, predicted)):
        capsys.readouterr()
        out = tmp_path / "kg"
        assert main(["populate", "--in", str(source), *flags, "--format", kg_format,
                     "--out", str(out)]) == 0
        kg = populate(docs, strategy, gold=gold)
        assert out.read_bytes() == export(kg).encode("utf-8")
        table = kg_stats(kg, docs).to_tsv()
        assert "\tMIX\t" in table and capsys.readouterr().out == table


#: a last document that fails, and the error it reports at line 5, after four documents
LAST_LINE_FAULTS = {
    "bad-json": (b'{"doc_id": \n', "line 5: invalid JSON: Expecting value"),
    "not-utf8": (b'{"doc_id": "\xff"}\n', "line 5: not UTF-8: invalid start byte (byte 0xff)"),
    "repeated-id": (None, "line 5: duplicate doc_id"),
}

STREAMED_COMMANDS = {
    "baseline": (["baseline"], "pred.jsonl"),
    "convert": (["convert"], "copy.jsonl"),
    "populate-jsonl": (["populate", "--strategy", "cross", "--format", "jsonl"], "kg.jsonl"),
    "populate-ntriples": (["populate", "--strategy", "in", "--format", "ntriples"], "kg.nt"),
}


def _corpus_with_a_bad_last_line(path: Path, fault: str) -> Corpus:
    """Four documents, then the fault's line; returns the four documents."""
    corpus = random_corpus(random.Random(5), n_docs=4)
    good = write_jsonl(corpus).encode("utf-8")
    last = LAST_LINE_FAULTS[fault][0] or good.partition(b"\n")[0] + b"\n"
    path.write_bytes(good + last)
    return corpus


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("fault", LAST_LINE_FAULTS)
@pytest.mark.parametrize("command, target", STREAMED_COMMANDS.values(), ids=STREAMED_COMMANDS.keys())
def test_a_fault_in_the_last_document_leaves_the_output_as_it_was(tmp_path, capsys, command,
                                                                   target, fault, existing):
    src = tmp_path / "in.jsonl"
    _corpus_with_a_bad_last_line(src, fault)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if existing:
        (out_dir / target).write_text("an earlier output\n", "utf-8")
    before = sorted(out_dir.iterdir())
    assert main([*command, "--in", str(src), "--out", str(out_dir / target)]) == 2
    out, err = capsys.readouterr()
    assert LAST_LINE_FAULTS[fault][1] in err
    assert sorted(out_dir.iterdir()) == before  # no output and no temporary file
    if existing:
        assert (out_dir / target).read_text("utf-8") == "an earlier output\n"
    assert sorted(tmp_path.iterdir()) == [src, out_dir]


def _first_link_row(corpus: Corpus) -> str:
    """An entity-links TSV row for the corpus's first mention."""
    m = next(m for doc in corpus for m in doc.mentions)
    return f"{m.doc_id}\t{m.start}\t{m.end}\t{m.concept_type.value}\tQ1\n"


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("fault", LAST_LINE_FAULTS)
@pytest.mark.parametrize("command", ["compile-gold", "compile-gold-links", "eval-kg", "score"])
def test_a_fault_in_the_last_document_leaves_the_gold_kg_or_report_as_it_was(
        tmp_path, capsys, command, fault, existing):
    inputs, out_dir = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out_dir.mkdir()
    src, good = inputs / "in.jsonl", inputs / "good.jsonl"
    corpus = _corpus_with_a_bad_last_line(src, fault)
    good.write_text(write_jsonl(corpus), "utf-8")
    gold, links = inputs / "gold.jsonl", inputs / "links.tsv"
    gold.write_text(write_gold_jsonl(compile_gold(corpus)), "utf-8")
    links.write_text(_first_link_row(corpus), "utf-8")
    target = out_dir / ("report.json" if command in ("eval-kg", "score") else "gold.jsonl")
    argv = {
        "compile-gold": ["compile-gold", "--in", src, "--out", target],
        "compile-gold-links": ["compile-gold", "--in", src, "--links", links, "--out", target],
        "eval-kg": ["eval-kg", "--in", src, "--gold", gold, "--strategy", "cross",
                    "--json-out", target],
        "score": ["score", "--key", good, "--response", src, "--json-out", target],
    }[command]
    if existing:
        target.write_text("an earlier output\n", "utf-8")
    before = sorted(out_dir.iterdir())
    assert main(list(map(str, argv))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert LAST_LINE_FAULTS[fault][1] in err
    assert sorted(out_dir.iterdir()) == before  # no output and no temporary file
    if existing:
        assert target.read_text("utf-8") == "an earlier output\n"
    assert sorted(tmp_path.iterdir()) == [inputs, out_dir]


def _corpus_of_format(corpus: Corpus, fmt: str, path: Path, faulty: bool) -> Path:
    """``corpus`` written at ``path`` as JSONL or as a BRAT tree; if ``faulty``,
    with a bad last line in the JSONL file or a bad line in one ``.ann`` file."""
    jsonl_path = path.with_suffix(".jsonl")
    last = '{"doc_id": \n' if faulty and fmt == "jsonl" else ""
    jsonl_path.write_text(write_jsonl(corpus) + last, "utf-8")
    if fmt == "jsonl":
        return jsonl_path
    assert main(["convert", "--in", str(jsonl_path), "--out", str(path)]) == 0
    if faulty:
        with open(sorted(path.rglob("*.ann"))[-1], "a", encoding="utf-8") as ann:
            ann.write("garbage line\n")
    return path


@pytest.mark.parametrize("second", ["faulty", "missing"])
@pytest.mark.parametrize("fmt", ["jsonl", "brat"])
@pytest.mark.parametrize("command", ["eval-kg", "compile-gold", "score"])
def test_a_fault_of_the_corpus_is_reported_before_one_of_the_input_read_with_it(
        tmp_path, capsys, command, fmt, second):
    """``eval-kg`` reads its gold KG and ``compile-gold`` its links before the
    corpus, and ``score`` reads its key before the response; a fault of the
    corpus (of the key) is still the one reported, as when it was read first."""
    corpus = random_corpus(random.Random(5), n_docs=4)
    good_corpus = _corpus_of_format(corpus, fmt, tmp_path / "good", faulty=False)
    faulty_corpus = _corpus_of_format(corpus, fmt, tmp_path / "faulty", faulty=True)
    gold, links = tmp_path / "gold.jsonl", tmp_path / "links.tsv"
    gold.write_text(write_gold_jsonl(compile_gold(corpus)), "utf-8")
    links.write_text(_first_link_row(corpus), "utf-8")
    bad = tmp_path / "second.txt"
    if second == "faulty":
        bad.write_text("{not a line any reader takes\n", "utf-8")

    def argv(src, other):
        return list(map(str, {
            "eval-kg": ["eval-kg", "--in", src, "--gold", other, "--strategy", "cross"],
            "compile-gold": ["compile-gold", "--in", src, "--links", other, "--out", "-"],
            "score": ["score", "--key", src, "--response", other],
        }[command]))

    good_other = {"eval-kg": gold, "compile-gold": links, "score": good_corpus}[command]
    capsys.readouterr()
    assert main(argv(faulty_corpus, good_other)) == 2
    out, corpus_fault = capsys.readouterr()
    assert out == ""
    assert ("line 5: invalid JSON" if fmt == "jsonl" else "garbage line") in corpus_fault
    assert main(argv(faulty_corpus, bad)) == 2
    assert capsys.readouterr() == ("", corpus_fault)
    missing = tmp_path / "nowhere.jsonl"
    assert main(argv(missing, bad)) == 2
    assert capsys.readouterr() == ("", f"error: no such file or directory: {missing}\n")
    # with a sound corpus, the other input's fault is the one reported
    assert main(argv(good_corpus, bad)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err not in ("", corpus_fault)


def test_baseline_to_stdout_holds_the_blocks_before_a_fault(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(jsonl, "_BLOCK", 3)  # documents 1-3, then 4 and the fault
    src = tmp_path / "in.jsonl"
    corpus = _corpus_with_a_bad_last_line(src, "bad-json")
    assert main(["baseline", "--in", str(src), "--out", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == write_jsonl(resolve_corpus(Corpus(corpus.documents[:3])))  # complete lines
    assert err == f"error: {src}: line 5: invalid JSON: Expecting value\n"
    # populate writes nothing before it has read every document
    assert main(["populate", "--in", str(src), "--strategy", "cross", "--out", "-"]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command", ["baseline", "convert"])
@pytest.mark.parametrize("form", ["brat", "conll"])
def test_a_corpus_to_stdout_holds_the_blocks_before_a_fault(tmp_path, capsys, monkeypatch, form,
                                                            command):
    monkeypatch.setattr(jsonl, "_BLOCK", 3)  # documents 1-3, then 4 and 5 and a fault
    written = random_corpus(random.Random(5), n_docs=5)
    if form == "brat":
        path = tmp_path / "brat"
        write_brat_dir(written, path)
        corpus = read_brat_dir(path)
        faulty = sorted(path.rglob("*.ann"))[-1]
    else:
        path = faulty = tmp_path / "c.conll"
        columns, table = write_coref_columns(written)
        path.write_text(columns, "utf-8")
        Path(f"{path}.tokens").write_text(table, "utf-8")
        corpus = read_coref_columns(columns, table)
    with open(faulty, "a", encoding="utf-8") as f:
        f.write("garbage line\n")
    assert main([command, "--in", str(path), "--out", "-"]) == 2
    out, err = capsys.readouterr()
    head = Corpus(corpus.documents[:3])
    assert out == write_jsonl(resolve_corpus(head) if command == "baseline" else head)
    assert err.startswith(f"error: {faulty}: line ")


# The faults of a column file and its table, in the order README gives: the
# one earlier in this list wins, wherever each is in its file.
COLUMN_FAULTS = ["table byte", "column byte", "table row", "column cell"]


@pytest.mark.parametrize("command", ["stats", "convert"])
@pytest.mark.parametrize("early, late", itertools.permutations(COLUMN_FAULTS, 2),
                         ids="-then-".join)
def test_the_faults_of_a_column_file_and_its_table_keep_their_order(tmp_path, capsys, command,
                                                                    early, late):
    path = tmp_path / "c.conll"
    tokens = Path(f"{path}.tokens")
    columns, table = write_coref_columns(random_corpus(random.Random(44), n_docs=4))
    lines = {"column": columns.encode("utf-8").splitlines(keepends=True),
             "table": table.encode("utf-8").splitlines(keepends=True)}
    # each fault on line 2 or on the last token line or row of its file
    last = {"column": len(lines["column"]) - 1, "table": len(lines["table"])}  # "#end document"
    where = {early: 2, late: last[late.split()[0]]}
    for fault, line in where.items():
        file, kind = fault.split()
        old = lines[file][line - 1]
        lines[file][line - 1] = {"byte": b"\xff" + old, "row": b"nonsense\n",
                                 "cell": old[:old.rindex(b"\t")] + b"\t(x\n"}[kind]
    path.write_bytes(b"".join(lines["column"]))
    tokens.write_bytes(b"".join(lines["table"]))
    winner = min(early, late, key=COLUMN_FAULTS.index)
    reason = {"byte": "not UTF-8: invalid start byte (byte 0xff)",
              "row": "token table expects 4 columns, got 'nonsense'",
              "cell": "malformed coreference entry '(x'"}[winner.split()[1]]
    target = tokens if winner.startswith("table") else path
    argv = [command, "--in", str(path)] + (["--out", "-"] if command == "convert" else [])
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {target}: line {where[winner]}: {reason}\n")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_column_output_whose_table_cannot_be_written_leaves_the_output_as_it_was(
        tmp_path, capsys, existing):
    out = tmp_path / "out.conll"
    if existing:
        out.write_text("old\n", "utf-8")
    (tmp_path / "out.conll.tokens").mkdir()
    toy_brat = Path(__file__).resolve().parents[1] / "demos" / "data" / "toy_brat"
    assert main(["convert", "--in", str(toy_brat), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["out.conll", "out.conll.tokens"] if existing else ["out.conll.tokens"])
    assert not existing or out.read_text("utf-8") == "old\n"


def test_an_output_that_is_not_a_regular_file_is_written_in_place(corpus_path, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"replaced {args}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["populate", "--in", str(corpus_path), "--strategy", "cross",
                 "--out", os.devnull]) == 0
    assert main(["--format", "jsonl", "baseline", "--in", str(corpus_path),
                 "--out", os.devnull]) == 0


def test_an_output_through_a_symbolic_link_replaces_the_link_target(corpus_path, tmp_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("an earlier output\n", "utf-8")
    link.symlink_to(target)
    assert main(["baseline", "--in", str(corpus_path), "--out", str(link)]) == 0
    assert link.is_symlink() and link.read_text("utf-8") == target.read_text("utf-8")
    assert read_jsonl(target.read_text("utf-8")).documents[0].doc_id == "d1"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "link.jsonl",
                                                          "target.jsonl"]


@pytest.mark.parametrize("argv, named", [
    (["convert", "--in", "in.jsonl", "--out", "exists/x.jsonl"], "exists/x.jsonl"),
    (["convert", "--in", "in.jsonl", "--out", "exists/x.conll"], "exists/x.conll"),
    (["convert", "--in", "in.jsonl", "--out", "out.conll"], "exists/t"),  # .tokens links there
    (["score", "--key", "in.jsonl", "--response", "in.jsonl", "--json-out", "exists/r.json"],
     "exists/r.json"),
], ids=["jsonl", "columns", "tokens", "json-out"])
def test_an_output_that_cannot_be_opened_is_named_not_its_temporary(
        corpus_path, tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    os.rename(corpus_path, "in.jsonl")
    Path("exists").write_text("a file\n", "utf-8")
    os.symlink("exists/t", "out.conll.tokens")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f"{os.path.realpath(named)!r}\n")
    assert sorted(os.listdir()) == ["exists", "in.jsonl", "out.conll.tokens"]
    assert Path("exists").read_text("utf-8") == "a file\n"


def test_gold_kg_on_stdout_is_byte_equal_to_the_library_string(linked_corpus_path):
    done = run_cli("compile-gold", "--in", linked_corpus_path, "--out", "-")
    assert done.returncode == 0, done.stderr.decode()
    corpus = read_jsonl(linked_corpus_path.read_text("utf-8"))
    assert done.stdout == write_gold_jsonl(compile_gold(corpus)).encode("utf-8")


def _cli_outputs(src: Path, workdir: Path, hash_seed: str) -> dict[str, bytes]:
    """Run baseline, then populate in both formats, in fresh interpreters."""
    workdir.mkdir()
    pred = workdir / "pred.jsonl"
    runs = [["baseline", "--in", src, "--out", pred],
            ["populate", "--in", pred, "--strategy", "cross", "--format", "ntriples",
             "--out", workdir / "kg.nt"],
            ["populate", "--in", pred, "--strategy", "in", "--format", "jsonl",
             "--out", workdir / "kg.jsonl"]]
    outputs = {}
    for i, argv in enumerate(runs):
        done = run_cli(*argv, hash_seed=hash_seed)
        assert done.returncode == 0, done.stderr.decode()
        outputs[f"stdout{i}"] = done.stdout
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    corpus = random_corpus(random.Random(31), n_docs=40)
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(corpus), "utf-8")
    seed0 = _cli_outputs(src, tmp_path / "seed0", "0")
    seed1 = _cli_outputs(src, tmp_path / "seed1", "1")
    assert set(seed0) == {"stdout0", "stdout1", "stdout2", "pred.jsonl", "kg.nt", "kg.jsonl"}
    assert all(seed0[name] for name in ("pred.jsonl", "kg.nt", "kg.jsonl", "stdout1"))
    assert seed0 == seed1


def _listed_after_help(names: str) -> str:
    """What an isolated interpreter prints of the expression ``names`` once the
    command line has printed its help. -I -S keep out the environment, the user
    site and site-packages .pth hooks, which could load modules first."""
    done = run_python("-I", "-S", "-c", "import sys\n"
                      f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
                      "from corefkg.cli import main\n"
                      "assert main(['--help']) == 0\n"
                      f"print({names})\n")
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().splitlines()[-1]


def test_cli_imports_only_the_package_and_the_standard_library():
    assert _listed_after_help("sorted(name for name in sys.modules if name != '__main__' and "
                              "name.partition('.')[0] not in "
                              "(*sys.stdlib_module_names, 'corefkg'))") == "[]"


def test_cli_loads_no_module_of_the_worker_code_before_it_forks():
    # baseline's workers import these when they are started; the other
    # commands, and every call's set-up, pay for none of them
    assert _listed_after_help("sorted(name for name in ('multiprocessing', 'pickle', 'random', "
                              "'signal', 'subprocess', 'tempfile', 'threading') "
                              "if name in sys.modules)") == "[]"


def test_cli_starts_without_the_kg_gold_kg_and_column_modules():
    # populate, compile-gold, eval-kg and the column format import them when they run
    assert _listed_after_help("sorted(name for name in ('corefkg.conll', 'corefkg.goldkg', "
                              "'corefkg.kgpop', 'hashlib') if name in sys.modules)") == "[]"


def test_import_corefkg_loads_no_module_and_each_module_resolves_on_first_use(tmp_path):
    (tmp_path / "broken.py").write_text("import corefkg_no_such_module\n", "utf-8")
    done = run_python("-I", "-S", "-c", "import sys\n"
                      f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
                      "import corefkg\n"
                      "print(sorted(name for name in sys.modules if name.startswith('corefkg')))\n"
                      "print(corefkg.jsonl is sys.modules['corefkg.jsonl'])\n"
                      "print(hasattr(corefkg, 'no_such_name'))\n"
                      f"corefkg.__path__.append({str(tmp_path)!r})\n"
                      "try:\n"
                      "    corefkg.broken\n"
                      "except ModuleNotFoundError as exc:\n"
                      "    print(exc.name)\n")
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == "['corefkg']\nTrue\nFalse\ncorefkg_no_such_module\n"


def test_every_public_name_of_the_package_is_its_module_object_from_a_fresh_interpreter():
    done = run_python("-I", "-S", "-c", "import importlib, pkgutil, sys\n"
                      f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
                      "star = {}\n"
                      "exec('from corefkg import *', star)\n"
                      "import corefkg\n"
                      "modules = [importlib.import_module(f'corefkg.{m.name}')\n"
                      "           for m in pkgutil.iter_modules(corefkg.__path__)]\n"
                      "for name in corefkg.__all__:\n"
                      "    owner, = [m for m in modules if name in getattr(m, '__all__', ())]\n"
                      "    assert star[name] is getattr(corefkg, name) is getattr(owner, name)\n"
                      "assert set(corefkg.__all__) <= set(dir(corefkg))\n"
                      "print(len(corefkg.__all__))\n")
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == f"{len(corefkg.__all__)}\n"


@pytest.mark.parametrize("command", ["score", "eval-kg"])
def test_json_out_dash_is_one_json_document_and_the_table_goes_to_stderr(
        corpus_path, tmp_path, capsys, command):
    if command == "score":
        argv = ["score", "--key", str(corpus_path), "--response", str(corpus_path)]
    else:
        gold_path = tmp_path / "gold.jsonl"
        assert main(["compile-gold", "--in", str(corpus_path), "--out", str(gold_path)]) == 0
        argv = ["eval-kg", "--in", str(corpus_path), "--gold", str(gold_path), "--strategy", "in"]
    capsys.readouterr()
    assert main([*argv, "--json-out", str(tmp_path / "report.json")]) == 0
    to_file = capsys.readouterr()
    assert main([*argv, "--json-out", "-"]) == 0
    to_stdout = capsys.readouterr()
    assert to_file.out.startswith("metric\tP\tR\tF1\n") and to_file.err == ""
    assert to_stdout.out == (tmp_path / "report.json").read_text("utf-8")
    assert json.loads(to_stdout.out)["conll"]["exact"]["f1"] == "1"
    assert to_stdout.err == to_file.out
    if command == "eval-kg":
        assert to_stdout.err.endswith("concepts\t1\n")


def test_score_without_json_out_prints_the_table_then_the_json(corpus_path, tmp_path, capsys):
    argv = ["score", "--key", str(corpus_path), "--response", str(corpus_path)]
    assert main([*argv, "--json-out", str(tmp_path / "report.json")]) == 0
    table = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == table + (tmp_path / "report.json").read_text("utf-8")


# the reason each file kind gives for a line 2 that reads "nonsense"; a .txt
# file has no malformed line, since any text reads
NONSENSE = {
    "ann": "unsupported record type 'n': 'nonsense'",
    "jsonl": "invalid JSON: Expecting value",
    "columns": "expected token and coreference columns, got 'nonsense'",
    "tokens": "token table expects 4 columns, got 'nonsense'",
    "gold": "invalid JSON: Expecting value",
    "links": "expected 5 tab-separated columns, got 'nonsense'",
    "lemma-exceptions": "expected two columns, got 'nonsense'",
}


@pytest.mark.parametrize("bad, fault", [
    *((bad, "byte") for bad in ["txt", *NONSENSE]),
    *((bad, fault) for bad in NONSENSE for fault in ("line", "line, then byte")),
])
def test_a_faulty_file_is_named_with_its_line(corpus_path, tmp_path, capsys, bad, fault):
    corpus = read_jsonl(corpus_path.read_text("utf-8"))
    brat_dir, conll_path = tmp_path / "brat", tmp_path / "c.conll"
    assert main(["convert", "--in", str(corpus_path), "--out", str(brat_dir)]) == 0
    assert main(["convert", "--in", str(corpus_path), "--out", str(conll_path)]) == 0
    gold_path, links_path = tmp_path / "gold.jsonl", tmp_path / "links.tsv"
    gold_path.write_text(write_gold_jsonl(compile_gold(corpus)), "utf-8")
    links_path.write_text("d1\t0\t5\tData\tQ1\n", "utf-8")
    exceptions_path = tmp_path / "exceptions.tsv"
    exceptions_path.write_text("mice\tmouse\ngeese\tgoose\n", "utf-8")
    argv = {
        "ann": ["stats", "--in", str(brat_dir)],
        "txt": ["stats", "--in", str(brat_dir)],
        "jsonl": ["stats", "--in", str(corpus_path)],
        "columns": ["stats", "--in", str(conll_path)],
        "tokens": ["stats", "--in", str(conll_path)],
        "gold": ["eval-kg", "--in", str(corpus_path), "--gold", str(gold_path),
                 "--strategy", "in"],
        "links": ["compile-gold", "--in", str(corpus_path), "--links", str(links_path)],
        "lemma-exceptions": ["--lemma-exceptions", str(exceptions_path),
                             "stats", "--in", str(corpus_path)],
    }[bad]
    target = {
        "ann": brat_dir / "CS" / "d1.ann",
        "txt": brat_dir / "CS" / "d1.txt",
        "jsonl": corpus_path,
        "columns": conll_path,
        "tokens": Path(str(conll_path) + ".tokens"),
        "gold": gold_path,
        "links": links_path,
        "lemma-exceptions": exceptions_path,
    }[bad]
    # line 2, after a line that ends in "\r\n", starts with a bad byte or is "nonsense"
    first, _, rest = target.read_bytes().partition(b"\n")
    line_2 = b"\xff" if fault == "byte" else b"nonsense\n"
    data, bad_line = first.rstrip(b"\r") + b"\r\n" + line_2 + rest, 2
    if fault == "line, then byte":  # and a bad byte on the last line, which wins
        data, bad_line = data + b"\xff\n", data.count(b"\n") + 1
    target.write_bytes(data)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    if fault != "line":
        assert err == (f"error: {target}: line {bad_line}: "
                       "not UTF-8: invalid start byte (byte 0xff)\n")
    else:
        assert err.startswith(f"error: {target}: line 2: {NONSENSE[bad]}"), err
        assert err.count("\n") == 1, err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo does not exist here")
def test_a_corpus_is_read_from_a_pipe(tmp_path, capsys):
    # a pipe cannot seek: the line reader seeks only to a range that starts past 0
    import threading

    corpus = random_corpus(random.Random(8), n_docs=5)
    pipe = tmp_path / "in.jsonl"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(write_jsonl(corpus), "utf-8"))
    writer.start()
    try:
        assert main(["stats", "--in", str(pipe)]) == 0
    finally:
        writer.join(timeout=10)
        if writer.is_alive():  # the pipe was not read to its end: read it, so the writer ends
            pipe.read_bytes()
            writer.join(timeout=10)
    assert capsys.readouterr().out == corpus_stats(corpus, "concept_type").to_tsv()


def test_stats_streams_a_jsonl_input_into_the_table_of_the_whole_corpus(tmp_path, capsys,
                                                                        monkeypatch):
    src = tmp_path / "in.jsonl"
    src.write_text(write_jsonl(random_corpus(random.Random(5), n_docs=12)), "utf-8")
    given = []

    def recorded(docs, group_by):
        given.append(docs)
        return corpus_stats(docs, group_by)

    monkeypatch.setattr(cli, "corpus_stats", recorded)
    for group_by in ("concept_type", "domain"):
        assert main(["stats", "--in", str(src), "--group-by", group_by]) == 0
        whole = corpus_stats(read_jsonl(src.read_text("utf-8")), group_by)
        assert capsys.readouterr().out == whole.to_tsv()
    assert not any(isinstance(docs, Corpus) for docs in given)  # read one block at a time


def test_a_key_error_is_a_bug_not_a_data_error(corpus_path, monkeypatch, capsys):
    # no package code raises KeyError on purpose, so main lets it propagate
    def buggy(*args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_scored", buggy)
    with pytest.raises(KeyError, match="bug"):
        main(["score", "--key", str(corpus_path), "--response", str(corpus_path)])
    assert capsys.readouterr().err == ""


def test_stats_and_score_read_a_brat_tree_one_pair_at_a_time(tmp_path, capsys, monkeypatch):
    corpus = random_corpus(random.Random(6), n_docs=12)
    root, src = tmp_path / "brat", tmp_path / "in.jsonl"
    write_brat_dir(corpus, root)
    src.write_text(write_jsonl(read_brat_dir(root)), "utf-8")
    argv = {"stats": ["stats", "--in", "{}", "--group-by", "domain"],
            "score": ["score", "--key", "{}", "--response", str(src)]}
    from_jsonl = {}
    for command, args in argv.items():
        assert main([arg.format(src) for arg in args]) == 0
        from_jsonl[command] = capsys.readouterr()

    def built(self):
        raise AssertionError("a whole corpus was built")

    monkeypatch.setattr(Corpus, "__post_init__", built)
    for command, args in argv.items():
        assert main([arg.format(root) for arg in args]) == 0
        assert capsys.readouterr() == from_jsonl[command]


def test_a_brat_output_into_an_existing_tree_keeps_the_files_no_document_writes(tmp_path):
    corpus = random_corpus(random.Random(12), n_docs=3)
    src, tree, fresh = tmp_path / "in.jsonl", tmp_path / "tree", tmp_path / "fresh"
    src.write_text(write_jsonl(corpus), "utf-8")
    write_brat_dir(random_corpus(random.Random(16), n_docs=4), tree)  # CS/d1 differs
    (tree / "notes.md").write_text("kept\n", "utf-8")
    write_brat_dir(corpus, fresh)

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    before = files(tree)
    assert main(["convert", "--in", str(src), "--out", str(tree)]) == 0
    after = files(tree)
    assert after == {**before, **files(fresh)}
    assert after[Path("CS/d1.txt")] != before[Path("CS/d1.txt")]
    assert sorted(os.listdir(tmp_path)) == ["fresh", "in.jsonl", "tree"]  # no staging directory
