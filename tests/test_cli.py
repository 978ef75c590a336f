import gc
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import corefkg
from corefkg import cli
from corefkg.cli import main
from corefkg.jsonl import read_jsonl, write_jsonl
from corefkg.model import ConceptType, CoreferenceCluster, Corpus, Document, Mention

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


def test_config_file_provides_defaults(ox_corpus, tmp_path, capsys):
    merging, other = tmp_path / "merging.tsv", tmp_path / "other.tsv"
    merging.write_text("oxen\tox\n", "utf-8")
    other.write_text("geese\tgoose\n", "utf-8")
    cfg = tmp_path / "corefkg.conf"
    cfg.write_text(f"# defaults\nlemma_exceptions = {merging}\n", "utf-8")
    # default < config: the configured table merges the two labels
    assert _populated_concepts(ox_corpus, tmp_path / "kg1.jsonl") == 2
    assert _populated_concepts(ox_corpus, tmp_path / "kg2.jsonl", "--config", str(cfg)) == 1
    # config < flag: the flag's table replaces the configured one
    assert _populated_concepts(ox_corpus, tmp_path / "kg3.jsonl", "--config", str(cfg),
                               "--lemma-exceptions", str(other)) == 2


@pytest.mark.parametrize("key", ["lemma_exception", "formt"])
def test_config_file_rejects_unknown_keys(corpus_path, tmp_path, capsys, key):
    cfg = tmp_path / "corefkg.conf"
    cfg.write_text(f"# defaults\nformat = jsonl\n{key} = brat\n", "utf-8")
    assert main(["--config", str(cfg), "stats", "--in", str(corpus_path)]) == 2
    err = capsys.readouterr().err
    assert f"line 3: unknown config key {key!r}" in err


def test_brat_root_must_be_a_directory(corpus_path, capsys):
    assert main(["--format", "brat", "stats", "--in", str(corpus_path)]) == 2
    assert "BRAT root is not a directory" in capsys.readouterr().err


def test_removed_global_options_are_usage_errors(capsys):
    assert main(["--jobs", "2", "stats", "--in", "x.jsonl"]) == 1
    assert main(["--seed", "0", "stats", "--in", "x.jsonl"]) == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_pauses_gc_and_restores_the_callers_state(enabled, corpus_path, tmp_path,
                                                       monkeypatch, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", "utf-8")
    during = []
    stats = cli._COMMANDS["stats"]
    monkeypatch.setitem(cli._COMMANDS, "stats",
                        lambda args, cfg: during.append(gc.isenabled()) or stats(args, cfg))
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


def _cli_outputs(src: Path, workdir: Path, hash_seed: str) -> dict[str, bytes]:
    """Run baseline, then populate in both formats, in fresh interpreters."""
    package_root = str(Path(corefkg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    workdir.mkdir()
    pred = workdir / "pred.jsonl"
    runs = [
        ["baseline", "--in", str(src), "--out", str(pred)],
        ["populate", "--in", str(pred), "--strategy", "cross", "--format", "ntriples",
         "--out", str(workdir / "kg.nt")],
        ["populate", "--in", str(pred), "--strategy", "in", "--format", "jsonl",
         "--out", str(workdir / "kg.jsonl")],
    ]
    outputs = {}
    for i, argv in enumerate(runs):
        done = subprocess.run([sys.executable, "-m", "corefkg.cli", *argv], env=env,
                              capture_output=True, timeout=120)
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


def test_cli_imports_only_the_package_and_the_standard_library():
    # -I -S: no environment, user site or site-packages .pth hooks, which
    # would load third-party modules before the package is imported.
    package_root = str(Path(corefkg.__file__).resolve().parent.parent)
    code = ("import sys\n"
            f"sys.path.insert(0, {package_root!r})\n"
            "from corefkg.cli import main\n"
            "assert main(['--help']) == 0\n"
            "print(sorted(name for name in sys.modules if name != '__main__'\n"
            "             and name.partition('.')[0] not in (*sys.stdlib_module_names, 'corefkg')))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
