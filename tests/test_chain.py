"""The command line's chain, ``convert → baseline → score → populate →
compile-gold → eval-kg``, in fresh interpreters in development mode, where an
unclosed file is an error, on inputs that fork real workers: 2,000 documents
as JSONL, their first 300 as JSONL and as a BRAT tree. Each call gives what the
library gives on every CPU and on one CPU, to which its affinity holds
it. ``test_parallel.py`` covers the same commands in this process."""

import json
import os
import random
import shutil

import pytest

from corefkg import baseline, brat, conll, goldkg, jsonl, kgpop, metrics
from corefkg.model import Corpus

from clirun import files, run_cli
from corpusgen import random_corpus

_NO_ONE_CPU = (
    "os.sched_setaffinity does not exist here, so no process can be held to one CPU"
    if not hasattr(os, "sched_setaffinity") else
    "only one CPU is allowed, so one CPU is every CPU and the legs would be equal"
    if len(os.sched_getaffinity(0)) < 2 else None)


def _strategy(argv: list) -> kgpop.CollapseStrategy:
    scope = kgpop.DomainScope.CROSS_DOMAIN if "cross" in argv else kgpop.DomainScope.IN_DOMAIN
    return kgpop.CollapseStrategy(scope, use_coreference="--no-coref" not in argv)


def _written(name: str):
    """A call that writes the chain's file (and token table) or tree ``name``."""
    return lambda c, argv: (0, "", "", {argv[-1] + k: v for k, v in c["files"][name].items()})


def _populated(c: dict, argv: list) -> tuple:
    kg = kgpop.populate(c[argv[2]], _strategy(argv), gold="--gold" in argv)
    export = kgpop.export_ntriples if "ntriples" in argv else kgpop.export_kg_jsonl
    return 0, kgpop.kg_stats(kg, c[argv[2]]).to_tsv(), "", {argv[-1]: export(kg)}


def _report(argv: list, table: str, payload: dict) -> tuple:
    return 0, table, "", {argv[-1]: json.dumps(payload, indent=2, sort_keys=True) + "\n"}


def _scored(c: dict, argv: list) -> tuple:
    report = metrics.score(*(metrics.corpus_partition(c[n]) for n in ("big.jsonl", "pred.jsonl")))
    return _report(argv, report.to_table(), report.to_dict())


def _evaluated(c: dict, argv: list) -> tuple:
    result = goldkg.evaluate_population(c["gold"], c[argv[2]], _strategy(argv))
    return _report(argv, result.report.to_table() + f"concepts\t{result.n_concepts}\n",
                   result.to_dict())


#: each call, with its inputs named in the chain's directory and its output last, and what
#: the library gives for it
LEGS = {
    "baseline --in big.jsonl --out out.jsonl": _written("pred.jsonl"),
    "convert --in mid.jsonl --out out.jsonl": _written("mid.jsonl"),
    "convert --in big.jsonl --out out.conll": _written("key.conll"),
    "convert --in mid.jsonl --out tree": _written("tree"),
    "baseline --in key.conll --out out.conll": _written("pred.conll"),
    "convert --in tree --out out.jsonl": _written("tree.jsonl"),
    "populate --in pred.jsonl --strategy cross --format ntriples --out kg.nt": _populated,
    "populate --in big.jsonl --gold --no-coref --strategy in --format jsonl --out kg.jsonl":
        _populated,
    **{f"compile-gold --in {src} --links links.tsv --out gold.jsonl": _written("gold.jsonl")
       for src in ("tree", "mid.jsonl")},
    **{f"eval-kg --in {src} --gold gold.jsonl --strategy {strategy} --json-out eval.json":
       _evaluated for src, strategies in (
           ("tree", ("cross", "cross --no-coref", "in", "in --no-coref")),
           ("mid.jsonl", ("cross", "in --no-coref"))) for strategy in strategies},
    # the key as JSONL, as a column file, and as a column file and table with "\r\n" line ends
    **{f"score --key {key} --response {response} --json-out score.json": _scored
       for key, response in (("big.jsonl", "pred.jsonl"), ("key.conll", "pred.conll"),
                             ("crlf.conll", "pred.conll"))},
    # a tree whose last .ann file, in the last range, has a line of no known record
    **{f"{command} --in broken {args}": lambda c, argv: (2, "", c["error"], {})
       for command, args in (
           ("compile-gold", "--links links.tsv --out gold.jsonl"),
           ("eval-kg", "--gold gold.jsonl --strategy cross --json-out eval.json"))},
}


@pytest.fixture(scope="session")
def chain(tmp_path_factory):
    """The directory of the chain's inputs, and what the library gives for each call."""
    root = tmp_path_factory.mktemp("chain")
    big = random_corpus(random.Random(0), n_docs=2000)
    c = {"big.jsonl": big, "mid.jsonl": Corpus(big.documents[:300]),
         "pred.jsonl": baseline.resolve_corpus(big)}
    brat.write_brat_dir(c["mid.jsonl"], root / "tree")
    c["tree"] = c["tree.jsonl"] = brat.read_brat_dir(root / "tree")  # in the tree's order
    links = {m.key: m.surface.split()[0].lower() for doc in c["tree"] for m in doc.mentions}
    c["gold"] = goldkg.compile_gold(goldkg.attach_entity_links(c["tree"], links))
    c["files"] = {
        **{name: {"": jsonl.write_jsonl(c[name])}
           for name in ("big.jsonl", "mid.jsonl", "pred.jsonl", "tree.jsonl")},
        **{f"{name}.conll": dict(zip(("", ".tokens"), conll.write_coref_columns(c[src])))
           for name, src in (("key", "big.jsonl"), ("pred", "pred.jsonl"))},
        "gold.jsonl": {"": goldkg.write_gold_jsonl(c["gold"])},
        "links.tsv": {"": "".join(f"{d}\t{s}\t{e}\t{t}\t{entity}\n"
                                  for (d, s, e, t), entity in links.items())},
    }
    c["files"]["crlf.conll"] = {k: v.replace("\n", "\r\n")
                                for k, v in c["files"]["key.conll"].items()}
    for name, written in c["files"].items():
        for suffix, text in written.items():
            (root / (name + suffix)).write_bytes(text.encode("utf-8"))
    c["files"]["tree"] = files(root / "tree", "/")
    shutil.copytree(root / "tree", root / "broken")
    ann = sorted((root / "broken").rglob("*.ann"))[-1]
    with open(ann, "a", encoding="utf-8") as f:
        f.write("garbage line\n")
    c["error"] = (f"error: {ann.relative_to(root)}: line {len(ann.read_bytes().splitlines())}: "
                  "unsupported record type 'g': 'garbage line'\n")
    return root, {command: library(c, command.split()) for command, library in LEGS.items()}


@pytest.mark.parametrize("command, one_cpu", [
    pytest.param(command, one_cpu, id=f"{command}, {'one CPU' if one_cpu else 'every CPU'}",
                 marks=pytest.mark.skipif(one_cpu and _NO_ONE_CPU is not None,
                                          reason=_NO_ONE_CPU or ""))
    for command in LEGS for one_cpu in (False, True)])
def test_a_call_gives_what_the_library_gives(chain, tmp_path, command, one_cpu):
    root, expected = chain
    *argv, output = command.split()
    done = run_cli(*argv, tmp_path / output, cwd=root, one_cpu=one_cpu)
    # the table on stdout, and nothing written but the output: no temporary file beside it
    assert (done.returncode, done.stdout.decode(), done.stderr.decode(),
            files(tmp_path)) == expected[command]
