"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    kwargs = dict(workload=name, fmt=w.fmt, links=w.links)
    a = gen.write_inputs(tmp_path / "a", 7, 25, **kwargs)
    b = gen.write_inputs(tmp_path / "b", 7, 25, **kwargs)
    c = gen.write_inputs(tmp_path / "c", 8, 25, **kwargs)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # the seed changes the content, never the shape
    shape = ("docs", "mentions", "pronouns", "gold_clusters", "key_parts")
    assert [a.to_dict()[k] for k in shape] == [c.to_dict()[k] for k in shape]
    assert a.to_dict() == b.to_dict()
    assert (a.mentions, a.key_parts) == workloads.shape(25)


def test_generated_corpus_has_the_named_properties():
    docs = gen.generate(0, 200, workload="props")
    mentions = [m for d in docs for m in d.mentions]
    pronouns = sum(m.label == gen.PRONOUN_TYPE for m in mentions)
    assert 0.12 < pronouns / len(mentions) < 0.18
    assert {len(c) for d in docs for c in d.clusters} == {2, 3, 4}
    assert {d.domain for d in docs} == set(gen.DOMAINS)
    assert sum(d.definitions for d in docs) > 0
    assert all("(" in d.text for d in docs if d.definitions)
    for d in docs:
        for m in d.mentions:
            surface = d.text[m.start:m.end]
            assert surface == surface.strip() and surface


def test_size_guard_refuses_large_dense_ceaf():
    for w in workloads.WORKLOADS.values():
        workloads.size_guard(w, w.docs)   # the defaults run
    with pytest.raises(ValueError, match="refusing"):
        workloads.size_guard(workloads.WORKLOADS["score-pooled"], 1000)
    with pytest.raises(ValueError, match="refusing"):
        workloads.size_guard(workloads.WORKLOADS["evalkg-strategies"], 20_000)
    workloads.size_guard(workloads.WORKLOADS["kg-build"], 100_000)


def test_self_times_on_a_synthetic_span_tree():
    # (id, name, start, end, parent, pass)
    tree = [
        (1, "a", 2.0, 3.0, 2, 0),
        (2, "b", 1.0, 4.0, 0, 0),
        (3, "b", 5.0, 9.0, 0, 0),
        (4, "b", 5.5, 6.5, 3, 0),    # b re-entered inside b
        (5, "c", 8.5, 11.0, 3, 0),   # reaches past its parent's end
        (0, "root", 0.0, 10.0, -1, 0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10 - (3 + 4))
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(4 - 1 - 0.5)
    assert own[4] == pytest.approx(1)
    assert own[5] == pytest.approx(2.5)
    totals = spans.per_pass_totals(tree)[0]
    assert totals["b"]["calls"] == 3
    assert totals["b"]["busy_s"] == pytest.approx(3 + 4)    # outermost b spans only
    assert totals["b"]["self_s"] == pytest.approx(2 + 2.5 + 1)
    assert totals["root"]["busy_s"] == pytest.approx(10)


def test_scaled_time_weights_each_gap_by_its_tick():
    ref = speed.REFERENCE_S
    # a gap run at reference speed counts in full, one at half speed for half
    assert speed.scaled([(0.02, ref), (0.02, 2 * ref), (0.5, ref / 2)]) == pytest.approx(
        0.02 + 0.01 + 1.0)


def test_probe_ticks_during_its_body_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.wall_s >= 0.1
    assert len(probe.ticks) >= 3     # about 0.1 / PERIOD_S, plus the closing tick
    assert sum(gap for gap, _ in probe.ticks) <= probe.wall_s
    assert probe.scaled_s == speed.scaled(probe.ticks) > 0


def test_ceaf_shape_finds_components_across_documents():
    key = SimpleNamespace(parts=(frozenset({("d1", 0), ("d2", 0)}), frozenset({("d1", 1)}),
                                 frozenset({("d3", 0)})))
    response = SimpleNamespace(parts=(frozenset({("d1", 0)}), frozenset({("d2", 0), ("d1", 1)}),
                                      frozenset({("d3", 0)})))
    shape = spans.ceaf_shape(key, response)
    assert shape["components"] == 2
    assert shape["overlap_pairs"] == 4
    assert (shape["largest_key_parts"], shape["largest_response_parts"]) == (2, 2)
    assert shape["largest_docs"] == 2


def test_tracer_reports_missing_targets_as_absent_and_restores():
    import corefkg.metrics

    original = corefkg.metrics.ceaf_e
    tracer = spans.Tracer()
    tracer.install((spans.Target("metrics", "ceaf_e"), spans.Target("metrics", "gone"),
                    spans.Target("nomodule", "f")))
    try:
        assert corefkg.metrics.ceaf_e is not original
        assert tracer.absent == ["metrics.gone", "nomodule.f"]
    finally:
        tracer.uninstall()
    assert corefkg.metrics.ceaf_e is original
    result = {"layers": {"metrics.gone.busy_s": 1.0}, "absent": tracer.absent}
    assert run.per_layer(result, ["metrics.gone.busy_s", "py.gc.busy_s"]) == {"py.gc.busy_s": 0.0}


def _tiny_runner(tmp_path, name, reference=None):
    w = workloads.WORKLOADS[name]
    gen.write_inputs(tmp_path / "in", 1, 6, workload=name, fmt=w.fmt, links=w.links)
    (tmp_path / "out").mkdir()
    return passes.Runner(w, tmp_path, reference)


def test_digest_check_rejects_a_perturbed_output(tmp_path):
    runner = _tiny_runner(tmp_path, "kg-build")
    runner.run_pass(0)
    assert runner.failures == [] and runner.attempted == 3
    real = runner.cli

    def perturbed_main(argv):
        status = real.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if out.name == "kg.nt":
            out.write_bytes(out.read_bytes() + b"\n")
        return status

    runner.cli = SimpleNamespace(main=perturbed_main)
    runner.run_pass(1)
    assert runner.failures == ["pass 1 op 2.populate: digest mismatch 2.populate:kg.nt"]


def test_pinned_reference_is_enforced(tmp_path):
    runner = _tiny_runner(tmp_path, "score-pooled")
    runner.run_pass(0)
    pinned = dict(runner.first_digests)
    label = "3.score:report.json"
    pinned[label] = "0" * 64
    checked = _tiny_runner(tmp_path / "again", "score-pooled", reference=pinned)
    checked.run_pass(0)
    assert checked.failures == [f"pass 0 op 3.score: digest mismatch {label}"]
    assert passes.compare(pinned, runner.first_digests) == [label]


def _run(*args: str) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name):
    code, lines = _run("--workload", name, "--seed", "3", "--seconds", "0", "--docs", "10")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # a cold and the minimum of warm passes, then a cold-only session
    passes_run = 1 + passes.MIN_WARM + run.COLD_SESSIONS
    assert result["attempted"] == passes_run * len(workloads.WORKLOADS[name].ops)
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    code, lines = _run("--workload", "evalkg-strategies", "--seconds", "0", "--docs", "10",
                       "--trace", "1")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert result["metrics"]["metrics.optimal_assignment.calls"]["value"] == 4
    assert result["metrics"]["brat.read_brat_dir.calls"]["value"] == 5


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
