"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload score-pooled --seed 3 --seconds 10 --trace 0

Run from the repository root. The script

1. checks that ``src/corefkg`` is present and refuses workloads whose dense
   CEAFe matrix could exhaust memory (``workloads.size_guard``);
2. writes the seeded inputs under ``.perfbench/`` (not timed);
3. runs fresh processes (``passes.py``) one after another: one session that
   runs a cold pass, then warm passes for ``--seconds`` (at least
   ``passes.MIN_WARM``), and ``COLD_SESSIONS`` more that run a cold pass
   only; then ``SETUP_PROBES`` bare interpreters (``speed.py``) that time
   set-up alone;
4. prints every metric by name with its unit, the wall and scaled time of
   every pass, the output digests, and as the last line
   ``{"correct", "attempted", "failed", "metrics"}``.

Times are scaled to a reference machine speed by ``speed.Probe``, which
removes the drift of a shared host's speed; the wall times are printed beside
them. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer ones, from one
traced session. Outputs are checked against the
digests pinned in ``record.json`` for the default seed; for every seed all
passes of all sessions must agree. The exit status is 0 only when every op
succeeded with the expected outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
COLD_SESSIONS = 1
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    """Environment of the measured processes: the checkout's package first,
    and one thread for every numeric library (the runs are single-client)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(HERE)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def target_of(metric: str) -> str | None:
    """The traced function a per-layer metric comes from (None: always present)."""
    if metric.startswith(("py.", "trace.")):
        return None
    if metric.startswith("cli."):
        return "cli.main"
    return ".".join(metric.split(".")[:2])


def end_to_end(sessions: list[dict], setup: list[float], docs: int) -> dict[str, float]:
    warm = sessions[0]["warm_s"]
    return {
        "docs_per_s": docs * len(warm) / sum(warm),
        "pass_s": statistics.median(warm),
        "cold_pass_s": statistics.median(s["cold_s"] for s in sessions),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }


def per_layer(result: dict, names: list[str]) -> dict[str, float]:
    layers, absent = result["layers"], set(result["absent"])
    return {n: layers.get(n, 0.0) for n in names if target_of(n) not in absent}


def load_pinned(workload: str) -> dict[str, str]:
    record = json.loads((HERE / "record.json").read_text("utf-8"))
    return record["pinned_digests"].get(workload, {})


class SessionFailed(RuntimeError):
    pass


def run_child(script: str, args: list[str], env: dict[str, str], deadline: float) -> str:
    """Run ``script`` (a file of this directory) with ``args``; returns its stdout."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise SessionFailed(f"no time left within {RUN_TIMEOUT_S} s")
    done = subprocess.run([sys.executable, str(HERE / script), *args], env=env, cwd=ROOT,
                          timeout=timeout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SessionFailed(f"{script} exited with status {done.returncode}:\n"
                            + done.stderr[-4000:])
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="warm-pass time budget (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, default=None,
                        help="override the workload's document count (smoke tests); "
                             "pinned digests then do not apply")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corefkg" / "cli.py").is_file():
        print(f"error: no corefkg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workload = workloads.WORKLOADS[args.workload]
    docs = args.docs or workload.docs
    try:
        workloads.size_guard(workload, docs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_TIMEOUT_S
    workdir = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    sessions: list[dict] = []
    setup: list[float] = []
    setup_wall: list[float] = []
    try:
        stats = gen.write_inputs(workdir / "in", args.seed, docs, workload=workload.name,
                                 fmt=workload.fmt, links=workload.links)
        (workdir / "out").mkdir()
        env = child_env()
        reference = None
        if args.seed == DEFAULT_SEED and docs == workload.docs:
            reference = load_pinned(workload.name) or None
        for i in range(1 if args.trace else 1 + COLD_SESSIONS):
            cmd = ["--workload", workload.name, "--workdir", str(workdir),
                   "--result", str(workdir / f"session{i}.json"), "--trace", str(args.trace)]
            cmd += ["--seconds", str(seconds)] if i == 0 else ["--cold-only"]
            if reference:
                (workdir / "reference.json").write_text(json.dumps(reference), "utf-8")
                cmd += ["--reference", str(workdir / "reference.json")]
            if args.trace:
                cmd += ["--spans-out", str(ROOT / ".perfbench" / f"spans-{workload.name}.jsonl")]
            run_child("passes.py", cmd, env, deadline)
            sessions.append(json.loads((workdir / f"session{i}.json").read_text("utf-8")))
            # later sessions must reproduce the first session's outputs
            reference = reference or sessions[0]["digests"]
        for _ in range(0 if args.trace else SETUP_PROBES):
            wall, scaled = map(float, run_child("speed.py", [], env, deadline).split())
            setup_wall.append(wall)
            setup.append(scaled)
    except (SessionFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"session {i} {line}" for i, s in enumerate(sessions) for line in s["failures"]]
    attempted = sum(s["attempted"] for s in sessions)
    failed = len(failures)
    print(f"workload {workload.name}  seed {args.seed}  docs {docs}  sessions {len(sessions)}")
    print("inputs " + json.dumps(stats.to_dict(), sort_keys=True))
    for i, s in enumerate(sessions):
        line = f"session {i} pass times s, wall/scaled: cold {s['cold_wall_s']:.4f}/{s['cold_s']:.4f}"
        if "warm_s" in s:
            line += f"  {len(s['warm_s'])} warm " + " ".join(
                f"{w:.4f}/{t:.4f}" for w, t in zip(s["warm_wall_s"], s["warm_s"]))
        elif "traced_s" in s:
            line += "  scaled: untraced " + " ".join(f"{t:.4f}" for t in s["untraced_s"])
            line += "  traced " + " ".join(f"{t:.4f}" for t in s["traced_s"])
        print(line + f"  peak RSS {s['peak_rss_mb']:.1f} MB")
    if setup:
        print("setup s, wall/scaled: " + " ".join(
            f"{w:.4f}/{t:.4f}" for w, t in zip(setup_wall, setup)))
    for line in failures:
        print("FAILED " + line)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values = per_layer(sessions[0], [m["name"] for m in specs])
        if sessions[0]["absent"]:
            print("absent " + " ".join(sessions[0]["absent"]))
        print("facts " + json.dumps(sessions[0]["facts"], sort_keys=True))
    else:
        values = end_to_end(sessions, setup, docs)
    metrics = {}
    for spec in specs:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
            print(f"{spec['name']:<44} {values[spec['name']]:>14.6g} {spec['unit']}")
    print(f"{'fail_ratio':<44} {failed / attempted:>14.6g} 1  ({failed} of {attempted} ops)")
    for label, digest in sorted(sessions[0]["digests"].items()):
        print(f"digest {label} {digest}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
