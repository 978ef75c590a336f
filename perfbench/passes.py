"""One benchmark session: a fresh process that runs a workload's passes.

``run.py`` starts this script after generating the inputs, so the process
that runs the passes does no input generation and its peak RSS is the
program's own. The chain is closed-loop: one client, ops run one after
another through ``corefkg.cli.main(argv)`` in this process, no threads.

Pass 0 is the cold pass (``--cold-only`` stops there). Warm passes follow
until ``--seconds`` are used, and at least ``MIN_WARM`` of them. Every op runs
under a ``speed.Probe``, and a pass's time is the sum of its ops' scaled
times; their wall times are kept beside them. With ``--trace 1`` the warm time
is split: untraced passes first, then passes with the tracer installed, whose
ratio of scaled times gives the tracing overhead. Spans hold wall time,
including the probe's ticks (about 1%).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

MIN_WARM = 3
MIN_TRACE_PASSES = 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(path: Path) -> list[str]:
    """Plausibility of a score/eval-kg JSON: exact fractions in [0, 1] that
    agree with the float fields."""
    problems = []
    report = json.loads(path.read_text("utf-8"))
    for metric in ("muc", "b3", "ceafe", "conll"):
        row = report[metric]
        for field in ("precision", "recall", "f1"):
            exact = Fraction(row["exact"][field])
            if not 0 <= exact <= 1 or abs(float(exact) - row[field]) > 1e-12:
                problems.append(f"{path.name}: {metric}.{field} = {row[field]!r} ({exact})")
    return problems


def compare(reference: dict[str, str], observed: dict[str, str]) -> list[str]:
    """Labels whose digest differs from the reference (or is not in it)."""
    return [label for label, digest in observed.items() if reference.get(label) != digest]


class Runner:
    """Runs the passes of one workload and checks every op's outputs."""

    def __init__(self, workload: workloads.Workload, workdir: Path,
                 reference: dict[str, str] | None):
        # looked up per call, so a tracer installed later wraps it
        self.cli = importlib.import_module("corefkg.cli")
        self.workload = workload
        self.workdir = workdir
        self.reference = reference      # None: the first pass becomes the reference
        self.first_digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, pass_no: int, in_pass=None) -> tuple[float, float]:
        """Run the chain once; returns the summed wall and scaled times of its ops.

        ``in_pass(pass_no)``, if given, is a context manager entered after the
        previous pass's outputs are removed and garbage is collected, and left
        after the last op's outputs are checked.
        """
        ops = [workloads.resolve(op, self.workdir) for op in self.workload.ops]
        for _, outputs in ops:
            for path in outputs:
                path.unlink(missing_ok=True)
        gc.collect()
        with in_pass(pass_no) if in_pass is not None else contextlib.nullcontext():
            return self._run_ops(pass_no, ops)

    def _run_ops(self, pass_no: int, ops: list) -> tuple[float, float]:
        wall = scaled = 0.0
        digests: dict[str, str] = {}
        for index, (op, (argv, outputs)) in enumerate(zip(self.workload.ops, ops), start=1):
            out, err = io.StringIO(), io.StringIO()
            probe = speed.Probe()
            try:
                with probe, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                status = f"{type(exc).__name__}: {exc}"
            wall += probe.wall_s
            scaled += probe.scaled_s
            self.attempted += 1
            tag = f"{index}.{op.name}"
            problems = [] if status == 0 else [f"exit {status}: {err.getvalue().strip()[:500]}"]
            op_digests = {f"{tag}:stdout": sha256(out.getvalue().encode("utf-8"))}
            for rel, path in zip(op.outputs, outputs):
                if not path.is_file():
                    problems.append(f"missing output {rel}")
                    continue
                op_digests[f"{tag}:{Path(rel).name}"] = sha256(path.read_bytes())
                if path.suffix == ".json":
                    problems += check_report(path)
            reference = self.reference if self.reference is not None else self.first_digests
            if reference:
                problems += [f"digest mismatch {label}" for label in compare(reference, op_digests)]
            digests.update(op_digests)
            if problems:
                self.failures.append(f"pass {pass_no} op {tag}: " + "; ".join(problems))
        if not self.first_digests:
            self.first_digests = digests
        return wall, scaled


def timed_passes(runner: Runner, first_pass: int, budget: float, minimum: int,
                 in_pass=None) -> list[tuple[float, float]]:
    """Warm passes until ``budget`` wall seconds would be exceeded (at least
    ``minimum``); returns each pass's (wall, scaled) time."""
    times: list[tuple[float, float]] = []
    start = perf_counter()
    while len(times) < minimum or perf_counter() - start + times[-1][0] <= budget:
        times.append(runner.run_pass(first_pass + len(times), in_pass))
    return times


def layer_metrics(tracer: spans.Tracer, traced_passes: list[int]) -> dict[str, float]:
    """Per-pass medians of every span and counter, plus derived ratios."""
    totals = spans.per_pass_totals([s for s in tracer.spans if s[5] in traced_passes])
    shapes = {p: [] for p in traced_passes}
    for pass_id, key, response in tracer.captured:
        shapes[pass_id].append(spans.ceaf_shape(key, response))
    names = {name for rows in totals.values() for name in rows}
    counter_names = {name for (_, name) in tracer.counts}
    out: dict[str, float] = {}
    median = statistics.median
    for name in names:
        for stat in ("busy_s", "self_s", "calls"):
            out[f"{name}.{stat}"] = median(
                totals.get(p, {}).get(name, {}).get(stat, 0) for p in traced_passes)
    for name in counter_names:
        out[name] = median(tracer.counts.get((p, name), 0) for p in traced_passes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_pass(fn) -> float:
        return median(fn(p) for p in traced_passes)

    def count(p: int, name: str) -> int:
        return tracer.counts.get((p, name), 0)

    out["metrics.ceaf_e.useful_cell_frac"] = per_pass(lambda p: ratio(
        sum(s["overlap_pairs"] for s in shapes[p]), count(p, "metrics.optimal_assignment.cells")))
    out["model.validate.calls_per_doc"] = per_pass(lambda p: ratio(
        totals.get(p, {}).get("model.validate", {}).get("calls", 0), count(p, "docs_read")))
    out["metrics.ceaf_e.components"] = per_pass(lambda p: sum(s["components"] for s in shapes[p]))
    for field in ("largest_key_parts", "largest_response_parts", "largest_docs"):
        out[f"metrics.ceaf_e.{field}"] = per_pass(
            lambda p: max((s[field] for s in shapes[p]), default=0))
    return out


def facts(tracer: spans.Tracer, traced_passes: list[int]) -> dict:
    """What one traced pass computed: CEAFe shapes and concept counts."""
    first = traced_passes[0]
    return {
        "ceaf_calls": [spans.ceaf_shape(k, r) for p, k, r in tracer.captured if p == first],
        "concepts": [[name, n] for p, name, n in tracer.observed if p == first],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True, help="write the JSON result here")
    parser.add_argument("--cold-only", action="store_true", help="run the cold pass only")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path,
                        help="JSON file of digests to compare every pass against")
    parser.add_argument("--spans-out", type=Path, help="write the spans here (traced runs)")
    args = parser.parse_args(argv)

    reference = json.loads(args.reference.read_text("utf-8")) if args.reference else None
    runner = Runner(workloads.WORKLOADS[args.workload], args.workdir, reference)
    cold_wall, cold = runner.run_pass(0)
    result: dict = {"cold_s": cold, "cold_wall_s": cold_wall}
    if args.trace:
        untraced = [s for _, s in timed_passes(runner, 1, args.seconds / 2, MIN_TRACE_PASSES)]
        tracer = spans.Tracer()
        tracer.install()
        first = 1 + len(untraced)
        try:
            traced = [s for _, s in timed_passes(runner, first, args.seconds / 2,
                                                  MIN_TRACE_PASSES, in_pass=tracer.in_pass)]
        finally:
            tracer.uninstall()
        passes = list(range(first, first + len(traced)))
        layers = layer_metrics(tracer, passes)
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        result.update(untraced_s=untraced, traced_s=traced, layers=layers,
                      absent=tracer.absent, facts=facts(tracer, passes))
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
    elif not args.cold_only:
        warm = timed_passes(runner, 1, args.seconds, MIN_WARM)
        result.update(warm_wall_s=[w for w, _ in warm], warm_s=[s for _, s in warm])
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        digests=runner.first_digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    args.result.write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
