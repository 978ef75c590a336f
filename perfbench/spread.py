"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload kg-build --seeds 1-10 --out spread.json

For every end-to-end metric this prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, i.e. the
inter-quartile distance as a share of the median, beside the metric's bound
from ``BENCHMARK.json``. A spread above a third of its bound is flagged. The
same numbers are what ``record.json`` keeps as the seed baseline, and what a
parent/change comparison is made of.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "runs": len(values)}


def run_seeds(workload: str, seeds: list[int]) -> tuple[dict, int]:
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        elapsed = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures += 1
            print(f"  seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  seed {seed}: " + "  ".join(
            f"{n}={m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items())
            + f"  fail_ratio={result['failed'] / result['attempted']:.4g} "
              f"({result['failed']} of {result['attempted']} ops)  run {elapsed:.1f} s", flush=True)
    return values, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable (default: every workload of BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict = {}
    status = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        print(f"{workload}: seeds {seeds}", flush=True)
        values, failures = run_seeds(workload, seeds)
        status |= failures > 0
        summary[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            row = summarize(vals, bounds[name])
            summary[workload][name] = row
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} median {row['median']:.5g}  q1 {row['q1']:.5g}  "
                  f"q3 {row['q3']:.5g}  spread {row['spread']:.4f}  bound {row['bound']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", "utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
