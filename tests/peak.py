"""Run one ``corefkg`` command and print what it cost as one JSON line on stderr.

From the repository root, give the command's arguments as ``corefkg`` takes
them::

    PYTHONPATH=src python tests/peak.py eval-kg --in pred.jsonl --gold gold.jsonl \\
        --strategy cross --json-out report.json

The command runs in this process, through ``corefkg.cli.main``, and its exit
status is this script's. After whatever the command wrote, the last line of
stderr holds:

- ``status``: the command's exit status;
- ``wall_s``: from before ``corefkg`` is imported to the return of ``main``
  (interpreter start is not counted);
- ``main_cpu_s`` and ``main_peak_mb``: this process's user and system CPU time
  and its peak RSS, ``VmHWM`` in ``/proc/self/status`` (Linux only);
- ``workers_cpu_s`` and ``workers_peak_mb``: the CPU time of the worker
  processes the command forked and waited for, summed, and the largest peak
  RSS among them (``RUSAGE_CHILDREN``). A worker's peak counts the pages it
  shares with this process by fork.

pytest does not collect this file.
"""

import json
import resource
import sys
import time


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _peak_mb() -> float:
    """This process's peak RSS in MB, from ``VmHWM``."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def measure(argv: list[str]) -> int:
    """Run ``corefkg`` on ``argv``, print its costs on stderr and return its status."""
    start = time.perf_counter()
    from corefkg.cli import main

    status = main(argv)
    wall = time.perf_counter() - start
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stdout.flush()
    print(json.dumps({
        "status": status,
        "wall_s": round(wall, 3),
        "main_cpu_s": round(_cpu_s(resource.getrusage(resource.RUSAGE_SELF)), 3),
        "main_peak_mb": round(_peak_mb(), 1),
        "workers_cpu_s": round(_cpu_s(workers), 3),
        "workers_peak_mb": round(workers.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(measure(sys.argv[1:]))
