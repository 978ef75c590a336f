"""Machine-speed probe: scales measured wall time to a reference machine speed.

The hosts this benchmark runs on share their cores with other tenants, and the
speed of pure-Python code drifts by a third or more for seconds to minutes at
a time. Raw wall times of the same code then differ between two sets of runs
by more than any useful regression bound. ``Probe`` removes that drift: while
it is active, a ``SIGALRM`` every ``PERIOD_S`` of wall time runs a small fixed
kernel in the measured thread and times it. Each tick stands for the wall time
since the previous one (the *gap*), run at the speed the tick observed, so the
measured code's work in reference seconds is

    scaled_s = sum(gap * REFERENCE_S / kernel duration)

which on the reference host, uncontended, is about the wall time. The gaps
leave the kernel's own time out; it costs about 1% of the measured interval.
Signals are handled between bytecodes only, so a long call into C code widens
one gap instead of dropping it. The kernel is fixed and shares no code with
the program, so a change to the program moves ``scaled_s`` as it moves wall
time.

Run as a script, this file measures set-up: a fresh interpreter importing
``corefkg.cli`` and loading the packaged lemma table. It imports only the
builtin ``_signal`` and ``time`` modules first (``signal`` would pull in
``enum``), so set-up shares none of its import cost with the benchmark's own
modules. It prints ``<wall_s> <scaled_s>``.
"""

import _signal
from time import perf_counter

#: Wall time between two kernel ticks.
PERIOD_S = 0.02
#: Duration of one kernel tick on the reference host (a 2-vCPU Xeon KVM guest)
#: while the fastest warm passes ran; sets the scale of every reported time.
REFERENCE_S = 200e-6


def kernel() -> int:
    """Fixed pure-Python work: dict, str and sort operations, ~0.2 ms."""
    table = {}
    total = 0
    for i in range(300):
        key = str(i)
        table[key] = (i, key + "x")
        total += len(table[key][1]) * i % 7
    return total + len(sorted(table, key=lambda k: table[k][0] % 11))


class Probe:
    """Context manager: times the ``with`` body and scales it by the kernel ticks."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []   # (gap, kernel duration)
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.ticks.append((t0 - self._last, t1 - t0))
        self._last = t1

    def __enter__(self) -> "Probe":
        self.ticks = []
        self._previous = _signal.signal(_signal.SIGALRM, self._tick)
        self._start = self._last = perf_counter()
        _signal.setitimer(_signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
        _signal.signal(_signal.SIGALRM, self._previous)
        self.wall_s = perf_counter() - self._start
        self._tick()    # closes the last gap; a short body still gets one tick
        self.scaled_s = scaled(self.ticks)


def scaled(ticks: list[tuple[float, float]]) -> float:
    """Reference seconds of the work done in the gaps of ``ticks``."""
    return sum(gap * REFERENCE_S / duration for gap, duration in ticks)


def measure_setup() -> tuple[float, float]:
    """Import the CLI and load the packaged lemma table, as a fresh user would."""
    with Probe() as probe:
        import corefkg.cli  # noqa: F401
        from corefkg.normalize import load_lemma_exceptions
        load_lemma_exceptions()
    return probe.wall_s, probe.scaled_s


if __name__ == "__main__":
    print(*measure_setup())
