"""The host's current speed, from a fixed calibration kernel.

The benchmark's machine shares its cores with other tenants, and its
speed flips between a fast and a slow state, about 1.6x apart, within
seconds: wall and CPU time of the same pass move together, so the
swing is in the host, not in the program.  ``kernel`` is a fixed piece
of work of the same kind as the package's (exact ``Fraction``
elimination and an integer loop; it calls nothing of the package).
Timed just before, during (``Sampler``) and just after an operation,
it gives the host's speed while the operation ran, and ``scale`` turns
the operation's time into the time it would take on a host where the
kernel takes ``NOMINAL_S``: its time on the 2-vCPU VM (Intel Xeon,
2.0 GHz, Python 3.11) the benchmark was built on, in that host's fast
state (about 15 ms in its slow one).  A slower program still reads
slower; a slower host does not.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.009
PERIOD_S = 0.2        # one kernel run per 0.2 s of an operation: +4.5%
_SIZE = 10
_REPEATS = 4


def kernel():
    rng = random.Random(5)
    total = 0
    for _ in range(_REPEATS):
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(_SIZE)]
                for _ in range(_SIZE)]
        for col in range(_SIZE):
            pivot = next(r for r in range(col, _SIZE) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(col + 1, _SIZE):
                f = rows[r][col] / rows[col][col]
                if f:
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        for i in range(5000):
            total += i * i % 7
    return total


def kernel_s(runs: int = 1) -> tuple:
    """Wall and CPU seconds the kernel takes now (the mean of ``runs``
    runs)."""
    cpu0, start = time.process_time(), time.perf_counter()
    for _ in range(runs):
        kernel()
    return ((time.perf_counter() - start) / runs,
            (time.process_time() - cpu0) / runs)


class Sampler:
    """While active, times the kernel every ``PERIOD_S`` of wall time
    from a SIGALRM handler, which runs between the bytecodes of the
    operation in progress; ``samples`` are (wall, CPU) seconds.
    ``seconds`` and ``cpu_seconds`` are what the handler took, to be
    taken off the operation's times.  A run that
    hits the recursion limit (the operation was deep in it) is
    dropped."""

    def __init__(self):
        self.samples = []
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self._old = None

    def _sample(self, signum, frame):
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            kernel()
            self.samples.append((time.perf_counter() - start,
                                 time.process_time() - cpu0))
        except RecursionError:
            pass
        finally:
            self.seconds += time.perf_counter() - start
            self.cpu_seconds += time.process_time() - cpu0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def setup_kernel_s() -> tuple:
    """Kernel time on either side of a process's set-up (about 0.3 s)."""
    return kernel_s(3)


def scale(seconds: float, kernel_times) -> float:
    """``seconds`` at the nominal host speed, given the kernel's times
    while they were measured."""
    return seconds * NOMINAL_S / statistics.fmean(kernel_times)
