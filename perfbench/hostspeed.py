"""Host-speed probe: scales measured times to a fixed reference host speed.

The CPU of the VM this benchmark was written on runs up to twice as slow, or
a quarter faster, for seconds to minutes at a time, under load from outside
it. CPU time drifts with wall time, so it does not help. While a probe is
active, a SIGALRM timer interrupts the process every ``INTERVAL_S`` and runs
a fixed calibration kernel: tridiagonal banded solves and small vector
operations, the kind of work riskpath's inner loop does, but none of
riskpath's code. A timed interval ``[a, b]`` is then reported as

    own    = (b - a) - kernel time inside [a, b]
    scaled = own * KERNEL_REFERENCE_S / mean kernel time near [a, b]

that is, the seconds the interval would take on a host where one kernel run
takes ``KERNEL_REFERENCE_S``. "Near" is ``[a - PAD_S, b + PAD_S]``, so a short
interval still has kernel samples on both sides. A change to riskpath moves
``own`` and not the kernel, so it shows in full in the scaled time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

INTERVAL_S = 0.1  # between kernel runs
KERNEL_REPS = 200  # banded solves per kernel run, about 6 ms on a 2-core Xeon VM
KERNEL_REFERENCE_S = 0.006  # one kernel run at the reference speed
PAD_S = 0.5  # about five kernel runs on each side of an interval

_N = 127  # riskpath's default number of interior grid nodes
_BANDS = np.zeros((2, _N))
_BANDS[0, 1:] = -1.0
_BANDS[1, :] = 2.2
_FACTOR = cholesky_banded(_BANDS)
_RHS = np.linspace(0.1, 1.0, _N)


def kernel() -> float:
    """One run of the fixed calibration work; returns a value so it is not idle."""
    x = _RHS
    for _ in range(KERNEL_REPS):
        u = cho_solve_banded((_FACTOR, False), x)
        if not np.all(np.isfinite(u)):
            raise FloatingPointError("calibration kernel diverged")
        s = float(np.dot(u, u))
        x = np.maximum(u - 0.01 * s, 0.0) * 0.5 + _RHS
    return float(x[0])


class SpeedProbe:
    """Context manager that samples the host speed while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)
        finally:
            self._busy = False

    def _between(self, a: float, b: float) -> list[float]:
        return self.durations[bisect.bisect_left(self.starts, a):bisect.bisect_right(self.starts, b)]

    def own(self, a: float, b: float) -> float:
        """Seconds of ``[a, b]`` not spent in the kernel."""
        return (b - a) - sum(self._between(a, b))

    def speed(self, a: float, b: float) -> float:
        """Mean kernel seconds near ``[a, b]``; the nearest sample if none is near."""
        near = self._between(a - PAD_S, b + PAD_S)
        if near:
            return statistics.fmean(near)
        if not self.starts:
            raise RuntimeError("no host-speed samples were taken")
        mid = (a + b) / 2
        return self.durations[min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))]

    def scaled(self, a: float, b: float) -> float:
        """Own seconds of ``[a, b]`` at the reference host speed."""
        return self.own(a, b) * KERNEL_REFERENCE_S / self.speed(a, b)
