"""Host speed sampling: takes a shared host's slow stretches out of timings.

On a shared host the same code runs up to 1.8 times slower, in stretches
from under a second to minutes, as other tenants load the core.  A verify
call of the same inputs took from 12 to 21 s on one host within minutes.

While a run is measured, a SIGALRM handler times a fixed reference kernel
of about 1 ms every PERIOD_S of wall time, inside whatever operation is
running.  The kernel is built like the program's hot path: small-matrix
NumPy calls driven by a Python loop.  An operation's time is its wall time
less the kernel calls made inside it, scaled by REFERENCE_KERNEL_S over the
mean kernel time during the operation (widened by WINDOW_S on either side,
so that a short operation has enough samples).  The result is the
operation's time on a host where one kernel call takes REFERENCE_KERNEL_S.

The kernel runs either at a fast speed or about 1.8 times slower, and the
mean, not the median, follows the share of time spent slow.  The fast speed
itself moves by up to 20% from run to run, so the scale is a constant, not the
fastest call of the run.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 1.0
ROUNDS = 200
# The uncontended time of one kernel call on the 2-vCPU x86 VM this
# benchmark was built on.
REFERENCE_KERNEL_S = 0.6e-3

_G = np.random.default_rng(0).normal(size=(6, 6))
_REFERENCE = (_G + _G.T) / 2.0
_EYE = np.eye(6)


def _kernel() -> None:
    w = _REFERENCE.copy()
    for i in range(ROUNDS):
        c, s = math.cos(0.1 * i), math.sin(0.1 * i)
        p, r = i % 5, 5 - i % 5
        rot = _EYE.copy()
        rot[p, p] = rot[r, r] = c
        rot[p, r], rot[r, p] = s, -s
        w = rot.T @ w @ rot


class SpeedSampler:
    """Context manager that samples the host speed while it is entered."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.took.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedSampler:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def split(self, spans) -> tuple[np.ndarray, np.ndarray]:
        """For an array of (start, end) wall-clock spans: the time each spent
        outside the kernel, and the factor that scales it to the reference
        speed, both in the shape of ``spans`` without its last axis."""
        spans = np.asarray(spans)
        starts, took = np.asarray(self.starts), np.asarray(self.took)
        busy, factor = [], []
        for start, end in spans.reshape(-1, 2):
            inside = (starts >= start) & (starts < end)
            near = (starts >= start - WINDOW_S) & (starts < end + WINDOW_S)
            busy.append(end - start - took[inside].sum())
            factor.append(REFERENCE_KERNEL_S / took[near].mean())
        return np.reshape(busy, spans.shape[:-1]), np.reshape(factor, spans.shape[:-1])
