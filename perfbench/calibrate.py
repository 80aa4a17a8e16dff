"""Core-speed calibration for the end-to-end times.

On the 2-vCPU host this benchmark was built on, the pinned core's speed
drifts between levels up to 1.8x apart, for seconds to tens of seconds at a
time, in CPU time as much as in wall time (host steal time stays near zero). Raw operation times therefore
spread by 20-40 % between runs, whatever the run length. A fixed kernel that
shares no code with myoarm, timed on the same core every ``PERIOD_S`` while
an operation runs, measures the speed the operation saw. The benchmark
subtracts the kernel's own time and divides by the mean slowdown: it reports
seconds at the reference speed (``NOMINAL_S`` is the kernel's time there).
A change to myoarm moves the operation time and not the kernel, so it shows
in the scaled time.

The correction is exact only for code with the kernel's mix of scalar Python
and numpy calls (about 4:1 in time, the mix of the simulator as it stands).
Slow periods slow scalar Python about twice as much as numpy, so for a
change that moves work between the two, the scaled time still carries part
of the host's drift: about 3 % of the change/parent ratio across the
slowdowns seen (1.6-2.2) for changes that moved a 2x2 or 7x7 solve between
numpy and Python. The raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass

import numpy as np

from tracing import clock

PERIOD_S = 0.05
NOMINAL_S = 0.0006   # the kernel's time at the reference core speed


@dataclass
class _Link:
    length: float
    mass: float
    com: float
    inertia: float


_LINKS = [_Link(0.1 + 0.01 * i, 1.0 + 0.1 * i, 0.05, 0.01) for i in range(7)]
_H = np.eye(7) + 0.1
_GAIN = np.eye(2) * 1.5 + 0.1


def kernel(n: int = 120, n_small: int = 20) -> float:
    """Work shaped like the simulator's: recursive Newton-Euler-style scalar
    math on small objects' attributes and short lists, then controller-style
    calls on 2-vectors. The host's slow periods slow the first part about
    twice as much as the second; at about 4:1 in time the mix tracks every
    workload's slowdown (the scalar part alone over-corrects the controller).
    """
    acc = 0.0
    for r in range(n):
        q = [0.1 * ((r + i) % 5) for i in range(len(_LINKS))]
        out = [0.0] * len(_LINKS)
        phi = w = ax = ay = 0.0
        for i, link in enumerate(_LINKS):
            phi += q[i]
            c, s = math.cos(phi), math.sin(phi)
            ax = ax + (-w * s - w * w * c) * link.length
            ay = ay + (w * c - w * w * s) * link.com
            out[i] = link.mass * ax + link.inertia * ay + acc * 1e-12
            w += 0.01
        acc += sum(out)
    acc += float(np.linalg.solve(_H, np.array(out))[0])
    v = np.array([0.3, 0.4])
    for _ in range(n_small):
        e = _GAIN @ v
        acc += float(np.concatenate([e, v])[1])
        v = np.clip(0.5 * e, -1.0, 1.0)
    return acc


def slowdown_now(repeats: int = 5) -> float:
    """Median of a few back-to-back kernel times, over the nominal time."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return statistics.median(times) / NOMINAL_S


class Sampler:
    """Times the kernel from a SIGALRM handler every PERIOD_S of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        kernel()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean kernel time over nominal, the top and bottom tenth trimmed:
        a sample the scheduler interrupted says nothing about core speed."""
        if len(self.samples) < 10:
            return slowdown_now()
        ordered = sorted(self.samples)
        k = len(ordered) // 10
        return statistics.fmean(ordered[k:len(ordered) - k]) / NOMINAL_S
