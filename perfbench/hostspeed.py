"""Speed probes that cancel the shared host's speed changes.

The benchmark's vCPUs are shared with other tenants, and a core's speed
switches between levels up to about 1.45x apart every few seconds: a
pure-Python loop that takes 12 ms at the fast level takes 17 ms at the
slow one.  Every timed region is therefore followed by a fixed probe on
the same, pinned, CPU, and its time is multiplied by ``reference / probe
time`` (``Scaler`` says which probes count): the figure reported is what
the region would have taken at the reference speed.  The probes use only
Python, numpy and scipy, never morsekit, so a change to the program
cannot change them.

Contention slows different kinds of work by different amounts (a
pure-Python loop by 1.19x where a dense n = 512 ``eigh`` slowed by 1.08x),
so each workload names the probe that is most like the work that
dominates it.  Repeating the same ops for a minute or two, the
interquartile range of one op's time over its median was, unscaled and
then scaled by the chosen probe: 0.32 to 0.075 for exact fuzz ops
(Fraction probe), 0.32 to 0.10 for float fuzz ops (small-LAPACK probe),
0.17 to 0.09 for pde ops at n = 1024 (dense-LAPACK probe), 0.18 to 0.085
for CLI processes (interpreter probe).  A pure-Python loop as the probe
did worse on all four, and on the pde ops worse than no scaling (0.20).
``REFERENCE_S`` holds each probe's time on a 2-vCPU Xeon virtual machine
at its fast level; they are constants, so figures from different commits
compare.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(0)
_S = _rng.standard_normal((8, 8))
_S = _S + _S.T
_N = 384
_A = _rng.standard_normal((_N, _N))
_A = _A + _A.T
_B = _rng.standard_normal((_N, _N))
_M = np.eye(_N) + _B @ _B.T / _N


def _interpreter() -> None:
    """A fresh interpreter that imports two stdlib modules and exits.
    No timeout: with one, subprocess polls the child on a sleep schedule
    and the measured time steps with it."""
    subprocess.run([sys.executable, "-I", "-c", "import json, fractions"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)


def _fraction() -> None:
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i) - Fraction(1, i)


def _small_lapack() -> None:
    for _ in range(40):
        scipy.linalg.eigh(_S)


def _dense_lapack() -> None:
    scipy.linalg.eigh(_A, _M)


PROBES = {"interpreter": _interpreter, "fraction": _fraction,
          "small-lapack": _small_lapack, "dense-lapack": _dense_lapack}
REFERENCE_S = {"interpreter": 42e-3, "fraction": 1.4e-3,
               "small-lapack": 1.5e-3, "dense-lapack": 22.5e-3}


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to its highest allowed CPU,
    so the probe runs on the core that does the work."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Scaler:
    """Runs the probe once before the first timed region and once after
    each; ``factors()`` then gives each region the factor that takes its
    time to the reference speed.

    A region's factor uses the median of the probes within ``WINDOW_S`` of
    it, and at least the two that bracket it.  The speed levels last
    seconds, so the window follows them, while a single probe that was
    interrupted cannot scale a short op far up or down.
    """

    WINDOW_S = 0.1

    def __init__(self, probe: str):
        self.probe = PROBES[probe]
        self.reference = REFERENCE_S[probe]
        self.marks: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.regions: list[tuple[float, float]] = []
        self._run_probe()

    def _run_probe(self) -> None:
        t0 = time.perf_counter()
        self.probe()
        t1 = time.perf_counter()
        self.marks.append(((t0 + t1) / 2, t1 - t0))

    def region(self, start: float, end: float) -> None:
        """Record a timed region that has just ended, then probe."""
        self.regions.append((start, end))
        self._run_probe()

    def factors(self) -> list[float]:
        out = []
        marks = self.marks
        for i, (start, end) in enumerate(self.regions):
            lo, hi = i, i + 1
            while lo > 0 and marks[lo - 1][0] >= start - self.WINDOW_S:
                lo -= 1
            while hi + 1 < len(marks) and marks[hi + 1][0] <= end + self.WINDOW_S:
                hi += 1
            out.append(self.reference
                       / statistics.median(m[1] for m in marks[lo:hi + 1]))
        return out
