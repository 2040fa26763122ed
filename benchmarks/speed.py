"""Host speed, measured by fixed reference loops run beside the workload.

On a shared virtual machine the same Python code runs anywhere from 1.0x
to 1.9x its best time, in spells lasting from a fraction of a second to
minutes.  A benchmark run of half a minute can sit wholly inside one
spell, so neither the median nor the least time of a run repeats from run
to run.  The slowdown reaches the interpreter and numpy by different
amounts: in 120-second recordings, a pure Python loop and the sp6q Python
layers slowed together, while a numpy pass over a 16 MB array slowed far
less.

A Speedometer times the two reference loops below, neither of which calls
the package, each twice, keeping the shorter time so that one preemption
does not count as a slow spell.  It returns the host's slowness as a factor: 1.0 at the speed
where the loops take NOMINAL_PYTHON_S and NOMINAL_NUMPY_S, 1.5 when they
take half as long again.  The factor mixes the two loops in the share of
interpreter time of the work it corrects.  The benchmark divides each
measured time by the factor taken around it, so its times read as if the
host ran at the nominal speed throughout.  On a different host the
nominal speed is simply that host's speed relative to the constants.
"""

from __future__ import annotations

import time

import numpy as np

# Best-case times of the two loops on a 2-vCPU x86-64 virtual machine with
# Python 3.11 and numpy 2.4.
NOMINAL_PYTHON_S = 0.0027
NOMINAL_NUMPY_S = 0.0160
NUMPY_ELEMENTS = 2_000_000


def python_loop() -> int:
    """Build integer lists, count into them and memoise them as tuples under
    tuple keys, as sp6q's polynomial code does."""
    memo: dict = {}
    for i in range(1200):
        coeffs = [0] * 60
        for e in range(0, 60, 3):
            coeffs[e] += i
        memo[(i, i + 1, i + 2)] = tuple(coeffs)
    return len(memo)


def numpy_loop(values) -> int:
    """Elementwise passes over an array larger than the processor caches."""
    return int(((values * 3 + 7) % 5 == 0).sum())


def _shorter_of_two(loop, *args) -> float:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        loop(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Measures the host's slowness factor on demand.

    python_share is the fraction of the corrected work spent in the
    interpreter; the rest is taken to be numpy passes over large arrays.
    """

    def __init__(self, python_share: float):
        if not 0.0 <= python_share <= 1.0:
            raise ValueError(f"python_share must be in [0, 1], got {python_share}")
        self.python_share = python_share
        self.values = (
            np.arange(NUMPY_ELEMENTS, dtype=np.int64) % 101 if python_share < 1.0 else None
        )
        self.factors: list[float] = []

    def factor(self) -> float:
        slow = self.python_share * _shorter_of_two(python_loop) / NOMINAL_PYTHON_S
        if self.values is not None:
            slow += (1.0 - self.python_share) * _shorter_of_two(numpy_loop, self.values) / NOMINAL_NUMPY_S
        self.factors.append(slow)
        return slow


class Unmetered:
    """A Speedometer that runs nothing and reports the nominal speed, for
    traced runs, whose times stay as measured."""

    def __init__(self):
        self.factors: list[float] = []

    def factor(self) -> float:
        return 1.0
