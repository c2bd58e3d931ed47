"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The benchmark runs on shared hosts whose speed changes by up to 1.8x from
one second to the next.  Timing this kernel next to every op gives the local
speed, and every benchmark time is scaled to a machine on which the kernel
takes :data:`REFERENCE_S` seconds.  The kernel mixes the work gvcglab does:
an integer assignment scan with list lookups, and ``Fraction`` arithmetic.
It imports nothing from gvcglab, so changes there cannot move it.

Changing the kernel or :data:`REFERENCE_S` changes the scale of every
benchmark time: do it only together with a fresh baseline.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from itertools import product
from time import perf_counter

REFERENCE_S = 0.003
SAMPLE_INTERVAL_S = 0.1

_TABLES = [[(i * 7919 + a * 104729) % 1000 for i in range(64)] for a in range(3)]


def kernel() -> tuple[int, Fraction]:
    best = -1
    for assignment in product(range(4), repeat=6):
        masks = [0, 0, 0]
        for obj, owner in enumerate(assignment):
            if owner < 3:
                masks[owner] |= 1 << obj
        welfare = _TABLES[0][masks[0]] + _TABLES[1][masks[1]] + _TABLES[2][masks[2]]
        if welfare > best:
            best = welfare
    harmonic = Fraction(0)
    for k in range(1, 150):
        harmonic += Fraction(1, k)
    return best, harmonic


def seconds() -> float:
    """Wall time of one kernel run, with the cyclic collector paused.

    A collection is part of an op's own cost, not a sign of the machine's
    speed, so none may land inside the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reads the kernel every :data:`SAMPLE_INTERVAL_S` during an op.

    An op can last over a second, longer than the machine keeps one speed,
    so readings before and after it are not enough.  A ``SIGALRM`` handler
    takes readings while the op runs; :attr:`spent` is the time the handler
    took, which the caller subtracts from the op's time.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.readings.append(seconds())
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.readings = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
