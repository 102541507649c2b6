"""The host's speed next to a timed piece of work, from a fixed kernel.

On a shared host the same work can take half as long again for seconds to
minutes at a time, in the interpreter and in libraries alike, so a run's
median moves with the minutes it ran in. The kernel below, set intersections
and unions in pure Python like the builder's inner loop, is timed just before
and just after the work, and between its stages where it has them. Seconds
multiplied by ``factor(before, after)`` are reference seconds: what the work
would take on a host that runs the kernel in ``REFERENCE_KERNEL_S``. The
program's speed does not enter the factor, so a change to the program moves
reference seconds as it moves seconds.
"""
from __future__ import annotations

import random
import time

#: seconds the kernel takes on the reference host (a definition, not a measurement)
REFERENCE_KERNEL_S = 0.1
_SETS = [frozenset(random.Random(i).sample(range(400), 3)) for i in range(500)]


def kernel_s() -> float:
    """Seconds this host takes for the kernel now."""
    start = time.perf_counter()
    total = 0.0
    for a in _SETS:
        for b in _SETS:
            total += len(a & b) / len(a | b)
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """From seconds to reference seconds, for work timed between two kernels."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


class Probe:
    """Reference seconds of work done in pieces, with the kernel timed before
    the first piece and after each one."""

    def __init__(self):
        self.kernels = [kernel_s()]
        self.ref_s = 0.0

    def add(self, seconds: float) -> None:
        """Count a piece of work that took ``seconds`` and ended just now."""
        self.kernels.append(kernel_s())
        self.ref_s += seconds * factor(self.kernels[-2], self.kernels[-1])
