"""A fixed pure-Python reference kernel that measures the machine's speed.

On a shared host the same Python code runs up to twice as fast in one
stretch of seconds as in the next, in CPU time as well as in wall time, so a
raw time says as much about the neighbours as about the program.  The
benchmark runs this kernel just before and just after every timed op and
divides the op's time by the kernel's mean time: a machine-wide slowdown
lengthens both and cancels out of the ratio.

The kernel does the kind of work pentgeo does (tuples of small ints, sets
and dicts keyed by them, membership tests, sorting) on a fixed input, and
belongs to the benchmark, so no change to pentgeo can move it.  It takes
about 20 ms on a 2-vCPU host with Python 3.11.7.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

_POINTS = 400
_rng = random.Random("perfbench/calibration")
_LINES = tuple(tuple(sorted(_rng.sample(range(_POINTS), 3))) for _ in range(6000))


def kernel() -> int:
    by_point: dict[int, list[tuple[int, ...]]] = {}
    for line in _LINES:
        for x in line:
            by_point.setdefault(x, []).append(line)
    collinear = [{y for ln in by_point.get(x, ()) for y in ln if y != x} for x in range(_POINTS)]
    pairs: set[tuple[int, int]] = set()
    for x in range(_POINTS):
        near = collinear[x]
        far = [y for y in range(_POINTS) if y not in near]
        pairs.update((x, y) for y in far[::3] if x < y)
    return len(pairs) + sum(len(c) for c in collinear) + len(sorted(_LINES, reverse=True))


EXPECTED = kernel()


def measure() -> float:
    """Seconds one run of the kernel takes now.

    The cyclic collector is off while it runs: a collection it triggered
    would scan the program's heap, and the kernel's time must not depend on
    what the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        result = kernel()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return elapsed
