"""Machine-speed calibration, so timings from a host whose speed drifts
can be compared across runs.

On a shared host the same pure-Python work can take 1.5x longer for minutes
at a time, so raw wall clock from two runs minutes apart differs by more
than any change worth catching.  The benchmark therefore times a fixed
kernel (pure-Python object, tuple and dict work, like the type checker's)
next to the program, and scales every timing by
``REFERENCE_KERNEL_S / kernel time``: the time the program would have taken
at the speed at which the kernel takes :data:`REFERENCE_KERNEL_S`.  The
kernel is part of the benchmark, not of the program, so a change to the
program moves the scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from typing import List

#: Kernel time at the reference speed: about what a 2.1 GHz x86 core takes
#: when its host is quiet.
REFERENCE_KERNEL_S = 0.008
#: Kernel runs per calibration; the fastest one counts.
KERNEL_REPEATS = 2


class _Cell:
    __slots__ = ("key", "kids", "link")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids
        self.link = None


def _kernel() -> int:
    table = {}
    cells: List[_Cell] = []
    for i in range(6000):
        cell = _Cell(("k", i % 97, i), [cells[i // 2]] if cells else [])
        cells.append(cell)
        table[cell.key] = cell
        cell.link = table.get(("k", (i * 7) % 97, i // 3))
    deepest = 0
    for cell in cells:
        depth = 0
        while cell.kids:
            cell = cell.kids[0]
            depth += 1
        deepest = max(deepest, depth)
    return deepest


def kernel_seconds() -> float:
    """CPU seconds the calibration kernel takes now (thread CPU time, so
    waiting for a core does not count, only how fast the core runs)."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.thread_time()
        _kernel()
        best = min(best, time.thread_time() - start)
    return best


def slowdown(kernel_s: float) -> float:
    """How much slower than the reference speed the host ran."""
    return kernel_s / REFERENCE_KERNEL_S
