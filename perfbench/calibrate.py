"""Host speed, measured with a fixed pure-Python kernel.

The benchmark's host shares its cores with other work, and the same code
runs up to about 1.6 times slower for seconds at a time.  A run
interleaves `kernel()` with its verdicts and scales each time it reports
by REFERENCE_MS / (mean kernel time around it).  A reported time is thus
what the work would take on a host where one kernel run takes
REFERENCE_MS: a slow spell of the host does not read as a slower program,
and a faster program still reads as faster.  The kernel imports nothing
from finkar, so a change to the package cannot move it.  The raw times
are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# Sets the unit only: close to the kernel's median time on the host that
# took the baseline.
REFERENCE_MS = 1.4


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> int:
    """About 1.5 ms of interpreter work shaped like finkar's: small
    objects, list building, divmod rank arithmetic and a dict index."""
    acc = 0
    for n in range(2, 30):
        cells = [_Cell(k, k % 3) for k in range(n)]
        for _ in range(3):
            step = []
            for c in cells:
                q, r = divmod(c.a * 31 + c.b, n)
                step.append(_Cell(r, q % 7))
            cells = step
        index = {c.a: j for j, c in enumerate(cells)}
        acc += len(index) + sum(c.b for c in cells)
    return acc


def scale(samples: list) -> float:
    """The factor that turns raw times taken at the speed these kernel
    samples (ns) show into reference-host times."""
    return REFERENCE_MS * 1e6 / statistics.fmean(samples)


class Speed:
    """Kernel times sampled through a run."""

    def __init__(self):
        self.samples: list[int] = []  # ns per kernel run

    def sample(self, count: int = 1):
        for _ in range(count):
            t0 = time.perf_counter_ns()
            kernel()
            self.samples.append(time.perf_counter_ns() - t0)
