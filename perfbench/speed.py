"""Machine speed, measured next to the workload so that its drift can be taken out.

The benchmark runs on a share of a host whose neighbours load it unevenly
in two ways. They take the CPU away (steal time, which grows when the
workload keeps more than one CPU busy), and they slow the CPU down while it
runs (shared caches, memory bandwidth, clock speed), by up to 2x for
minutes at a time. The benchmark therefore times each op in CPU seconds of
the worker process, which leaves steal out, and divides that by
`slowdown()`: the CPU time of a fixed reference that uses nothing of the
package, over its nominal time. What results is CPU seconds at nominal
speed, which is what the benchmark reports; setup time, which is short and
mostly single-threaded, is wall time divided the same way. run.py prints
the wall-clock figures too.

The reference has three parts, one for each kind of work the workloads do:
an interpreter loop, a NumPy pass over preallocated arrays, and touching
every page of freshly mapped memory. None of them allocates from the
process heap, so the state the package leaves behind does not change what
they cost, and they are timed in the calling thread's CPU time, so a thread
the package leaves running does not change it either. The slowdown is the
mean of the three parts' time over nominal. On a 2-vCPU share of a shared
x86-64 host, over 60 s of each workload in 3 s blocks, the spread of the
blocks' op rates (IQR over median) was, for wall-clock time / CPU time /
CPU time over slowdown: sweep_wide 0.146 / 0.064 / 0.066, solve_grid
0.387 / 0.386 / 0.074, place_large 0.258 / 0.258 / 0.105, simulate_draws
0.030 / 0.030 / 0.034.

The nominal times are about what the parts take on such a host; they only
set the scale and never change, so adjusted timings of two commits compare
like CPU times on a machine whose speed holds still.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

PY_NOMINAL_S, NP_NOMINAL_S, PAGES_NOMINAL_S = 1.0e-3, 0.5e-3, 2.0e-3
EVERY_S = 0.25  # the timed loop samples the speed after the op that crosses this much time

_ARRAY = np.linspace(0.0, 1.0, 65536)
_ROOTS = np.empty_like(_ARRAY)
_SUMS = np.empty_like(_ARRAY)
_MAPPED_BYTES = 1 << 21


def _interpreter() -> int:
    total = 0
    for k in range(10000):
        total += k * k % 7
    return total


def _numpy() -> float:
    np.sqrt(_ARRAY, out=_ROOTS)
    np.cumsum(_ROOTS, out=_SUMS)
    return float(_SUMS[-1])


def _fresh_pages() -> None:
    with mmap.mmap(-1, _MAPPED_BYTES) as mem:
        for offset in range(0, _MAPPED_BYTES, mmap.PAGESIZE):
            mem[offset] = 1


def slowdown() -> float:
    """The machine's current slowdown against the nominal times (1.0 = nominal)."""
    t0 = time.thread_time()
    _interpreter()
    t1 = time.thread_time()
    _numpy()
    t2 = time.thread_time()
    _fresh_pages()
    t3 = time.thread_time()
    return ((t1 - t0) / PY_NOMINAL_S + (t2 - t1) / NP_NOMINAL_S
            + (t3 - t2) / PAGES_NOMINAL_S) / 3


def settled() -> float:
    """Median slowdown over five samples, after one that warms the kernels up."""
    slowdown()
    return statistics.median(slowdown() for _ in range(5))


def per_op(samples: list[float], marks: list[int], ops: int) -> list[float]:
    """The slowdown that applies to each op of a timed loop.

    `samples[k]` was taken just before op `marks[k]`; the last mark is `ops`.
    An op between samples k and k + 1 gets the median of those two and of
    one more on each side, so that one disturbed sample does not set it.
    """
    factors = []
    for k in range(len(marks) - 1):
        near = statistics.median(samples[max(0, k - 1):k + 3])
        factors += [near] * (marks[k + 1] - marks[k])
    assert len(factors) == ops
    return factors
