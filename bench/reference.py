"""A fixed reference computation that measures how fast the host is right now.

On a shared machine the same pass can take a third longer in one minute
than in the next, because other tenants take the cores, the caches and the
memory bus.  The worker runs :func:`block` between passes and reports each
pass's wall time as a multiple of the time of the blocks on either side of
it (``wall_rel``).  That ratio follows the program, not the host: a change
under ``src/`` moves the pass and leaves the reference alone.

The reference never touches ``eventweave`` and must not change between the
two commits of a comparison.  It is a mix of the two kinds of work the
workloads do: an interpreted loop (``figure``'s draw loop, ``growth``'s
graph walks) and numpy on a cache-resident matrix and on a 4 MB array
(``wide``'s contractions, ``lattice``'s sweeps).  Its inputs are built on
the first call, so they count neither towards set-up nor towards a pass.
"""

from __future__ import annotations

import functools
import random
import statistics
import time

import numpy as np

#: units per block; each kernel's median over the units is taken
UNITS = 3
_LOOP_STEPS = 60_000
_BUCKETS = 64


def interpreter_unit() -> int:
    """Seeded draws into dictionary buckets: about 25 ms of bytecode."""
    rng, counts, total = random.Random(12345), {}, 0
    for _ in range(_LOOP_STEPS):
        k = int(rng.random() * _BUCKETS)
        counts[k] = counts.get(k, 0) + 1
        total += k
    return total


@functools.cache
def _arrays() -> tuple[np.ndarray, np.ndarray]:
    matrix = np.random.default_rng(0).standard_normal((160, 160)) + 0j
    array = np.random.default_rng(1).standard_normal(1 << 18) + 0j
    return matrix, array


def numpy_unit() -> float:
    """Complex matrix products in cache, then passes over a 4 MB array."""
    matrix, array = _arrays()
    b = matrix
    for _ in range(6):
        b = (matrix @ b) * 0.01
    for _ in range(12):
        w = np.abs(array * array + array)
    return float(b[0, 0].real + w[0])


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def block(units: int = UNITS) -> float:
    """Seconds of one reference unit now: median interpreter unit plus
    median numpy unit over ``units`` interleaved runs of each."""
    loop, arrays = [], []
    for _ in range(units):
        loop.append(_timed(interpreter_unit))
        arrays.append(_timed(numpy_unit))
    return statistics.median(loop) + statistics.median(arrays)
