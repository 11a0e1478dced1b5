"""Machine-speed reference for the timing metrics.

On a shared machine the speed of the same Python code drifts by tens of
percent over minutes, so raw times from runs taken apart in time cannot
be compared within a 25 % bound.  A fixed pure-Python kernel, which does
not touch thlrecon, is therefore timed before every session and after
each set-up, and each time is reported at the reference speed:
``raw * REF_NS / kernel time``, with the median of the kernel runs
nearest to it.  A change to the library moves the
session time but not the kernel, so it shows in full.

The kernel mixes the work the library does: shifts and xors of 511-bit
ints, lookups at random indices of a 4 MiB array (like the exp/log
tables of GF(2^18) and GF(2^19)), dict stores and small-int arithmetic.
"""

import statistics
import time
from array import array

ITERATIONS = 2000
MASK = (1 << 511) - 1

# Median kernel time on the machine where the benchmark was defined
# (2 cores, CPython 3.11.7): reported times are at this speed.
REF_NS = 3_000_000


class Speed:
    def __init__(self):
        self._table = array("L", range(1 << 19))

    def sample_ns(self) -> int:
        """Time one run of the kernel."""
        table = self._table
        t0 = time.perf_counter_ns()
        x = 0x9E3779B97F4A7C15F39CC0605CEDC834 | (1 << 500)
        acc = 0
        seen = {}
        for i in range(ITERATIONS):
            x = ((x << 1) ^ (x >> 3) ^ i) & MASK
            acc ^= table[(x * 2654435761) & 0x7FFFF]
            seen[acc & 1023] = i
            for k in range(4):
                acc = (acc * 31 + k) & 0xFFFFFFFF
        return time.perf_counter_ns() - t0

    @staticmethod
    def scale(samples_ns) -> float:
        """Factor that takes times measured next to these kernel samples
        to the reference speed."""
        return REF_NS / statistics.median(samples_ns)
