"""Rescale timings to a nominal machine speed.

The benchmark was built on a 2-CPU Xeon VM (2.0 GHz) whose CPUs share
their cores with other tenants.  The speed of one CPU there switches
between two levels 1.5x apart every second or so, and the two CPUs switch
independently (correlation 0.1); a 5 s call varied by 15% between runs.

So the worker pins itself to one CPU and a sampler thread runs a fixed
pure-Python kernel every SAMPLE_EVERY_S on it.  A timed interval is
rescaled as

    (wall time - kernel time inside it) * NOMINAL_S / median kernel time

over the kernel samples within WINDOW_S of the interval.  While the
kernel runs, the sampler holds the interpreter lock (or the CPU, for a
child process), so the timed code is paused and that time is taken out.
On that VM this cut the spread of a 5 s census(5) call from 15% to 5%.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

#: The kernel's duration at the VM's fast level.
NOMINAL_S = 0.002
SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.1

_BITS = (0x2F5, 0x133, 0x2A6, 0x27C, 0x37A, 0x323, 0x25A, 0x0CB, 0x3F3, 0x239)
_ROWS = tuple(tuple((3 * i + 5 * j + i * j) % 7 for j in range(16)) for i in range(16))


def kernel():
    """A fixed workload that touches no seqmat code.

    It mixes what the workloads do: small-int arithmetic, XOR elimination
    on bit-packed rows, Fraction sums with dict and list churn, and
    modular row elimination on lists.
    """
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    rows = _BITS
    for _ in range(40):
        coeff = [1 << t for t in range(10)]
        for i in range(10):
            r, x, t = rows[i], 0, 0
            while r:
                if r & 1:
                    x ^= coeff[t]
                r >>= 1
                t += 1
            coeff[i] = x
        rows = tuple(c | 1 << i for i, c in enumerate(coeff))
    total, seen = Fraction(0), {}
    for i in range(80):
        total += Fraction(i % 7 + 1, i % 5 + 1)
        seen[i % 17] = (i, total.numerator & 1023)
        sorted([j * i for j in range(20)], reverse=True)
    work = [list(r) for r in _ROWS]
    for i in range(16):
        base = [-v % 7 for v in work[i]]
        for k in range(i + 1, 16):
            c, wk = work[k][i], work[k]
            if c:
                for t in range(16):
                    if base[t]:
                        wk[t] = (wk[t] + c * base[t]) % 7


class Sampler:
    """Runs kernel() on a thread; rescales intervals on time.monotonic()."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        clock = time.monotonic
        while not self._stop.wait(SAMPLE_EVERY_S):
            start = clock()
            kernel()
            end = clock()
            self.starts.append(start)
            self.ends.append(end)

    def rescale(self, start, end):
        """Nominal-speed duration of the interval [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi <= lo:
            raise RuntimeError("no speed samples near a timed interval")
        near = list(zip(self.starts[lo:hi], self.ends[lo:hi]))
        paused = sum(max(0.0, min(e, end) - max(s, start)) for s, e in near)
        speed = statistics.median(e - s for s, e in near)
        return (end - start - paused) * NOMINAL_S / speed
