"""Machine-speed calibration for the end-to-end timings.

On a shared 2-vCPU x86-64 virtual machine (Linux, Python 3.11) the same op's
wall time drifted by up to 1.6x over tens of seconds, and its CPU time with
it, so raw timings of two 30-second runs could differ by more than any useful
bound.  A fixed pure-Python kernel is therefore timed right before every op
and after the last, and each op's latency is scaled by ``REFERENCE_S`` over
the mean of the two kernel times around it.  The result is the op's latency
on a machine that runs the kernel in ``REFERENCE_S``; the raw wall times are
reported beside it.  Set-up times are scaled the same way, by kernel times
taken in the fresh interpreter being timed.

The kernel does the kind of work yangalg's hot paths do (small-integer
polynomial products and sums on tuples, object creation, a short recursive
search) but imports nothing from yangalg, so a change to the program cannot
move it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0075


class _Poly:
    __slots__ = ("lo", "c")

    def __init__(self, lo, c):
        self.lo = lo
        self.c = tuple(c)

    def mul(self, other):
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[i + j] += x * y
        return _Poly(self.lo + other.lo, out)

    def add(self, other):
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.lo + len(self.c), other.lo + len(other.c)) - lo)
        for i, x in enumerate(self.c):
            out[self.lo + i - lo] += x
        for i, x in enumerate(other.c):
            out[other.lo + i - lo] += x
        return _Poly(lo, out)


_POLYS = [_Poly(-3, [(7 * i + 3 * j) % 19 - 9 for j in range(7)]) for i in range(8)]


def _kernel():
    acc = _Poly(0, [0])
    for r in range(60):
        for i in range(8):
            acc = acc.add(_POLYS[i].mul(_POLYS[(i + r) % 8]))
    leaves = [0]

    def search(k):
        if k == 7:
            leaves[0] += 1
            return
        for step in (1, -1, 2):
            if (k + step) % 5:
                search(k + 1)

    search(0)
    return acc, leaves[0]


def kernel_s() -> float:
    """Wall time of one kernel pass, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scales(kernel_times: list[float]) -> list[float]:
    """Scale factor for each op from the kernel times taken before and after
    it (``len(kernel_times)`` is one more than the number of ops)."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(kernel_times, kernel_times[1:])]
