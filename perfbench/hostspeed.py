"""Scale measured times to a fixed host speed.

On a shared host, other tenants slow every instruction this process runs:
on the 2-CPU x86-64 sandbox this benchmark was tuned on, they made mvphe
ops 1.6x to 2x slower for seconds to minutes at a time, and CPU time
slowed as much as wall time did.  A whole 40 s run could read 1.7x slow,
so no choice of ops within a run removes it.

The slowdown hits any pure-Python arithmetic alike.  So the benchmark
times a fixed kernel, which is its own code and never changes with the
program, every READ_EVERY seconds between ops.  A time ``t`` measured next
to kernel readings ``r`` is reported as ``t * REF_S / median(r)``: the time
it would have taken on a host where the kernel takes REF_S.  Over 3 s
windows of a run on that sandbox, this cut the spread of op time from
0.26-0.32 to 0.05 of its median on ``circuit-toy`` and ``cli-eval``.
"""

from __future__ import annotations

import statistics
import time
from random import Random

READ_EVERY = 0.1  # seconds between readings in the timed loop
REF_S = 1e-3      # nominal kernel time: about its time on the quiet sandbox
WINDOW = 5        # readings on each side of an op that its scale uses

_rng = Random(0)
_A = [_rng.getrandbits(62) for _ in range(256)]
_B = [_rng.getrandbits(62) for _ in range(256)]
_Q = (1 << 61) - 1


def kernel() -> int:
    """Big-integer dot products mod q, a sort and a dict, as mvphe does."""
    acc = 0
    for _ in range(14):
        for a, b in zip(_A, reversed(_B)):
            acc = (acc + a * b) % _Q
        keys = sorted(a ^ acc for a in _A[::3])
        acc ^= len(dict(zip(keys, _A)))
    return acc


class HostSpeed:
    def __init__(self):
        self.readings: list[float] = []

    def read(self) -> int:
        """Time the kernel once and return the reading's index."""
        t0 = time.perf_counter()
        kernel()
        self.readings.append(time.perf_counter() - t0)
        return len(self.readings) - 1

    def scale(self, k: int) -> float:
        """Factor for a time measured between readings k and k + 1."""
        near = self.readings[max(0, k + 1 - WINDOW): k + 1 + WINDOW]
        return REF_S / statistics.median(near)
