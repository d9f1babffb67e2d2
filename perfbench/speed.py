"""A reference kernel that measures how fast the machine runs right now.

On a machine shared with other tenants the CPU's speed drifts: the same
operation takes up to ~1.8 times as long for stretches of several seconds,
so medians of raw wall time differ by 20-40% between runs a minute apart.
The benchmark therefore times this fixed kernel next to every measured
interval and reports the interval as ``wall * REF_S / kernel time``:
seconds on the machine the benchmark was written on, in its fast state.
The kernel uses no rankprobe code, so a change to the program moves the
corrected time exactly as it moves the wall time.

The kernel mixes interpreter work with small-array NumPy calls, the same
mix the learners spend their time in.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time, in its fast state, on a 2-core x86-64 virtual machine running
# CPython 3.11 and NumPy 2.4; the unit that corrected seconds are given in.
REF_S = 0.05

_ITERS = 6000
_A = np.arange(256, dtype=np.int64)


def reference_s():
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_ITERS):
        b = _A[i % 128 : i % 128 + 64]
        s += int(np.unique(b % 61).size) + len({i, i >> 1, i % 7})
    return time.perf_counter() - t0


def corrected(wall, reference):
    """``wall`` seconds measured while the kernel took ``reference`` seconds."""
    return wall * REF_S / reference
