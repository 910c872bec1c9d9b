"""A fixed reference loop that calibrates the benchmark's timings.

On a shared 2-vCPU host the same pass runs up to twice as slow for stretches
of 5 to 60 s while other tenants load the machine, with little steal time
reported to the guest; a whole 30 s run can fall in such a stretch. Raw pass
times over ten runs then spread by 0.3 to 0.5 of their median. This loop is
timed right before and after every pass and every set-up, and a timing is
reported as its ratio to the loop's time, in seconds at REF_S per loop: the
slowdown that a neighbour imposes on both cancels, a change to the program
moves only the pass. Like tsnmf, the loop spends about half its time in
pure Python (integer arithmetic, dict stores, float formatting, string joins)
and half in small numpy products and element-wise passes over a 540 x 32
matrix; it touches no code of the program.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one loop counts as. About what it takes on an unloaded core of the
# machine of the committed baseline (2 vCPU Xeon, Python 3.11.7), so that
# calibrated seconds read as seconds there.
REF_S = 0.1
ITERATIONS = 75_000
NUMPY_ROUNDS = 1600

_RNG = np.random.default_rng(0)
_T = _RNG.random((540, 32))
_W = _RNG.random((540, 4))
_THETA = _RNG.random((4, 32))


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    parts = []
    table = {}
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
        table[i & 1023] = f"{i * 0.1:.6g}"
        if i & 255 == 0:
            parts.append(",".join(table.values()))
    w = _W
    for _ in range(NUMPY_ROUNDS):
        gram = _THETA @ _THETA.T
        w = np.maximum(w + 1e-3 * (_T @ _THETA.T - w @ gram), 0.0)
        total += float(np.sum(w * w))
    return time.perf_counter() - start


def calibrated(wall_s: float, ref_s: float) -> float:
    """``wall_s`` in seconds at REF_S per reference loop."""
    return wall_s / ref_s * REF_S
