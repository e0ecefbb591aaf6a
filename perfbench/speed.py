"""Machine-speed probe, which scales sweep timings to a reference speed.

On a shared machine the speed of this process's code changes with the
neighbours' load, by up to half again in stretches of seconds to
minutes, and a 30-second run may fall wholly into a slow or a fast
stretch.  :func:`probe` times a fixed piece of work that uses nothing
from the program: dict, tuple and float operations in the interpreter
and a few small numpy sorts, with the garbage collector off so that the
program's heap does not enter its time.  The sweep benchmark runs it
right before and after every timed item (a worker's set-up, a pass, a
single-cell request); :func:`scale` turns the two probe times into the
factor that takes the item's time to what it would be on a machine
where the probe takes :data:`REFERENCE_S`.  Between the slow and the
fast stretches of one machine a single-cell request's time moves with
the probe's to within a few percent, so scaled times repeat where raw
ones do not.  Work that spends part of its time outside interpreted
code (compiled kernels, process start, file reads) moves less, and
takes the factor to a power below 1.  The probe never calls the program, so a change to the
program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

#: Probe time on the machine the bounds were set on, in a fast stretch
#: (2-core x86-64, CPython 3.11).
REFERENCE_S = 1.6e-3

def _work() -> float:
    rng = random.Random(7)
    table = {}
    for i in range(2000):
        x = rng.random()
        table[(i, round(x, 3))] = [x, 2.0 * x]
    rows = sorted(table.items())
    arr = np.array([v[0] for _, v in rows])
    for _ in range(10):
        arr = np.sort(arr * 1.0001)
    return float(arr[0]) + rows[0][1][1]


def probe() -> float:
    """Seconds the fixed work takes now (the faster of two tries)."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float, exponent: float = 1.0) -> float:
    """Factor taking a time measured between two probes to the
    reference speed, for code whose time moves with the probe's raised
    to ``exponent``."""
    return (REFERENCE_S / (0.5 * (before + after))) ** exponent
