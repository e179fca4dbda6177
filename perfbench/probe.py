"""Machine calibration probe, recorded with every run as ``machine.*``.

Two short NumPy measurements that a later gate can use to normalise
absolute figures across machines:

* ``stream_gbps`` — a triad ``a = b + s*c`` over three 16 MiB float64
  arrays (48 MiB in all).  The recording machine has a 2 MiB L2 per
  core and runs the benchmark on at most 2 cores, so each array is 4x
  the L2 of the cores used and the triad streams from the 300 MiB
  shared L3: this is **L2-spill (L3) bandwidth**, not DRAM bandwidth
  (DRAM-sized arrays would need more than 1 GB).  NumPy evaluates the
  triad in two passes (``a = s*c``, then ``a += b``); bytes are counted
  as STREAM counts them, 24 per element.
* ``ufunc_dispatch_us`` — the per-call cost of ``np.add`` on 8-element
  arrays, which bounds how fast a kernel made of one NumPy call per IR
  op can step a small cell count.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

STREAM_ELEMENTS = 2 * 1024 * 1024          # 16 MiB per float64 array
STREAM_REPEATS = 9
DISPATCH_CALLS = 20000
DISPATCH_REPEATS = 7


def stream_gbps() -> float:
    b = np.full(STREAM_ELEMENTS, 1.5)
    c = np.full(STREAM_ELEMENTS, 2.5)
    a = np.empty(STREAM_ELEMENTS)
    rates = []
    for _ in range(STREAM_REPEATS):
        start = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        seconds = time.perf_counter() - start
        rates.append(24.0 * STREAM_ELEMENTS / seconds / 1e9)
    if a[0] != 9.0:
        raise AssertionError("stream triad computed a wrong value")
    return statistics.median(rates)


def ufunc_dispatch_us() -> float:
    x = np.ones(8)
    y = np.ones(8)
    out = np.empty(8)
    add = np.add
    costs = []
    for _ in range(DISPATCH_REPEATS):
        start = time.perf_counter()
        for _ in range(DISPATCH_CALLS):
            add(x, y, out=out)
        costs.append((time.perf_counter() - start) / DISPATCH_CALLS * 1e6)
    return statistics.median(costs)


def calibrate() -> dict:
    return {"machine.stream_gbps": stream_gbps(),
            "machine.ufunc_dispatch_us": ufunc_dispatch_us()}
