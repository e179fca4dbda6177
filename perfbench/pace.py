"""Correct timings for the machine's contended phases.

The recording machine is shared.  A fixed CPU-bound loop on it runs at
one of two speeds: an uncontended one, and one about 1.5x slower while
neighbouring tenants are busy.  The slow phase lasts from a tenth of a
second to several seconds and covers 20-90% of the time, and the mix
drifts over minutes, so raw medians of a 15 s run moved by up to 30%
between runs of the same code.

Every timed interval is therefore bracketed by a short fixed probe, and
an interval's corrected time is its raw time scaled by the probe's
nominal time over the mean probe time around and inside it: a sample
taken while the probe ran 1.5x slow is scaled down by 1.5.  The probe
is the same code on both sides of any comparison, so a change to the
program moves corrected times exactly as it moves raw ones; only the
neighbours' share is taken out.  Raw figures are printed to stderr.

Contention slows interpreter- and dispatch-bound work more than work
on arrays that spill the L2, so each probe times two parts, each shaped
like the work it corrects: ``mixed`` (a Python loop, small NumPy calls
and one 2 MiB array operation) for compile paths and large kernels,
and ``dispatch`` (a Python loop and NumPy calls on 256-element arrays)
for kernels at a few hundred cells, whose steps are all NumPy
dispatch.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: each probe's uncontended time on the recording machine (2-vCPU
#: container, Python 3.11, NumPy 2.4); corrected times are expressed
#: at that probe speed
PROBE_NOMINAL_S = {"mixed": 0.00060, "dispatch": 0.00025}
#: a probe belongs to an interval if it ends or starts this close to it
SLACK_S = 0.002

clock = time.perf_counter
Span = Tuple[float, float]


class Pace:
    """Probes, and the timed spans they bracket."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random(2048)
        self._tiny = rng.random(256)
        self._medium = rng.random(1 << 18)
        self._out = np.empty_like(self._medium)
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.seconds: Dict[str, List[float]] = {"mixed": [], "dispatch": []}

    def probe(self) -> None:
        start = clock()
        acc = 0
        for i in range(3000):
            acc += i * i
        for _ in range(30):
            np.exp(self._small)
        np.multiply(self._medium, 1.5, out=self._out)
        middle = clock()
        x, out = self._tiny, self._out[:256]
        for i in range(1500):
            acc += i * i
        for _ in range(60):
            np.multiply(x, x, out=out)
            np.exp(out, out=out)
            np.add(out, x, out=out)
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds["mixed"].append(middle - start)
        self.seconds["dispatch"].append(end - middle)

    def timed(self, fn: Callable, *args):
        """(result, spans): ``fn(*args)`` between two probes."""
        return self.staged([lambda _: fn(*args)])

    def staged(self, stages):
        """Run ``stages`` in order, each fed the previous one's result,
        with a probe before, between and after; stops early when a stage
        returns None.  Returns (last result, one span per stage)."""
        spans: List[Span] = []
        value = None
        self.probe()
        for stage in stages:
            start = clock()
            value = stage(value)
            spans.append((start, clock()))
            self.probe()
            if value is None:
                break
        return value, spans

    def factor(self, span: Span, kind: str = "mixed") -> float:
        """Mean ``kind`` probe time around and inside ``span``, over its
        nominal time."""
        lo = bisect.bisect_left(self.ends, span[0] - SLACK_S)
        hi = bisect.bisect_right(self.starts, span[1] + SLACK_S)
        inside = self.seconds[kind][lo:hi]
        if not inside:
            raise ValueError("no probe brackets this interval")
        return statistics.mean(inside) / PROBE_NOMINAL_S[kind]

    def corrected(self, spans: List[Span], kind: str = "mixed") -> float:
        """Corrected seconds of a sample made of ``spans``."""
        return sum((end - start) / self.factor((start, end), kind)
                   for start, end in spans)

    def median_factor(self, kind: str = "mixed") -> float:
        return (statistics.median(self.seconds[kind])
                / PROBE_NOMINAL_S[kind])
