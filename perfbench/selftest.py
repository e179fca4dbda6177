"""Attribution self-test: a slowdown shows up in exactly one layer's row.

A small fixed scenario (LuoRudy91 JIT-built into a fresh kernel cache,
then 40 steps at 256 cells) is traced several times clean and several
times with a fixed delay injected into one public function, the delay
wrapped *inside* that function's span.  A row is the self time per call
of one entry point.  The injected row must move by more than the bound
and every other row by less.  A row "moves" when the median of its
paired (injected minus clean, run back to back) differences exceeds
``BOUND`` of its clean median and ``FLOOR_MS`` (so rows of a few
microseconds are not judged on timer noise).
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import time
from typing import Dict, List, Tuple

from repro import codegen, frontend
from repro.models import model_entry
from repro.runtime import executor
from repro.runtime.executor import KernelRunner
from repro.runtime.kernel_cache import KernelCache

from spans import SpanIndex, SpanRecorder, Wrappers

BOUND = 0.25
FLOOR_MS = 0.5
REPEATS = 9
MODEL, CELLS, STEPS = "LuoRudy91", 256, 40

#: (row that must move, owner, attribute, delay in seconds per call)
INJECTIONS = (
    ("lower_function", executor, "lower_function", 0.02),
    ("KernelRunner.solver_step", KernelRunner, "solver_step", 0.001),
)


def _scenario(work_dir: str) -> None:
    cache = KernelCache(tempfile.mkdtemp(dir=work_dir))
    model = frontend.load_model_file(model_entry(MODEL).path)
    runner = KernelRunner(codegen.generate_limpet_mlir(model, width=8),
                          cache=cache, artifacts=False)
    runner.run(runner.make_state(CELLS), STEPS, 0.01)


def _delayed(fn, seconds: float):
    """``fn`` after a busy wait (sleeping would let the core idle and
    cool down, slowing whatever runs next)."""
    def slow(*args, **kwargs):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return fn(*args, **kwargs)
    return slow


def _rows(work_dir: str, injection=None) -> Dict[str, float]:
    if injection is not None:
        _, owner, attr, delay = injection
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, _delayed(original, delay))
    recorder = SpanRecorder("selftest")
    gc.collect()            # every scenario starts from the same heap
    wrappers = Wrappers(recorder)
    wrappers.install()
    try:
        _scenario(work_dir)
    finally:
        wrappers.remove()
        if injection is not None:
            setattr(owner, attr, original)
    index = SpanIndex(recorder)
    return {name: index.self_ms_per_call(name)
            for name in {s[0] for s in recorder.spans}}


def run_selftest(work_dir: str) -> Tuple[bool, List[str]]:
    """(passed, report lines)."""
    conditions = [None] + list(INJECTIONS)
    samples: List[List[Dict[str, float]]] = [[] for _ in conditions]
    for _ in range(REPEATS):            # interleaved against drift
        for i, injection in enumerate(conditions):
            samples[i].append(_rows(work_dir, injection))

    clean = samples[0]
    passed = True
    lines = []
    for injection, runs in zip(INJECTIONS, samples[1:]):
        target = injection[0]
        moved = []
        for row in clean[0]:
            base = statistics.median(r[row] for r in clean)
            # paired differences cancel drift slower than one scenario
            shift = statistics.median(s.get(row, 0.0) - c[row]
                                      for s, c in zip(runs, clean))
            if abs(shift) > max(BOUND * base, FLOOR_MS):
                moved.append(row)
        ok = sorted(moved) == [target]
        passed = passed and ok
        lines.append(
            f"selftest: delay {injection[3] * 1e3:g} ms in {target}: "
            f"rows moved {sorted(moved)} -> {'ok' if ok else 'FAILED'}")
    return passed, lines
