"""Layer spans recorded from outside the program.

The benchmark never edits the program: it wraps each layer's public
entry point *at the place the caller looks it up* (a module global or
a class attribute), records one span per call, and restores the
originals afterwards.  Spans stay in memory; :meth:`SpanRecorder.dump`
writes them out as one JSON file when the run ends.

A span's self time is its duration minus the durations of its direct
children, so a layer's self time excludes every layer it calls into.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import aot, codegen, easyml, frontend
from repro.aot import bundle as aot_bundle
from repro.aot import build as aot_build
from repro.ir.passes.pass_manager import PassInstrumentation, PassManager
from repro.obs.passes import count_ops_by_dialect
from repro.population import runner as population_runner
from repro.population.runner import PopulationRunner
from repro.runtime import executor, lowering
from repro.runtime.executor import KernelRunner
from repro.runtime.kernel_cache import KernelCache
from repro.runtime.sharded import ShardedRunner
from repro.runtime.supervised import SupervisedRunner

_clock = time.perf_counter

#: span fields, in the order each span tuple stores them
FIELDS = ("name", "layer", "start", "end", "parent", "phase", "info")


class SpanRecorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.phase = "setup"
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, info) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, layer, _clock(), None,
                           stack[-1] if stack else -1, self.phase, info])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = _clock()
        self._stack().pop()

    def record(self, name: str, layer: str, start: float, end: float,
               info=None) -> None:
        """A finished span under the innermost open span."""
        stack = self._stack()
        self.spans.append([name, layer, start, end,
                           stack[-1] if stack else -1, self.phase, info])

    def self_times(self) -> List[float]:
        """Per-span duration minus its direct children's durations."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def dump(self, path: str) -> None:
        rows = [dict(zip(FIELDS, s)) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "clock": "perf_counter",
                       "spans": rows}, fh)


class PassTimer(PassInstrumentation):
    """Per-pass spans, nested under the ``PassManager.run`` span."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._start = 0.0

    def before_pass(self, pass_, module) -> None:
        self._start = _clock()

    def after_pass(self, pass_, module, changed, seconds) -> None:
        self.recorder.record(f"ir.pass.{pass_.name.lower()}", "ir.passes",
                             self._start, _clock())


# -- what each wrapped call records besides its times -------------------------


def _runner_info(args, kwargs):
    runner, state = args[0], args[1]
    return (runner.model.name, state.n_cells, runner.execution_tier)


def _run_info(args, kwargs):
    runner, state = args[0], args[1]
    n_steps = args[2] if len(args) > 2 else kwargs.get("n_steps")
    return (runner.model.name, state.n_cells, runner.execution_tier,
            n_steps)


def _population_info(args, kwargs):
    pop, state = args[0], args[1]
    n_steps = args[2] if len(args) > 2 else kwargs.get("n_steps")
    return (pop.model.name, state.n_cells, "population", n_steps)


def _op_count(module) -> int:
    return sum(count_ops_by_dialect(module).values())


#: (owner, attribute, span name, layer, info-before, info-after)
#: info-after sees the call's result and arguments and runs after the
#: span has closed, so its cost lands in no layer's self time.
def entry_points() -> Sequence[Tuple]:
    hit = lambda r, a, k: r is not None  # noqa: E731
    return (
        (easyml, "parse_model_file", "parse_model_file", "easyml",
         None, None),
        (frontend, "analyze", "analyze", "frontend", None, None),
        (codegen, "generate_limpet_mlir", "generate_limpet_mlir",
         "codegen", None, lambda r, a, k: _op_count(r.module)),
        (population_runner, "generate_limpet_mlir", "generate_limpet_mlir",
         "codegen", None, lambda r, a, k: _op_count(r.module)),
        (aot_build, "generate_limpet_mlir", "generate_limpet_mlir",
         "codegen", None, lambda r, a, k: _op_count(r.module)),
        (PassManager, "run", "PassManager.run", "ir.passes", None,
         lambda r, a, k: _op_count(a[1])),
        (executor, "verify_module", "verify_module", "ir.verifier",
         None, None),
        (executor, "lower_function", "lower_function", "lowering",
         None, lambda r, a, k: len(r.source)),
        (executor, "compile_kernel_source", "compile_kernel_source",
         "lowering", None, None),
        (lowering, "compile_kernel_source", "compile_kernel_source",
         "lowering", None, None),
        (KernelCache, "load", "KernelCache.load", "kernel_cache", None,
         hit),
        (KernelCache, "store", "KernelCache.store", "kernel_cache",
         None, None),
        (aot, "runner_from_store", "runner_from_store", "aot", None, hit),
        (aot_bundle.ArtifactStore, "load_key", "ArtifactStore.load_key",
         "aot", None, None),
        (aot_bundle.ArtifactStore, "lookup_kernel",
         "ArtifactStore.lookup_kernel", "aot", None, hit),
        (executor, "build_all_luts", "build_all_luts", "lut", None, None),
        (KernelRunner, "compute_step", "KernelRunner.compute_step",
         "executor", _runner_info, None),
        (KernelRunner, "solver_step", "KernelRunner.solver_step",
         "executor", _runner_info, None),
        (KernelRunner, "run", "KernelRunner.run", "executor", _run_info,
         None),
        (ShardedRunner, "compute_step", "ShardedRunner.compute_step",
         "sharded", _runner_info, None),
        (SupervisedRunner, "compute_step", "SupervisedRunner.compute_step",
         "supervised", _runner_info, None),
        (SupervisedRunner, "run", "SupervisedRunner.run", "supervised",
         _run_info, None),
        (PopulationRunner, "run", "PopulationRunner.run", "population",
         _population_info, None),
    )


def _wrap(recorder: SpanRecorder, fn: Callable, name: str, layer: str,
          before, after) -> Callable:
    def wrapper(*args, **kwargs):
        index = recorder.open(name, layer,
                              before(args, kwargs) if before else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            recorder.spans[index][6] = after(result, args, kwargs)
        return result
    return wrapper


def _wrap_pass_run(recorder: SpanRecorder, run: Callable) -> Callable:
    """``PassManager.run`` that carries a :class:`PassTimer` while it runs."""
    def run_with_timer(self, *args, **kwargs):
        timer = PassTimer(recorder)
        self.instrumentations.append(timer)
        try:
            return run(self, *args, **kwargs)
        finally:
            self.instrumentations.remove(timer)
    return run_with_timer


class Wrappers:
    """One recorder's wrappers around every entry point; :meth:`install`
    and :meth:`remove` switch them on and off."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, layer, before, after in entry_points():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            fn = original
            if owner is PassManager and attr == "run":
                fn = _wrap_pass_run(self.recorder, fn)
            setattr(owner, attr,
                    _wrap(self.recorder, fn, name, layer, before, after))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


# -- per-entry-point aggregates -----------------------------------------------


class SpanIndex:
    """Self times of one recorder, grouped by span name."""

    def __init__(self, recorder: SpanRecorder):
        self.spans = recorder.spans
        self.own = recorder.self_times()

    def select(self, name: str, phase: Optional[str] = None,
               where: Optional[Callable] = None) -> List[int]:
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (phase is None or s[5] == phase)
                and (where is None or where(s[6]))]

    def self_ms_per_call(self, name: str, **kw) -> float:
        picked = self.select(name, **kw)
        if not picked:
            return 0.0
        return 1e3 * sum(self.own[i] for i in picked) / len(picked)

    def mean_info(self, name: str) -> float:
        values = [self.spans[i][6] for i in self.select(name)
                  if self.spans[i][6] is not None]
        return sum(values) / len(values) if values else 0.0

    def sum_ms(self, name: str) -> float:
        return 1e3 * sum(self.spans[i][3] - self.spans[i][2]
                         for i in self.select(name))

    def true_ratio(self, *names: str) -> float:
        """Share of calls whose recorded outcome is truthy (a hit)."""
        picked = [i for n in names for i in self.select(n)]
        if not picked:
            return 0.0
        return sum(1 for i in picked if self.spans[i][6]) / len(picked)

    def ms_per_step(self, name: str, own: bool = False, **kw) -> float:
        """Time of ``run``-like spans per step; ``own`` takes self time
        (the step loop without the calls it makes)."""
        picked = self.select(name, **kw)
        steps = sum(self.spans[i][6][3] for i in picked)
        if not steps:
            return 0.0
        total = sum(self.own[i] if own
                    else self.spans[i][3] - self.spans[i][2]
                    for i in picked)
        return 1e3 * total / steps

    def layer_self_ms(self) -> Dict[str, Tuple[float, int]]:
        """Layer -> (self ms over the whole run, span count)."""
        table: Dict[str, Tuple[float, int]] = {}
        for s, own in zip(self.spans, self.own):
            ms, n = table.get(s[1], (0.0, 0))
            table[s[1]] = (ms + 1e3 * own, n + 1)
        return table
