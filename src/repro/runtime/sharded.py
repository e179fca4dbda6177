"""One shard executor: the kernel call over width-aligned cell shards.

The generated kernels wrap their cell loop in ``omp.parallel`` —
openCARP's compute stage is embarrassingly parallel over cells.
:class:`ShardedRunner` splits ``[0, n_alloc)`` into contiguous,
width-aligned shards (or takes a ``shard_plan``) and hands each compute
step's ``[start, end)`` kernel calls to the head of a **ladder of
pools**: :class:`ThreadPool` (NumPy ufunc inner loops release the GIL,
so shards overlap on real cores), or the supervised worker processes of
:class:`~repro.runtime.supervised.ProcessPool`.  Below the last pool is
the inline call (:class:`InlinePool`).  With ``degrade`` set, a failed
run restarts from its initial checkpoint lower down the ladder.

Shards are disjoint and every model is cell-local, so trajectories are
**bitwise identical** for 1 vs N shards on every rung.  The buffer
arena is refused: its per-kernel scratch would alias across shards.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

from ..codegen.common import GeneratedKernel
from ..obs import flight as _flight
from ..obs import ledger as _ledger
from ..obs import metrics as _metrics
from .executor import KernelRunner
from .state import SimulationState


def _module_has_omp(module, sym_name: str) -> bool:
    """True when the kernel function contains an ``omp.parallel`` region."""
    func = module.lookup_func(sym_name)
    return func is not None and any(op.name == "omp.parallel"
                                    for op in func.walk())


def shard_bounds(n_alloc: int, n_shards: int, width: int
                 ) -> List[Tuple[int, int]]:
    """Split ``[0, n_alloc)`` into ≤ ``n_shards`` width-aligned ranges.

    Bounds land on multiples of ``width`` (vector kernels consume whole
    blocks); trailing shards may be empty and are dropped, so fewer
    shards than requested can come back for small cell counts.
    """
    if width <= 0:
        width = 1
    n_blocks = (n_alloc + width - 1) // width
    n_shards = max(1, min(n_shards, n_blocks if n_blocks else 1))
    base, extra = divmod(n_blocks, n_shards)
    bounds: List[Tuple[int, int]] = []
    block = 0
    for i in range(n_shards):
        take = base + (1 if i < extra else 0)
        start = block * width
        block += take
        end = min(block * width, n_alloc)
        if end > start:
            bounds.append((start, end))
    return bounds


def _check_plan(plan: List[Tuple[int, int]], width: int) -> None:
    """Refuse a ``shard_plan`` that is not a contiguous, width-aligned
    partition starting at 0 (its end is checked against each state)."""
    covered = 0
    for start, end in plan:
        if start != covered:
            raise ValueError(
                f"shard_plan bound ({start}, {end}) leaves a gap or "
                f"overlap at cell {covered}: a plan must partition "
                f"[0, n_alloc) contiguously")
        if end <= start:
            raise ValueError(f"shard_plan bound ({start}, {end}) is empty")
        if start % width or (end % width and end != plan[-1][1]):
            raise ValueError(
                f"shard_plan bound ({start}, {end}) is not aligned to "
                f"the kernel width {width}")
        covered = end


class SupervisedExecutionError(RuntimeError):
    """A pool's supervision gave up on a shard (retries exhausted):
    :meth:`ShardedRunner.run` drops that one rung, or re-raises."""

    def __init__(self, message: str, slot: int = -1, attempts: int = 0,
                 step: int = -1):
        super().__init__(message)
        self.slot = slot
        self.attempts = attempts
        self.step = step


class InlinePool:
    """The bottom rung, and the pool protocol's no-op defaults: every
    shard runs as one kernel call over the whole allocation."""

    name = "single"

    def __init__(self, runner: "ShardedRunner"):
        self.runner = runner

    def attach(self, state: SimulationState) -> None:
        """Ready ``state`` for a run on this pool (in-process pools
        share it as it is)."""

    def detach(self) -> None:
        """Undo :meth:`attach` once the run ends, however it ends."""

    def run_shards(self, state: SimulationState,
                   shards: List[Tuple[int, int]], args: list) -> None:
        """Run ``kernel.fn`` over ``shards``; ``args`` is the bound
        argument list (``args[:2]`` span the whole allocation)."""
        self.runner.kernel.fn(*args)

    def close(self) -> None:
        """Release the pool's workers (it may be used again)."""


class ThreadPool(InlinePool):
    """The threads rung: one kernel call per shard on a thread pool."""

    name = "threads"

    def __init__(self, runner: "ShardedRunner", n_threads: int):
        super().__init__(runner)
        self.n_threads = n_threads
        self._executor: Optional[ThreadPoolExecutor] = None

    def run_shards(self, state, shards, args) -> None:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_threads,
                thread_name_prefix="limpet-shard")
        fn, tail = self.runner.kernel.fn, args[2:]
        futures = [self._executor.submit(fn, start, end, *tail)
                   for start, end in shards]
        for future in futures:
            future.result()     # propagate the first kernel exception

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ShardedRunner(KernelRunner):
    """A :class:`KernelRunner` whose compute steps run shard-parallel
    on the head of :attr:`ladder` (threads, then inline, here).

    ``n_threads`` defaults to the machine's CPU count.  Use as a
    context manager (or call :meth:`close`) to shut the pools down
    promptly; an unclosed pool is reclaimed at interpreter exit.
    """

    #: restart failed runs lower down the ladder instead of re-raising
    degrade = False

    def __init__(self, generated: GeneratedKernel, n_threads: int = 0,
                 shard_plan: Optional[List[Tuple[int, int]]] = None,
                 **kwargs):
        if kwargs.get("arena"):
            raise ValueError("ShardedRunner cannot use the buffer arena: "
                             "arena slots would alias across shards")
        kwargs["arena"] = False
        super().__init__(generated, **kwargs)
        self.n_threads = n_threads or (os.cpu_count() or 1)
        # an explicit decomposition (e.g. the population layer sharding
        # along the instance axis) overrides the default cell split
        if shard_plan is not None:
            _check_plan(shard_plan, generated.spec.width)
        self.shard_plan = shard_plan
        from ..codegen.layout import LayoutKind
        if self.layout.kind is LayoutKind.SOA and self.n_threads > 1:
            raise ValueError(
                "ShardedRunner cannot shard SoA kernels: their slot "
                "stride is the `end` argument, so they are only valid "
                "over the whole allocation (end == n_alloc)")
        if generated.module is None:
            # an AOT ArtifactKernel: no module to walk — the bundle
            # entry recorded whether the kernel was omp-marked
            self.parallel_marked = bool(
                getattr(generated, "omp_parallel", False))
        else:
            self.parallel_marked = _module_has_omp(
                generated.module, generated.spec.function_name)
        #: the pools, most preferred first; the inline rung is last
        self.ladder: List[InlinePool] = [ThreadPool(self, self.n_threads),
                                         InlinePool(self)]
        self.diagnostics: List = []
        self._shards: Optional[Tuple[int, List[Tuple[int, int]]]] = None

    @property
    def tier(self) -> str:
        """The rung currently in effect: its pool's name."""
        return self.ladder[0].name

    execution_tier = tier

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        for pool in self.ladder:
            pool.close()

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sharded compute stage -----------------------------------------------------

    def shards_for(self, state: SimulationState) -> List[Tuple[int, int]]:
        cached = self._shards
        if cached is not None and cached[0] == state.n_alloc:
            return cached[1]
        if self.shard_plan is not None:
            if self.shard_plan[-1][1] != state.n_alloc:
                raise ValueError(
                    f"shard_plan covers [0, {self.shard_plan[-1][1]}) "
                    f"but the allocation is [0, {state.n_alloc})")
            bounds = list(self.shard_plan)
        else:
            bounds = shard_bounds(state.n_alloc, self.n_threads,
                                  self.spec.width)
        self._shards = (state.n_alloc, bounds)
        sizes = [end - start for start, end in bounds]
        if sizes:
            mean = sum(sizes) / len(sizes)
            _metrics.gauge("shard_count",
                           "shards of the latest decomposition"
                           ).set(len(bounds))
            _metrics.gauge("shard_imbalance_ratio",
                           "largest shard / mean shard size"
                           ).set(max(sizes) / mean if mean else 1.0)
        return bounds

    def compute_step(self, state: SimulationState, dt: float) -> None:
        """One compute-stage invocation, its shards run by the top rung."""
        args = self._bind_args(state, dt)
        args[3] = state.time
        shards = self.shards_for(state)
        if len(shards) > 1:
            self.ladder[0].run_shards(state, shards, args)
        else:
            self.kernel.fn(*args)

    # -- run: the degradation ladder -----------------------------------------------

    def run(self, state: SimulationState, n_steps: int, dt: float = 0.01,
            stimulus=None, record_vm: bool = False, watchdog=None,
            step_hook=None, time_breakdown: bool = False):
        """:meth:`KernelRunner.run` on the top rung.

        With ``degrade`` set, a failed run restores its initial
        checkpoint and starts over lower down: a
        :class:`SupervisedExecutionError` drops one rung, any other
        exception drops to the inline rung.  A
        :class:`~repro.resilience.watchdog.NumericalDivergenceError` is
        a watchdog verdict, not an infrastructure failure: it never
        degrades.  Later runs start on the rung reached.
        """
        from ..resilience.watchdog import NumericalDivergenceError
        initial = state.checkpoint() \
            if self.degrade and len(self.ladder) > 1 else None
        while True:
            pool = self.ladder[0]
            try:
                try:
                    pool.attach(state)
                    return super().run(state, n_steps, dt, stimulus,
                                       record_vm, watchdog, step_hook,
                                       time_breakdown)
                finally:
                    pool.detach()
            except NumericalDivergenceError:
                raise
            except Exception as err:
                if initial is None or len(self.ladder) == 1:
                    raise
                state.restore(initial)
                self._drop(1 if isinstance(err, SupervisedExecutionError)
                           else len(self.ladder) - 1, err)

    def _drop(self, n_rungs: int, error: BaseException) -> None:
        """Close the top ``n_rungs`` pools and record the degradation
        (diagnostic, ``degradations_total``, flight dump, ledger row)."""
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        from_tier = self.tier
        for pool in self.ladder[:n_rungs]:
            pool.close()
        del self.ladder[:n_rungs]
        # which shard failed at which step, when supervision knows
        where = {key: getattr(error, key, None)
                 for key in ("slot", "step", "attempts")}
        diag = Diagnostic.from_exception(
            stage="run", component="supervised", exc=error,
            severity=Severity.WARNING, with_traceback=False,
            from_tier=from_tier, to_tier=self.tier, model=self.model.name,
            **where)
        diag.message = (f"degrading {from_tier} -> {self.tier}: "
                        f"{diag.message}")
        log_diagnostic(diag)
        self.diagnostics.append(diag)
        _metrics.counter("degradations_total",
                         "execution-tier downgrades taken").inc()
        _flight.dump("degradation",
                     extra=dict(where, from_tier=from_tier,
                                to_tier=self.tier, model=self.model.name))
        _ledger.record_event("degradation", model=self.model.name,
                             tier=self.tier, from_tier=from_tier,
                             disposition="degraded", **where)
