"""The three workloads: set-up, timed measurement and output checks.

Every workload uses width-8 limpetMLIR kernels with fused lowering and
the AoSoA layout (the ``KernelRunner`` and ``generate_limpet_mlir``
defaults), runs as a closed loop from this one process, and uses at
most 2 threads or worker processes.  Inputs come from the seed only:
the initial-state perturbation, the population's parameter values and
the order in which models are visited.

Each workload returns a :class:`Result` of timed spans; ``run.py``
corrects them (``pace.py``) and turns them into metrics.  An
*operation* is one kernel build with its first step, one reference
check, or one timed ``run()`` chunk.  It fails if it raises, if its
output differs from the reference, or if it took another path than the
one asked for (a cache or bundle build that silently re-JITed).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import aot, codegen, frontend
from repro.aot import ArtifactStore, build_bundle
from repro.machine.instrument import profile_kernel
from repro.models import ALL_MODELS, load_model, model_entry
from repro.population import PopulationRunner, PopulationSpec
from repro.runtime import KernelCache, KernelRunner, interpret_kernel
from repro.runtime.state import allocate_state

from pace import Pace, clock

WIDTH = 8
DT = 0.01
#: relative initial-state jitter drawn from the seed
PERTURBATION = 0.01
CHECK_CELLS = 16
#: the ROADMAP representative set
REPRESENTATIVE = ("FitzHughNagumo", "LuoRudy91", "Courtemanche", "OHara",
                  "TomekORd")

ZOO_CELLS = 64
ZOO_RUN_STEPS = 20
#: 6 rounds x 43 models = 258 samples per path, so >= 10 lie beyond p90
ZOO_MIN_ROUNDS = 6
#: bundle builds per run, for setup_s
ZOO_SETUPS = 5

#: steps per timed chunk, sized to roughly 0.1 s per chunk
STEADY_CHUNK = {
    32768: {"FitzHughNagumo": 100, "LuoRudy91": 4, "Courtemanche": 2,
            "OHara": 1, "TomekORd": 1},
    256: {"FitzHughNagumo": 2000, "LuoRudy91": 400, "Courtemanche": 170,
          "OHara": 60, "TomekORd": 60},
}
MIN_CYCLES = 3
#: set-ups per run: each gives one time-to-first-step sample per model
#: and path, and the 256-cell samples are the noisier ones (no long
#: first step dilutes the compile time's contention noise)
STEADY_SETUPS = {32768: 5, 256: 14}

#: the population run after steady_32k's measurement (see
#: population_tiers); it is not a workload of its own because its
#: two-CPU tiers could not be made steady on the recording machine
POP_MODEL, POP_PARAM = "LuoRudy91", "GK"
POP_INSTANCES, POP_CELLS = 16, 1024
POP_CHUNK = 20
POP_ROUNDS = 5
POP_CHECK_STEPS = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Mismatch(AssertionError):
    """An operation's output or path differs from what was asked for."""


class Ops:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn: Callable, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None


@dataclass
class Context:
    seed: int
    seconds: float
    work_root: str
    traced: bool = False
    #: called with True/False to switch span recording on and off
    set_tracing: Callable[[bool], None] = lambda on: None
    set_phase: Callable[[str], None] = lambda phase: None
    ops: Ops = field(default_factory=Ops)
    pace: Pace = field(default_factory=Pace)
    #: the probe part that corrects timed chunks (see pace.py)
    chunk_probe: str = "mixed"
    _closers: List[Callable] = field(default_factory=list)

    def rng(self, *tags: str) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed] + [zlib.crc32(t.encode()) for t in tags])

    def order(self, names, *tags: str) -> List[str]:
        return [names[i] for i in self.rng("order", *tags)
                .permutation(len(names))]

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.work_root)

    def keep(self, runner):
        """Close ``runner`` (thread pool, worker processes) at the end."""
        self._closers.append(runner.close)
        return runner

    def close(self) -> None:
        while self._closers:
            self._closers.pop()()


@dataclass
class Result:
    """Timed samples of one run, before correction; a sample is a list
    of (start, end) spans."""

    setup: List[tuple] = field(default_factory=list)
    ttfs: Dict[str, List[tuple]] = field(
        default_factory=lambda: {"jit": [], "cache": [], "artifact": []})
    #: (model, tier) row -> [(cell-steps, spans)]
    throughput: Dict[tuple, List[tuple]] = field(default_factory=dict)
    #: per-layer values only a workload can compute (traced runs)
    layer: Dict[str, float] = field(default_factory=dict)
    #: model -> computed (flops, bytes) per cell-step (traced runs)
    flops: Dict[str, tuple] = field(default_factory=dict)
    #: peak resident memory when the measured part ended
    peak_rss_mb: float = float("nan")
    #: median corrected cost of an untraced and of a traced measurement
    #: cycle (for obs.trace_overhead_frac)
    overhead_pair: Optional[tuple] = None


# -- building and checking runners --------------------------------------------


def _same(a, b) -> bool:
    return (np.array_equal(a.sv, b.sv)
            and a.externals.keys() == b.externals.keys()
            and all(np.array_equal(a.externals[k], b.externals[k])
                    for k in a.externals))


def _expect_path(runner, path: str) -> None:
    if runner is None:
        raise Mismatch(f"{path} build returned no runner (miss)")
    took = ("artifact" if runner.artifact_hit
            else "cache" if runner.cache_hit else "jit")
    if took != path:
        raise Mismatch(f"asked for the {path} path, took {took}")


def _step_stages(ctx: Context, name: str, n_cells: int) -> list:
    """The stages after a build: allocate the state, take one step."""
    def allocate(runner):
        return runner, runner.make_state(
            n_cells, perturbation=PERTURBATION, rng=ctx.rng(name, "state"))

    def first_step(built):
        built[0].run(built[1], 1, DT)
        return built
    return [allocate, first_step]


def _timed_build(ctx: Context, stages: list, path: str, name: str,
                 n_cells: int):
    """(runner, state, spans): the build ``stages``, then the first step,
    each stage timed between probes.  Garbage of earlier samples is
    collected first: a cold start does not inherit it."""
    gc.collect()
    built, spans = ctx.pace.staged(
        stages + _step_stages(ctx, name, n_cells))
    runner, state = built if built is not None else (None, None)
    _expect_path(runner, path)
    return runner, state, spans


def _reference(ctx: Context, jit_runner, name: str):
    """One step at CHECK_CELLS cells through the IR interpreter, on the
    post-pipeline IR the JIT runner lowered, plus the solver stage."""
    state = jit_runner.make_state(CHECK_CELLS, perturbation=PERTURBATION,
                                  rng=ctx.rng(name, "check"))
    interpret_kernel(jit_runner.generated, state, jit_runner.luts_for(DT),
                     DT, state.time)
    jit_runner.solver_step(state, DT)
    return state


def _check(ctx: Context, runner, reference, name: str) -> None:
    if reference is None:
        raise Mismatch(f"{name}: no reference (the JIT build failed)")
    state = runner.make_state(CHECK_CELLS, perturbation=PERTURBATION,
                              rng=ctx.rng(name, "check"))
    runner.run(state, 1, DT)
    if not _same(state, reference):
        raise Mismatch(f"{name}: one step at {CHECK_CELLS} cells differs "
                       f"from the IR interpreter")


def _jit_stages(name: str, cache: Optional[KernelCache], **kw) -> list:
    """Parse from the file, generate IR, build the runner."""
    return [lambda _: frontend.load_model_file(model_entry(name).path),
            lambda model: codegen.generate_limpet_mlir(model, width=WIDTH),
            lambda generated: KernelRunner(generated, cache=cache,
                                           artifacts=False, **kw)]


def _jit(name: str, cache: Optional[KernelCache], **kw):
    value = None
    for stage in _jit_stages(name, cache, **kw):
        value = stage(value)
    return value


def _built_and_checked(ctx, stages, path, name, n_cells, reference):
    runner, _, spans = _timed_build(ctx, stages, path, name, n_cells)
    _check(ctx, runner, reference, name)
    return spans


def _three_paths(ctx: Context, res: Result, name: str, n_cells: int,
                 cache: KernelCache, store: ArtifactStore):
    """Build ``name`` by JIT, from the warm cache and from the bundle,
    each followed by one step; check each against the interpreter.
    Returns the JIT runner and its state (None if that build failed)."""
    jit = ctx.ops.run(f"{name} jit", _timed_build, ctx,
                      _jit_stages(name, cache), "jit", name, n_cells)
    reference = None
    if jit is not None:
        runner, state, spans = jit
        res.ttfs["jit"].append(spans)
        reference = ctx.ops.run(f"{name} reference", _reference, ctx,
                                runner, name)
        if reference is not None:
            ctx.ops.run(f"{name} jit check", _check, ctx, runner,
                        reference, name)
        if ctx.traced:
            p = profile_kernel(runner.generated.module,
                               runner.spec.function_name)
            res.flops[name] = (p.flops_per_cell, p.bytes_per_cell)
    for path, stages in (
            ("cache", _jit_stages(name, cache)),
            ("artifact",
             [lambda _: aot.runner_from_store(name, store=store)])):
        spans = ctx.ops.run(f"{name} {path}", _built_and_checked, ctx,
                           stages, path, name, n_cells, reference)
        if spans is not None:
            res.ttfs[path].append(spans)
    return (jit[0], jit[1]) if jit is not None else (None, None)


def _fresh_stores(ctx: Context, bundle_from: Optional[str] = None,
                  models=None):
    """A fresh kernel cache dir and bundle dir for one round/set-up."""
    work = ctx.fresh_dir()
    cache_dir = os.path.join(work, "cache")
    os.environ["LIMPET_CACHE_DIR"] = cache_dir
    bundle = os.path.join(work, "bundle")
    if bundle_from is not None:
        shutil.copytree(bundle_from, bundle)
    else:
        # cold set-up: no parsed model is memoized from an earlier one,
        # nor kept for the rounds
        load_model.cache_clear()
        report = build_bundle(bundle, models=list(models),
                              include_tuned=False, width=WIDTH)
        load_model.cache_clear()
        if report.failed:
            raise RuntimeError("bundle build failed for " + ", ".join(
                e.model for e in report.failed))
    return KernelCache(cache_dir), ArtifactStore(bundle), bundle


@contextmanager
def _frozen_heap():
    """Collect, then freeze what is alive: garbage collection inside the
    block scans only what the block allocates, as in a fresh process,
    not the benchmark's accumulated heap."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _setup_reps(ctx: Context, res: Result, repeats: int,
                one_setup: Callable):
    """Run the set-up ``repeats`` times; the last one's state is kept."""
    kept = None
    for rep in range(repeats):
        with _frozen_heap():
            kept, spans = ctx.pace.timed(one_setup, rep)
        res.setup.append(spans)
    return kept


def _profile_shares(by_class_per_model) -> Dict[str, float]:
    """Op-class shares of profiled kernels (a different lowering from
    the timed one, so only the shares are reported)."""
    totals: Dict[str, float] = {}
    for by_class in by_class_per_model:
        for cls, seconds in by_class.items():
            key = cls if cls in ("lut", "move", "gather", "exp", "pow",
                                 "simple", "div") else "other"
            totals[key] = totals.get(key, 0.0) + seconds
    whole = sum(totals.values()) or 1.0
    return {f"kernel.class_share.{cls}": totals.get(cls, 0.0) / whole
            for cls in ("lut", "move", "gather", "exp", "pow", "simple",
                        "div", "other")}


def _profiled(ctx: Context, name: str, n_cells: int, steps: int):
    runner = _jit(name, None, profile=True)
    state = runner.make_state(n_cells, perturbation=PERTURBATION,
                              rng=ctx.rng(name, "profile"))
    runner.run(state, steps, DT)
    return runner.profile_report().by_class()


def _measure(ctx: Context, cycle: Callable, res: Result,
             min_cycles: int) -> None:
    """Repeat ``cycle(result) -> cost`` until ``ctx.seconds`` pass and at
    least ``min_cycles`` ran.  Traced runs alternate untraced and traced
    cycles, so drift cancels out of obs.trace_overhead_frac (the ratio of
    their median costs), and only the traced ones feed ``res``."""
    deadline = clock() + ctx.seconds
    costs: Dict[bool, List[float]] = {False: [], True: []}
    n = 0
    while n < min_cycles or clock() < deadline:
        traced = ctx.traced and n % 2 == 1
        ctx.set_tracing(traced)
        with _frozen_heap():
            costs[traced].append(
                cycle(res if traced or not ctx.traced else Result()))
        n += 1
    if ctx.traced:
        ctx.set_tracing(True)
        res.overhead_pair = (statistics.median(costs[False]),
                             statistics.median(costs[True]))


# -- zoo_coldstart ------------------------------------------------------------


def zoo_coldstart(ctx: Context) -> Result:
    res = Result()
    bundle = _setup_reps(ctx, res, ZOO_SETUPS, lambda rep: _fresh_stores(
        ctx, models=ALL_MODELS)[2])
    rounds = [0]

    def one_round(out: Result) -> float:
        """All 43 models, three paths each; returns the round's summed
        corrected time to first step."""
        rounds[0] += 1
        cache, store, _ = _fresh_stores(ctx, bundle_from=bundle)
        first = {path: len(v) for path, v in out.ttfs.items()}
        for name in ctx.order(ALL_MODELS, "round", str(rounds[0])):
            runner, _ = _three_paths(ctx, out, name, ZOO_CELLS, cache,
                                     store)
            if runner is not None:
                sample = ctx.ops.run(f"{name} run", _zoo_chunk, ctx,
                                     runner, name)
                if sample is not None:
                    out.throughput.setdefault((name, "single"),
                                              []).append(sample)
        return sum(ctx.pace.corrected(spans)
                   for path, samples in out.ttfs.items()
                   for spans in samples[first[path]:])

    ctx.set_phase("measure")
    _measure(ctx, one_round, res, 2 if ctx.traced else ZOO_MIN_ROUNDS)
    ctx.set_phase("extra")
    if ctx.traced:
        res.layer.update(_profile_shares(
            _profiled(ctx, name, ZOO_CELLS, ZOO_RUN_STEPS)
            for name in REPRESENTATIVE))
    res.peak_rss_mb = peak_rss_mb()
    return res


def _zoo_chunk(ctx: Context, runner, name: str):
    state = runner.make_state(ZOO_CELLS, perturbation=PERTURBATION,
                              rng=ctx.rng(name, "run"))
    _, spans = ctx.pace.timed(runner.run, state, ZOO_RUN_STEPS, DT)
    if not np.isfinite(state.sv).all():
        raise Mismatch(f"{name}: non-finite state after the timed run")
    return ZOO_CELLS * ZOO_RUN_STEPS, spans


# -- steady_32k / steady_256 --------------------------------------------------


def steady(ctx: Context, n_cells: int) -> Result:
    res = Result()

    def one_setup(rep: int) -> Dict[str, tuple]:
        cache, store, _ = _fresh_stores(ctx, models=REPRESENTATIVE)
        kept = {}
        for name in ctx.order(list(REPRESENTATIVE), "setup", str(rep)):
            runner, state = _three_paths(ctx, res, name, n_cells, cache,
                                         store)
            if runner is not None:
                runner.run(state, 1, DT)            # warm-up step
                kept[name] = (runner, state)
        return kept

    kept = _setup_reps(ctx, res, STEADY_SETUPS[n_cells], one_setup)

    def chunk(name: str):
        runner, state = kept[name]
        steps = STEADY_CHUNK[n_cells][name]
        _, spans = ctx.pace.timed(runner.run, state, steps, DT)
        if not np.isfinite(state.sv).all():
            raise Mismatch(f"{name}: non-finite state after a chunk")
        return n_cells * steps, spans

    def cycle(out: Result) -> float:
        """One chunk per model; returns the summed corrected seconds per
        cell-step."""
        cost = 0.0
        for name in order:
            sample = ctx.ops.run(f"{name} chunk", chunk, name)
            if sample is not None:
                out.throughput.setdefault((name, "single"),
                                          []).append(sample)
                cost += (ctx.pace.corrected(sample[1], ctx.chunk_probe)
                         / sample[0])
        return cost

    order = [name for name in ctx.order(list(REPRESENTATIVE), "measure")
             if name in kept]
    ctx.set_phase("measure")
    _measure(ctx, cycle, res, MIN_CYCLES)
    ctx.set_phase("extra")
    res.peak_rss_mb = peak_rss_mb()
    # the timed runners still agree with the interpreter after timing
    for name, (runner, _) in kept.items():
        reference = ctx.ops.run(f"{name} reference", _reference, ctx,
                                runner, name)
        ctx.ops.run(f"{name} post-run check", _check, ctx, runner,
                    reference, name)
    if n_cells > 4096:
        population_tiers(ctx)
    if ctx.traced:
        steps = 3 if n_cells > 4096 else 50
        res.layer.update(_profile_shares(
            _profiled(ctx, name, n_cells, steps)
            for name in REPRESENTATIVE))
    return res


# -- the population layer on the thread and supervised tiers -----------------


def _pop_model():
    return frontend.load_model_file(model_entry(POP_MODEL).path,
                                    promote_params=(POP_PARAM,))


def _pop_state(ctx: Context, pop: PopulationRunner):
    return pop.make_state(POP_CELLS, perturbation=PERTURBATION,
                          rng=ctx.rng(POP_MODEL, "population"))


def _differential(ctx: Context, pops: Dict[str, PopulationRunner],
                  spec) -> None:
    """Every tier's batched run, a single-process population run and a
    loop of single-instance runs of the same promoted kernel agree
    bitwise after POP_CHECK_STEPS steps."""
    finals = {}
    for tier, pop in pops.items():
        state = _pop_state(ctx, pop)
        pop.run(state, POP_CHECK_STEPS, DT)
        finals[tier] = state
    want = finals["single"]
    single = pops["single"].runner_for(POP_CELLS)
    initial = _pop_state(ctx, pops["single"])
    c = POP_CELLS
    for i in range(POP_INSTANCES):
        rows = slice(i * c, (i + 1) * c)
        state = allocate_state(single.model, single.layout, c, width=WIDTH,
                               param_values={POP_PARAM: float(
                                   spec.values[POP_PARAM][i])})
        state.set_state(initial.state_matrix()[rows])
        for key, array in initial.externals.items():
            state.externals[key][:c] = array[rows]
        single.run(state, POP_CHECK_STEPS, DT)
        if not np.array_equal(state.state_matrix(),
                              want.state_matrix()[rows]) \
                or any(not np.array_equal(state.externals[k][:c],
                                          want.externals[k][rows])
                       for k in state.externals):
            raise Mismatch(f"instance {i}: the per-instance loop differs "
                           f"from the batched single-process run")
    for tier, state in finals.items():
        if not _same(state, want):
            raise Mismatch(f"population on the {tier} tier differs from "
                           f"the single-process population run")


def population_tiers(ctx: Context) -> None:
    """LuoRudy91 with 16 GK values from the seed x 1024 cells, on the
    thread tier (2 threads), the supervised tier (2 workers) and in one
    process.  Every run checks the tiers bitwise against each other and
    a per-instance loop; traced runs also time them, in phase "tiers",
    for the sharded, supervised and population rows."""
    values = 0.282 * ctx.rng("population", "GK").uniform(
        0.5, 1.5, POP_INSTANCES)
    spec = PopulationSpec({POP_PARAM: values})
    cache = KernelCache(os.path.join(ctx.fresh_dir(), "cache"))
    pops = {tier: ctx.keep(PopulationRunner(_pop_model(), spec,
                                            width=WIDTH, cache=cache,
                                            **kwargs))
            for tier, kwargs in (("threads", {"n_threads": 2}),
                                 ("supervised", {"n_workers": 2}),
                                 ("single", {}))}
    ctx.ops.run("population differential", _differential, ctx, pops, spec)
    if not ctx.traced:
        return
    states = {tier: _pop_state(ctx, pop) for tier, pop in pops.items()}
    ctx.set_phase("tiers")
    for _ in range(POP_ROUNDS):
        for tier in ctx.order(list(pops), "tiers"):
            ctx.ops.run(f"population {tier} chunk", pops[tier].run,
                        states[tier], POP_CHUNK, DT)
    ctx.set_phase("extra")


#: name -> (workload, the cell count its per-step rows are taken at,
#: the probe part that corrects its timed chunks)
WORKLOADS = {
    "zoo_coldstart": (zoo_coldstart, ZOO_CELLS, "mixed"),
    "steady_32k": (lambda ctx: steady(ctx, 32768), 32768, "mixed"),
    "steady_256": (lambda ctx: steady(ctx, 256), 256, "dispatch"),
}
