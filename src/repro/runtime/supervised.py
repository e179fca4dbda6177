"""Supervised multiprocess execution: crash-isolated worker shards.

Threads share one address space, so a crash anywhere — a segfaulting
foreign function, an OOM kill, a wedged extension — takes the whole
sweep with it.  :class:`ProcessPool`, the rung above
:class:`~repro.runtime.sharded.ThreadPool`, runs each shard in its
**own worker process** over shared-memory state, supervised by the
parent:

* **fork + inherited views** — workers are forked *after* the state is
  moved into shared memory, so they inherit the parent's numpy views
  of the segment (``MAP_SHARED``: child writes are visible to the
  parent with no re-attach by name, and a killed child can never leave
  the resource tracker confused about segment ownership);
* **heartbeats** — each worker beats a slot of a shared float64 array
  from a daemon thread; the parent treats a stale beat, a dead
  process, or a blown task deadline identically (restart + retry);
* **bounded retry** — a failed shard is restored from the pre-step
  backup (shards are disjoint, so only the failed slice is touched),
  the worker is respawned, and the task re-dispatched with exponential
  backoff, up to ``max_retries`` times; past that the pool raises
  :class:`~repro.runtime.sharded.SupervisedExecutionError` and the
  runner drops to the next rung.

Workers run the *same compiled kernel* the parent would
(fork-inherited) and rebuild LUTs deterministically per quantized dt,
so supervised trajectories stay **bitwise identical** to
single-process runs.  Process supervision buys crash isolation, not
throughput: the paper's scaling story stays with the thread rung.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing as mp
import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..codegen.common import GeneratedKernel
from ..obs import flight as _flight
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .sharded import InlinePool, ShardedRunner, SupervisedExecutionError
from .state import SimulationState

try:                        # gate, don't require (minimal builds)
    from multiprocessing import shared_memory as _shm_mod
except ImportError:         # pragma: no cover - exotic platform
    _shm_mod = None


def multiprocess_supported() -> bool:
    """True when this platform can run the supervised tier (POSIX
    fork + ``multiprocessing.shared_memory``)."""
    return _shm_mod is not None and "fork" in mp.get_all_start_methods()


@dataclass
class SupervisionConfig:
    """Tunables of the worker supervisor."""

    #: seconds between heartbeat writes in each worker
    heartbeat_interval: float = 0.05
    #: a beat older than this marks the worker as stalled
    heartbeat_timeout: float = 5.0
    #: wall-clock budget for one dispatched shard task
    task_timeout: float = 30.0
    #: per-shard retry budget within one compute step
    max_retries: int = 2
    #: base seconds of the exponential retry backoff
    retry_backoff: float = 0.05
    #: degrade down the tier ladder instead of raising
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed the interval")
        if self.task_timeout <= 0:
            raise ValueError("task_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")


@dataclass
class _WorkerFault:
    """Injected process-level fault, armed for one worker's first life."""

    kill_at_task: Optional[int] = None
    stall_at_task: Optional[int] = None
    stall_seconds: float = 30.0


def _worker_entry(runner: ShardedRunner, state: SimulationState,
                  slot: int, conn, heartbeats: np.ndarray,
                  config: SupervisionConfig,
                  fault: Optional[_WorkerFault],
                  trace_ctx: Optional[_trace.TraceContext] = None
                  ) -> None:
    """Worker main loop (runs in the forked child).

    Everything it needs — the compiled kernel, the shm-backed state
    views, its heartbeat slot — arrived via fork, not pickling.  It
    only ever touches its dispatched ``[start, end)`` slice, so
    concurrent workers never alias.

    With a ``trace_ctx`` the worker runs its own :class:`Tracer` under
    the parent's trace id and timebase (fork shares CLOCK_MONOTONIC),
    wraps each task in a ``shard_task`` span, and **streams** finished
    spans back piggybacked on every reply — the parent merges them as
    foreign events, so a worker killed mid-run has already delivered
    the spans of every task it completed.
    """
    stop = threading.Event()
    stalled = threading.Event()
    # drop the fork-inherited parent tracer: worker spans belong to the
    # worker's own tracer (or nowhere, when tracing is off)
    if trace_ctx is not None:
        tracer: Optional[_trace.Tracer] = _trace.Tracer(
            context=trace_ctx, process_name=f"limpet-worker-{slot}")
        _trace.activate(tracer)
    else:
        tracer = None
        _trace.deactivate(None)

    def beat() -> None:
        while not stop.is_set():
            if not stalled.is_set():
                heartbeats[slot] = time.monotonic()
            stop.wait(config.heartbeat_interval)

    threading.Thread(target=beat, daemon=True,
                     name=f"limpet-heartbeat-{slot}").start()
    fn = runner.kernel.fn
    externals = [state.externals[e] for e in runner.model.externals]
    # promoted parameter arrays are read-only: fork-inherited copies
    # are exact and never need to live in the shared segment
    param_arrays = [state.params[p] for p in runner.model.promoted_params]
    use_lut = runner.spec.use_lut
    tasks_done = 0
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, seq, start, end, dt, now = msg
            tasks_done += 1
            if fault is not None:
                if fault.kill_at_task == tasks_done:
                    os._exit(1)         # simulated crash mid-shard
                if fault.stall_at_task == tasks_done:
                    stalled.set()       # heartbeat goes quiet...
                    time.sleep(fault.stall_seconds)   # ...and so do we
            task_span = _trace.span("shard_task", slot=slot, seq=seq,
                                    start=start, end=end)
            try:
                with task_span:
                    args = [start, end, dt, now, state.sv] + externals \
                        + param_arrays
                    if use_lut:
                        # deterministic per-quantized-dt rebuild: bitwise
                        # identical to the parent's tables
                        args += runner.luts_for(dt)
                    fn(*args)
            except Exception as err:
                task_span.annotate(error=f"{type(err).__name__}: {err}")
                events = tracer.drain_events() if tracer else []
                conn.send(("err", seq, type(err).__name__, str(err),
                           events))
            else:
                events = tracer.drain_events() if tracer else []
                conn.send(("ok", seq, events))
    except (EOFError, OSError, KeyboardInterrupt):
        pass                            # parent went away: just exit
    finally:
        stop.set()


#: free-text failure prefix -> low-cardinality metric label
_FAILURE_KINDS = (("worker exception", "exception"),
                  ("worker pipe", "pipe_closed"), ("worker died", "died"),
                  ("heartbeat", "stalled"), ("task deadline", "deadline"))


def _failure_kind(failure: str) -> str:
    """Fold a failure reason into a bounded label value."""
    return next((kind for prefix, kind in _FAILURE_KINDS
                 if failure.startswith(prefix)), "other")


def _release(shm) -> None:
    """Close and unlink a shared-memory segment."""
    with contextlib.suppress(BufferError):     # an exported view
        shm.close()
    with contextlib.suppress(FileNotFoundError):   # already gone
        shm.unlink()


def _workers_gauge():
    return _metrics.gauge("supervised_workers",
                          "live worker processes of the supervised tier")


#: every live process pool, so interpreter exit / signal shutdown can
#: reap worker processes and unlink shared-memory segments
_ACTIVE_POOLS: "weakref.WeakSet[ProcessPool]" = weakref.WeakSet()


def close_all_runners() -> None:
    """Close every live :class:`ProcessPool` (shutdown hook)."""
    for pool in list(_ACTIVE_POOLS):
        try:
            pool.close()
        except Exception:               # pragma: no cover - best effort
            pass


atexit.register(close_all_runners)

from .shutdown import register_cleanup as _register_cleanup  # noqa: E402

_register_cleanup(close_all_runners, "supervised-runners")


class ProcessPool(InlinePool):
    """The processes rung: each shard in a supervised worker process.

    :meth:`attach` moves the run's state into shared memory and forks
    one worker per shard; :meth:`detach` stops them and copies the
    segment back.  ``fault_plan`` arms deterministic process-level
    faults (:class:`~repro.resilience.faultinject.FaultPlan`) for
    drills.
    """

    name = "supervised"

    def __init__(self, runner: ShardedRunner, config: SupervisionConfig,
                 fault_plan=None):
        super().__init__(runner)
        self.config = config
        self.fault_plan = fault_plan
        self._seq = 0
        self._procs: List[Optional[mp.process.BaseProcess]] = []
        self._conns: List = []
        self._spawns: List[int] = []
        self._hb_shm = None
        self._hb_view: Optional[np.ndarray] = None
        self._state_shm = None
        self._attached: Optional[SimulationState] = None
        self._orig_arrays: Optional[tuple] = None
        # register the counters up front so they show in snapshots
        # even before the first fault (operators see zeros, not gaps)
        _metrics.counter("worker_restarts_total",
                         "supervised workers killed and respawned")
        _metrics.counter("shard_retries_total",
                         "shard tasks re-dispatched after a failure")
        _metrics.counter("degradations_total",
                         "execution-tier downgrades taken")
        _workers_gauge()

    def attach(self, state: SimulationState) -> None:
        _ACTIVE_POOLS.add(self)
        self._attach_state(state)
        self._ensure_workers(state)

    def detach(self) -> None:
        self._detach_state()

    def close(self) -> None:
        self._detach_state()
        self._shutdown_workers()
        _ACTIVE_POOLS.discard(self)

    # -- one supervised compute step -----------------------------------------------

    def run_shards(self, state, shards, args) -> None:
        if state is not self._attached or not self._procs:
            # not a run's state (or one shard): nothing to supervise
            super().run_shards(state, shards, args)
            return
        dt, now = args[2], args[3]
        # pre-step backup: a failed shard restores only its own slice
        # before re-dispatch, so retried kernels re-run from identical
        # inputs (idempotent re-execution)
        backup = state.checkpoint()
        def dispatch(slot: int, start: int, end: int) -> tuple:
            return (self._dispatch(slot, start, end, dt, now), start, end,
                    time.monotonic() + self.config.task_timeout)

        pending = {slot: dispatch(slot, start, end)
                   for slot, (start, end) in enumerate(shards)}
        attempts = dict.fromkeys(pending, 0)
        while pending:
            for slot in list(pending):
                seq, start, end, deadline = pending[slot]
                failure = self._poll_slot(slot, seq, deadline)
                if failure == "pending":
                    continue
                if failure is None:
                    del pending[slot]
                    continue
                attempts[slot] += 1
                _metrics.counter(
                    "shard_retries_total",
                    "shard tasks re-dispatched after a failure").inc()
                kind = _failure_kind(failure)
                _metrics.counter(
                    "worker_failures_total",
                    "supervised worker failures by shard and reason",
                    labelnames=("shard", "reason")).labels(
                        shard=str(slot), reason=kind).inc()
                _trace.instant("shard_failure", slot=slot,
                               attempt=attempts[slot], reason=failure)
                _flight.record("worker_failure", slot=slot,
                               step=state.steps_done, reason=kind,
                               detail=failure,
                               heartbeat_age=self._heartbeat_age(slot),
                               attempt=attempts[slot])
                if attempts[slot] > self.config.max_retries:
                    raise SupervisedExecutionError(
                        f"shard {slot} [{start}, {end}) failed "
                        f"{attempts[slot]} times at step "
                        f"{state.steps_done} ({failure})",
                        slot=slot, attempts=attempts[slot],
                        step=state.steps_done)
                self._restart_worker(slot, failure,
                                     step=state.steps_done)
                self._restore_shard(state, backup, start, end)
                time.sleep(self.config.retry_backoff
                           * (2 ** (attempts[slot] - 1)))
                pending[slot] = dispatch(slot, start, end)

    def _poll_slot(self, slot: int, seq: int,
                   deadline: float) -> Optional[str]:
        """None = task done; "pending" = keep waiting; else the
        failure reason."""
        conn = self._conns[slot]
        try:
            while conn.poll(0.01):
                reply = conn.recv()
                self._harvest_events(reply)
                if reply[1] != seq:
                    continue            # stale reply from a pre-retry task
                if reply[0] == "ok":
                    return None
                return f"worker exception {reply[2]}: {reply[3]}"
        except (EOFError, OSError):
            return "worker pipe closed"
        proc = self._procs[slot]
        if proc is None or not proc.is_alive():
            code = proc.exitcode if proc is not None else None
            return f"worker died (exit code {code})"
        age = time.monotonic() - float(self._hb_view[slot])
        if age > self.config.heartbeat_timeout:
            return f"heartbeat stalled ({age:.2f}s old)"
        if time.monotonic() > deadline:
            return "task deadline exceeded"
        return "pending"

    def _restore_shard(self, state: SimulationState, backup,
                       start: int, end: int) -> None:
        """Roll one shard's slice back to the pre-step ``backup``.

        Shard bounds are width-aligned, so for AoS and AoSoA the cell
        range ``[start, end)`` is exactly the flat sv slice
        ``[start * n_states, end * n_states)``; SoA never reaches here
        (refused for >1 worker at construction).
        """
        n_states = len(self.runner.model.states)
        state.sv[start * n_states:end * n_states] = \
            backup.sv[start * n_states:end * n_states]
        for name, saved in backup.externals.items():
            state.externals[name][start:end] = saved[start:end]

    def _dispatch(self, slot: int, start: int, end: int, dt: float,
                  now: float) -> int:
        self._seq += 1
        # a dead worker's send fails: the poll path sees it and retries
        with contextlib.suppress(OSError):
            self._conns[slot].send(("step", self._seq, start, end, dt,
                                    now))
        return self._seq

    # -- worker lifecycle ----------------------------------------------------------

    def _ensure_workers(self, state: SimulationState) -> None:
        if self._procs:
            return
        shards = self.runner.shards_for(state)
        if len(shards) <= 1:
            return                      # nothing to supervise: inline
        n = len(shards)
        self._hb_shm = _shm_mod.SharedMemory(create=True,
                                             size=max(8 * n, 8))
        self._hb_view = np.ndarray((n,), dtype=np.float64,
                                   buffer=self._hb_shm.buf)
        self._hb_view[:] = time.monotonic()
        self._procs = [None] * n
        self._conns = [None] * n
        self._spawns = [0] * n
        ctx = mp.get_context("fork")
        for slot in range(n):
            self._spawn_worker(ctx, slot)
        _workers_gauge().set(n)

    def _fault_for_slot(self, slot: int) -> Optional[_WorkerFault]:
        plan = self.fault_plan
        if plan is None or self._spawns[slot] > 0:
            return None                 # faults arm only the first life
        kill_at = getattr(plan, "kill_worker_at_task", None) \
            if getattr(plan, "kill_worker", None) == slot else None
        stall_at = getattr(plan, "stall_worker_at_task", None) \
            if getattr(plan, "stall_worker", None) == slot else None
        if kill_at is None and stall_at is None:
            return None
        return _WorkerFault(
            kill_at_task=kill_at, stall_at_task=stall_at,
            stall_seconds=getattr(plan, "stall_worker_seconds", 30.0))

    def _spawn_worker(self, ctx, slot: int) -> None:
        fault = self._fault_for_slot(slot)
        self._spawns[slot] += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # hand the worker the parent's trace identity (fork start
        # method: the TraceContext object travels in-memory)
        tracer = _trace.active_tracer()
        trace_ctx = tracer.context() if tracer is not None else None
        proc = ctx.Process(
            target=_worker_entry,
            args=(self.runner, self._attached, slot, child_conn,
                  self._hb_view, self.config, fault, trace_ctx),
            daemon=True, name=f"limpet-worker-{slot}")
        proc.start()
        child_conn.close()
        self._hb_view[slot] = time.monotonic()  # fresh grace period
        self._procs[slot] = proc
        self._conns[slot] = parent_conn

    def _restart_worker(self, slot: int, reason: str,
                        step: int = -1) -> None:
        self._kill_worker(slot)
        _metrics.counter("worker_restarts_total",
                         "supervised workers killed and "
                         "respawned").inc()
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        model = self.runner.model.name
        diag = Diagnostic(
            stage="run", component="supervised",
            message=f"restarted worker {slot}: {reason}",
            severity=Severity.WARNING,
            data={"slot": slot, "reason": reason, "step": step,
                  "model": model})
        log_diagnostic(diag)
        self.runner.diagnostics.append(diag)
        # black-box the moments before the death; the respawn marker
        # lands in the merged trace next to the dead worker's spans
        _flight.dump("worker_death",
                     extra={"slot": slot, "reason": reason,
                            "step": step, "model": model,
                            "spawns": self._spawns[slot]})
        self._spawn_worker(mp.get_context("fork"), slot)
        _trace.instant("worker_respawn", slot=slot, reason=reason,
                       spawn=self._spawns[slot])

    def _heartbeat_age(self, slot: int) -> Optional[float]:
        if self._hb_view is None or slot >= len(self._hb_view):
            return None
        return round(time.monotonic() - float(self._hb_view[slot]), 3)

    def _harvest_events(self, reply) -> None:
        """Merge the span events piggybacked on a worker reply into the
        parent tracer (every reply is harvested, even stale ones — a
        pre-retry task's spans are still real work that happened)."""
        if reply and isinstance(reply[-1], list) and reply[-1]:
            tracer = _trace.active_tracer()
            if tracer is not None:
                tracer.add_foreign_events(reply[-1])

    def _drain_conn(self, conn) -> None:
        """Best-effort harvest of every reply still queued on a pipe.

        Called before a worker's pipe is closed (kill, restart, or
        shutdown — including the SIGTERM path, which runs the cleanup
        hooks *before* the tracer is flushed and written), so span
        buffers in flight when a run is interrupted reach the merged
        trace instead of dying with the pipe.
        """
        if conn is None:
            return
        try:
            while conn.poll(0):
                self._harvest_events(conn.recv())
        except (EOFError, OSError):
            pass                        # sender already gone

    def _kill_worker(self, slot: int) -> None:
        conn = self._conns[slot]
        if conn is not None:
            self._drain_conn(conn)
            with contextlib.suppress(OSError):
                conn.close()
            self._conns[slot] = None
        proc = self._procs[slot]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():     # pragma: no cover - stubborn
                    proc.kill()
                    proc.join(timeout=1.0)
            self._procs[slot] = None

    def _shutdown_workers(self) -> None:
        for conn in self._conns:
            if conn is not None:
                with contextlib.suppress(OSError):
                    conn.send(("stop",))
        for slot, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(timeout=0.5)
            self._kill_worker(slot)
        self._procs = []
        self._conns = []
        self._spawns = []
        if self._hb_shm is not None:
            self._hb_view = None
            _release(self._hb_shm)
            self._hb_shm = None
        _workers_gauge().set(0)

    # -- shared-memory state attach/detach -----------------------------------------

    def _attach_state(self, state: SimulationState) -> None:
        """Move ``state``'s arrays into one shared-memory segment and
        rebind the state to views of it (workers fork after this, so
        they inherit the views)."""
        if self._attached is state:
            return
        if self._attached is not None:
            self._detach_state()
        arrays = [state.sv, *state.externals.values()]
        self._state_shm = _shm_mod.SharedMemory(
            create=True, size=max(sum(a.nbytes for a in arrays), 1))
        views, offset = [], 0
        for array in arrays:
            views.append(np.ndarray(array.shape, dtype=array.dtype,
                                    buffer=self._state_shm.buf,
                                    offset=offset))
            views[-1][...] = array
            offset += array.nbytes
        self._orig_arrays = (state.sv, dict(state.externals))
        state.sv = views[0]
        state.externals.update(zip(state.externals, views[1:]))
        self._attached = state
        self.runner._bound = None   # stale prebound args hold old arrays

    def _detach_state(self) -> None:
        """Shut the workers down, copy the shared segment back into the
        original arrays, rebind the state, and unlink the segment."""
        state = self._attached
        if state is None:
            return
        self._shutdown_workers()        # workers hold views of this segment
        orig_sv, orig_ext = self._orig_arrays
        orig_sv[...] = state.sv
        for name, array in orig_ext.items():
            array[...] = state.externals[name]
        state.sv = orig_sv
        state.externals.update(orig_ext)
        self._attached = None
        self._orig_arrays = None
        self.runner._bound = None       # release view refs before close
        _release(self._state_shm)
        self._state_shm = None


class SupervisedRunner(ShardedRunner):
    """The :class:`ShardedRunner` whose ladder is processes → threads →
    inline: compute steps run in supervised worker processes, and a
    failed run degrades (unless ``config.degrade`` is off).

    ``n_workers`` bounds the process count (shards are width-aligned,
    so fewer may run for small cell counts); ``fault_plan`` arms the
    :class:`ProcessPool`'s drill faults.  Use as a context manager or
    call :meth:`close` — unclosed pools are reaped at interpreter exit.
    """

    def __init__(self, generated: GeneratedKernel, n_workers: int = 0,
                 config: Optional[SupervisionConfig] = None,
                 fault_plan=None, **kwargs):
        n_workers = n_workers or (os.cpu_count() or 1)
        super().__init__(generated, n_threads=n_workers, **kwargs)
        self.n_workers = n_workers
        self.config = config or SupervisionConfig()
        self.degrade = self.config.degrade
        self.ladder.insert(0, ProcessPool(self, self.config, fault_plan))
        if not multiprocess_supported():    # pragma: no cover - POSIX CI
            self._drop(1, RuntimeError("platform lacks fork/shared_memory"))

    # ShardedRunner's own functions, bound in this class's namespace so
    # per-class instrumentation (perfbench/spans.py) can time supervised
    # runs apart from thread-sharded ones
    compute_step = ShardedRunner.compute_step
    run = ShardedRunner.run
