"""The repository benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line carries every end-to-end metric
(measured with no spans recorded).  With ``--trace 1`` it carries the
per-layer metrics instead: spans are recorded around each layer's
public entry points (see ``spans.py``), written to
``.perfbench/trace-<workload>-<seed>.json``, and the attribution
self-test (``selftest.py``) must pass.  Metric definitions and the
layer -> end-to-end -> workload map are in ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("zoo_coldstart", "steady_32k", "steady_256")
PASSES = ("canonicalize", "cse", "licm", "dce")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _quantiles(seconds):
    """(p50, p90) in ms."""
    if len(seconds) < 2:
        return float("nan"), float("nan")
    return (1e3 * statistics.median(seconds),
            1e3 * statistics.quantiles(seconds, n=10)[-1])


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(res, ops, import_seconds: float, time, chunk_time) -> dict:
    """Every end-to-end metric; ``time`` and ``chunk_time`` map a build
    or set-up sample's spans, and a timed chunk's, to seconds."""
    metrics = {"setup_s": (import_seconds + statistics.median(
        time(spans) for spans in res.setup), "s")}
    for path in ("jit", "cache", "artifact"):
        p50, p90 = _quantiles([time(spans) for spans in res.ttfs[path]])
        metrics[f"ttfs_{path}_ms_p50"] = (p50, "ms")
        metrics[f"ttfs_{path}_ms_p90"] = (p90, "ms")
    rows = [statistics.median(work / chunk_time(spans)
                              for work, spans in samples)
            for samples in res.throughput.values() if samples]
    metrics["cell_steps_per_s"] = (
        _geomean(rows) / 1e6 if rows else float("nan"), "Mcell-steps/s")
    metrics["ok_frac"] = (1.0 - ops.failed / max(ops.attempted, 1), "frac")
    metrics["peak_rss_mb"] = (res.peak_rss_mb, "MB")
    return metrics


def raw(spans) -> float:
    return sum(end - start for start, end in spans)


def per_layer(index, res, size: int, counters: dict, calib: dict) -> dict:
    from workloads import (POP_CELLS, POP_INSTANCES, POP_MODEL,
                           REPRESENTATIVE)

    m = {}

    def count(name):
        return len(index.select(name))

    def layer_per(layer, *names):
        calls = sum(count(n) for n in names)
        ms = index.layer_self_ms().get(layer, (0.0, 0))[0]
        return ms / calls if calls else 0.0

    m["easyml.parse_ms"] = index.self_ms_per_call("parse_model_file")
    m["frontend.analyze_ms"] = index.self_ms_per_call("analyze")
    m["codegen.irgen_ms"] = index.self_ms_per_call("generate_limpet_mlir")
    m["codegen.ir_ops"] = index.mean_info("generate_limpet_mlir")
    m["ir.passes_ms"] = layer_per("ir.passes", "PassManager.run")
    runs = count("PassManager.run")
    for p in PASSES:
        m[f"ir.pass.{p}_ms"] = (index.sum_ms(f"ir.pass.{p}") / runs
                                if runs else 0.0)
    m["ir.ops_after_passes"] = index.mean_info("PassManager.run")
    m["ir.verify_ms"] = index.self_ms_per_call("verify_module")
    m["lowering.lower_ms"] = index.self_ms_per_call("lower_function")
    m["lowering.exec_ms"] = index.self_ms_per_call("compile_kernel_source")
    m["lowering.source_bytes"] = index.mean_info("lower_function")
    m["kernel_cache.store_ms"] = index.self_ms_per_call("KernelCache.store")
    m["kernel_cache.load_ms"] = index.self_ms_per_call("KernelCache.load")
    m["kernel_cache.hit_ratio"] = index.true_ratio("KernelCache.load")
    aot_names = ("runner_from_store", "ArtifactStore.lookup_kernel")
    m["aot.lookup_ms"] = layer_per("aot", *aot_names)
    m["aot.hit_ratio"] = index.true_ratio(*aot_names)
    m["lut.build_ms"] = index.self_ms_per_call("build_all_luts")

    def measured(model=None, tier=None):
        return dict(phase="measure", where=lambda info: (
            (model is None or info[0] == model) and info[1] == size
            and (tier is None or info[2] == tier)))

    for model in REPRESENTATIVE:
        m[f"executor.kernel_ms_per_step.{model}"] = index.self_ms_per_call(
            "KernelRunner.compute_step", **measured(model))
        m[f"executor.solver_ms_per_step.{model}"] = index.self_ms_per_call(
            "KernelRunner.solver_step", **measured(model))
        m[f"executor.overhead_ms_per_step.{model}"] = index.ms_per_step(
            "KernelRunner.run", own=True, **measured(model, "single"))
    m.update({k: v for k, v in res.layer.items()})
    flops = res.flops
    m["kernel.flops_per_cell_step"] = (
        statistics.mean(f for f, _ in flops.values()) if flops else 0.0)
    m["kernel.bytes_per_cell_step"] = (
        statistics.mean(b for _, b in flops.values()) if flops else 0.0)
    moved = seconds = 0.0
    for i in index.select("KernelRunner.compute_step", **measured()):
        model, n_cells = index.spans[i][6][:2]
        if model in flops:
            moved += flops[model][1] * n_cells
            seconds += index.own[i]
    m["kernel.achieved_gbps"] = moved / seconds / 1e9 if seconds else 0.0

    # the population tiers run after steady_32k's measurement
    def tiers(tier=None):
        return dict(phase="tiers", where=lambda info: (
            info[0] == POP_MODEL and info[1] == POP_INSTANCES * POP_CELLS
            and (tier is None or info[2] == tier)))

    single = index.ms_per_step("KernelRunner.run", **tiers("single"))
    sharded = index.ms_per_step("KernelRunner.run", **tiers("threads"))
    supervised = index.ms_per_step("SupervisedRunner.run", **tiers())
    m["sharded.step_ms"] = sharded
    m["sharded.speedup_vs_single"] = single / sharded if sharded else 0.0
    m["supervised.step_ms"] = supervised
    m["supervised.speedup_vs_single"] = (single / supervised
                                         if supervised else 0.0)
    m["supervised.worker_restarts"] = counters["worker_restarts_total"]
    m["supervised.degradations"] = counters["degradations_total"]
    m["population.self_ms_per_run"] = index.self_ms_per_call(
        "PopulationRunner.run", phase="tiers")
    m.update(calib)
    untraced, traced = res.overhead_pair
    m["obs.trace_overhead_frac"] = traced / untraced - 1.0
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # the benchmark owns the program's environment: no bundle, tuning
    # DB, ledger, trace or cache directory leaks in from the caller
    for var in [v for v in os.environ if v.startswith("LIMPET_")]:
        del os.environ[var]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import probe
    import workloads
    from repro.obs import metrics as obs_metrics
    from repro.runtime import close_all_runners
    import_seconds = time.perf_counter() - _START

    counter_names = ("worker_restarts_total", "degradations_total")
    counters_before = {n: obs_metrics.counter(n).value
                       for n in counter_names}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    fn, size, chunk_probe = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            work_root=work_root, traced=bool(args.trace),
                            chunk_probe=chunk_probe)
    recorder = wrappers = None
    selftest_ok, report = True, []
    try:
        if ctx.traced:
            import spans
            recorder = spans.SpanRecorder(
                f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            wrappers = spans.Wrappers(recorder)
            wrappers.install()
            ctx.set_tracing = lambda on: (wrappers.install() if on
                                          else wrappers.remove())
            ctx.set_phase = lambda phase: setattr(recorder, "phase", phase)
        res = fn(ctx)
        ctx.close()
        if wrappers is not None:
            wrappers.remove()
        calib = probe.calibrate()
        if ctx.traced:
            import selftest
            selftest_ok, report = selftest.run_selftest(work_root)
            counters = {n: obs_metrics.counter(n).value
                        - counters_before[n] for n in counter_names}
            index = spans.SpanIndex(recorder)
            values = per_layer(index, res, size, counters, calib)
            metrics = {k: (v, "") for k, v in values.items()}
            report += _layer_table(index)
            recorder.dump(str(out_dir / f"trace-{args.workload}-"
                                         f"{args.seed}.json"))
        else:
            metrics = end_to_end(
                res, ctx.ops, import_seconds, ctx.pace.corrected,
                lambda spans: ctx.pace.corrected(spans, chunk_probe))
            uncorrected = end_to_end(res, ctx.ops, import_seconds, raw,
                                     raw)
            report.append("uncorrected: " + ", ".join(
                f"{k}={v:.4g}" for k, (v, _) in uncorrected.items()))
    finally:
        if wrappers is not None:
            wrappers.remove()
        ctx.close()
        close_all_runners()
        shutil.rmtree(work_root, ignore_errors=True)
        _stop_resource_tracker()

    out = {k: {"value": v, "unit": unit or _unit(k)}
           for k, (v, unit) in metrics.items()}
    finite = all(isinstance(v["value"], (int, float))
                 and math.isfinite(v["value"]) for v in out.values())
    for line in report:
        print(line, file=sys.stderr)
    print("samples: ttfs " + ", ".join(
        f"{p}={len(v)}" for p, v in res.ttfs.items())
        + f"; setup repeats={len(res.setup)}; probe slowdown median "
        + f"{ctx.pace.median_factor():.3f} (mixed), "
        + f"{ctx.pace.median_factor('dispatch'):.3f} (dispatch); rows="
        + f"{len(res.throughput)}; machine "
        + ", ".join(f"{k}={v:.4g}" for k, v in calib.items()),
        file=sys.stderr)
    for (model, tier), samples in res.throughput.items():
        rates = [statistics.median(w / time(s) for w, s in samples) / 1e6
                 for time in (lambda s: ctx.pace.corrected(s, chunk_probe),
                              raw)]
        print(f"row {model}/{tier}: Mcell-steps/s median {rates[0]:.4g}, "
              f"uncorrected {rates[1]:.4g}", file=sys.stderr)
    print(json.dumps({
        "correct": ctx.ops.failed == 0 and finite and selftest_ok,
        "attempted": ctx.ops.attempted, "failed": ctx.ops.failed,
        "metrics": out}))
    return 0


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    The supervised tier's shared-memory segments start that helper
    process, which would otherwise outlive the benchmark by a moment.
    Called last, once every segment is unlinked: a later unlink would
    start it again."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _layer_table(index) -> list:
    lines = ["layer self time (whole traced run):"]
    for layer, (ms, n) in sorted(index.layer_self_ms().items(),
                                 key=lambda kv: -kv[1][0]):
        lines.append(f"  {layer:<14} {ms:>10.1f} ms  {n:>7} spans")
    return lines


def _unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    for part, unit in (("_ms", "ms"), ("_us", "us"), ("_gbps", "GB/s"),
                       ("_ratio", "frac"), ("_frac", "frac"),
                       ("class_share", "frac"), ("speedup", "x"),
                       ("bytes", "bytes"), ("flops", "flop")):
        if part in name:
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
