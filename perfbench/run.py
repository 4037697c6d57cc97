"""gridsec benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload label-n1-case68 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; gridsec is imported from its ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. Every operation's output is checked
against ``perfbench/ref``; the last stdout line is the result, the line
before it the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import bootstrap

if __name__ == "__main__":
    # OpenBLAS reads its thread count once, when numpy loads just below.
    bootstrap.pin_blas()

import calibration  # noqa: E402
import tracing  # noqa: E402

SETUPS = 3  # set-up repetitions; setup_s is their median
SETUP_SAMPLES = 5  # loop samples on each side of a set-up


def check_one(workload, ref, key, out, log=sys.stderr):
    """True when an operation's output matches its stored reference."""
    if isinstance(out, Exception):
        print(f"{key}: raised {out!r}", file=log)
        traceback.print_exception(out, file=log)
        return False
    if key not in ref:
        print(f"{key}: no reference value", file=log)
        return False
    if not workload.matches(workload.record(key, out), ref[key]):
        print(f"{key}: output differs from the reference", file=log)
        return False
    return True


def measure(workload, state, ref, seed, seconds, n_rounds=None, loop=None):
    """Run whole rounds until ``seconds`` have passed and ``min_rounds`` are
    done, or exactly ``n_rounds``.

    Each output is checked as soon as its operation returns, outside the
    operation's time, and then dropped. With a calibration ``loop``, it is
    timed before every operation and once after the last.
    """
    rounds = workload.rounds(state, seed)
    ops = []  # (key, seconds, matched the reference)
    cal = []
    done = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for key in next(rounds):
            if loop is not None:
                cal.append(loop.sample())
            t0 = clock()
            try:
                out = workload.run(state, key)
            except Exception as exc:  # counted as a failed operation
                out = exc
            dt = clock() - t0
            ops.append((key, dt, check_one(workload, ref, key, out)))
        done += 1
        if n_rounds is not None:
            if done >= n_rounds:
                break
        elif done >= workload.min_rounds and clock() - start >= seconds:
            break
    if loop is not None:
        cal.append(loop.sample())
    return {"ops": ops, "wall": clock() - start, "rounds": done, "calibration": cal}


def run_setups(workload, ref, n=SETUPS, loop=None):
    """Set up ``n`` times; returns (last state, durations, raw durations,
    attempted, failed).

    With a calibration ``loop``, each duration is scaled by the loop timed
    just before and just after it, each time as the median of
    ``SETUP_SAMPLES`` samples."""
    durations, raw, attempted, failed = [], [], 0, 0
    state = None
    for _ in range(n):
        before = _setup_sample(loop)
        t0 = time.perf_counter()
        state = workload.setup()
        duration = time.perf_counter() - t0
        raw.append(duration)
        if loop is not None:
            duration *= calibration.scales(loop, [before, _setup_sample(loop)])[0]
        durations.append(duration)
        got = workload.record_setup(state)
        if got is not None:
            attempted += 1
            if "setup" not in ref or not workload.matches_setup(got, ref["setup"]):
                print("set-up output differs from the reference", file=sys.stderr)
                failed += 1
    return state, durations, raw, attempted, failed


def _setup_sample(loop):
    if loop is None:
        return None
    return statistics.median(loop.sample() for _ in range(SETUP_SAMPLES))


def figures(workload, passed, loop=None):
    """Throughput and latency percentiles of primary operations, with
    times scaled by the calibration ``loop`` when one is given (see
    calibration.py). Throughput is per second of operation time."""
    ops = passed["ops"]
    scale = calibration.scales(loop, passed["calibration"]) if loop else [1.0] * len(ops)
    latencies = [dt * f for (key, dt, _), f in zip(ops, scale) if workload.is_primary(key)]
    busy = sum(dt * f for (_, dt, _), f in zip(ops, scale))
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "ops_per_s": len(latencies) / busy,
        "op_ms.p50": 1e3 * cuts[49],
        "op_ms.p90": 1e3 * cuts[89],
        "busy_s": busy,
    }


def end_to_end(workload, setup_s, passed, loop):
    scaled = figures(workload, passed, loop)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_ms.p50": (scaled["op_ms.p50"], "ms"),
        "op_ms.p90": (scaled["op_ms.p90"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_figures(workload, raw_setup_s, passed, loop):
    """The end-to-end figures unscaled, with the loop times, for a reader
    who wants to see the machine's drift."""
    out = figures(workload, passed)
    out["setup_s"] = statistics.median(raw_setup_s)
    out["wall_s"] = passed["wall"]
    out["loop_ms.p50"] = 1e3 * statistics.median(passed["calibration"])
    out["loop_ms.nominal"] = 1e3 * loop.NOMINAL_S
    return out


MODULES = ("model", "powerflow", "security", "data", "mlp", "optim", "train")


def per_layer(workload, traced, summary, counts, setup_summary, n_setups,
              overhead, attempted, failed, missing):
    """Per-layer metrics of one traced pass. Times and calls are per primary
    operation (labelled sample, training seed, PV trace); shares are of the
    time spent inside operations, which leaves out the calibration loop."""
    n_ops = sum(1 for key, _, _ in traced["ops"] if workload.is_primary(key)) or 1
    busy = sum(dt for _, dt, _ in traced["ops"])
    calls, total, self_t = summary["calls"], summary["total"], summary["self"]

    def ms(name):
        return 1e3 * total.get(name, 0.0) / n_ops

    def self_ms(name):
        return 1e3 * self_t.get(name, 0.0) / n_ops

    def per_op(name):
        return calls.get(name, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    # The gradient mlp.evaluate computes only for its loss is kept apart from
    # the training gradient.
    eval_key = ("mlp.loss_and_gradient", "mlp.evaluate")
    eval_grad_s = summary["by_parent"].get(eval_key, 0.0)
    grad_s = total.get("mlp.loss_and_gradient", 0.0)
    train_grad_calls = calls.get("mlp.loss_and_gradient", 0) - summary["calls_by_parent"].get(eval_key, 0)
    solves = counts.get("powerflow.solves", 0)
    m = {
        "wall_s": (traced["wall"], "s"),
        "ops_failed_share": (ratio(failed, attempted), "share"),
        "trace.overhead_share": (overhead, "share"),
        "trace.missing_targets": (len(missing), "count"),
        "model.parse_case.ms": (1e3 * setup_summary["total"].get("model.parse_case", 0.0) / n_setups, "ms"),
        "model.apply_outage.ms": (ms("model.apply_outage"), "ms/op"),
        "model.apply_outage.calls": (per_op("model.apply_outage"), "count/op"),
        "powerflow.solve_powerflow.ms": (ms("powerflow.solve_powerflow"), "ms/op"),
        "powerflow.solve_powerflow.self_ms": (self_ms("powerflow.solve_powerflow"), "ms/op"),
        "powerflow.solve_powerflow.calls": (per_op("powerflow.solve_powerflow"), "count/op"),
        "powerflow.jacobian.ms": (ms("powerflow.jacobian"), "ms/op"),
        "powerflow.jacobian.calls": (per_op("powerflow.jacobian"), "count/op"),
        "powerflow.build_ybus.ms": (ms("powerflow.build_ybus"), "ms/op"),
        "powerflow.build_ybus.calls": (per_op("powerflow.build_ybus"), "count/op"),
        "powerflow.mismatch_vector.ms": (ms("powerflow.mismatch_vector"), "ms/op"),
        "powerflow.trace_pv_curve.self_ms": (self_ms("powerflow.trace_pv_curve"), "ms/op"),
        "powerflow.nr_iters.mean": (ratio(counts.get("powerflow.nr_iters.sum", 0), solves), "count"),
        "powerflow.nr_iters.max": (counts.get("powerflow.nr_iters.max", 0), "count"),
        "powerflow.converged_share": (ratio(counts.get("powerflow.converged", 0), solves), "share"),
        "security.run_contingency_screen.ms": (ms("security.run_contingency_screen"), "ms/op"),
        "security.run_contingency_screen.self_ms": (self_ms("security.run_contingency_screen"), "ms/op"),
        "security.check_limits.ms": (ms("security.check_limits"), "ms/op"),
        "security.screen_configurations.self_ms": (self_ms("security.screen_configurations"), "ms/op"),
        "security.insecure_share": (ratio(counts.get("security.insecure", 0),
                                          counts.get("security.screens", 0)), "share"),
        "data.build_dataset.self_ms": (self_ms("data.build_dataset"), "ms/op"),
        "data.generate_oc.ms": (ms("data.generate_oc"), "ms/op"),
        "data.extract_features.ms": (ms("data.extract_features"), "ms/op"),
        "data.load_dataset.ms": (ms("data.load_dataset"), "ms/op"),
        "data.rejections": (counts.get("data.rejections", 0), "count"),
        "mlp.loss_and_gradient.ms": (1e3 * (grad_s - eval_grad_s) / n_ops, "ms/op"),
        "mlp.loss_and_gradient.calls": (train_grad_calls / n_ops, "count/op"),
        "mlp.evaluate.ms": (ms("mlp.evaluate"), "ms/op"),
        "mlp.evaluate.calls": (per_op("mlp.evaluate"), "count/op"),
        "mlp.evaluate.grad_ms": (1e3 * eval_grad_s / n_ops, "ms/op"),
        "mlp.gflops_computed": (ratio(counts.get("mlp.flops", 0), grad_s) / 1e9, "GFLOP/s"),
        "optim.step.self_ms": (self_ms("optim.Optimizer.step"), "ms/op"),
        "optim.step.calls": (per_op("optim.Optimizer.step"), "count/op"),
        "train.run_phase.self_ms": (self_ms("train.run_phase"), "ms/op"),
        "train.run_single.self_ms": (self_ms("train.run_single"), "ms/op"),
        "train.diverged_runs": (counts.get("train.diverged_runs", 0), "count"),
    }
    for module in MODULES:
        share = sum(v for k, v in self_t.items() if k.split(".")[0] == module) / busy
        m[f"layer.{module}.self_share"] = (share, "share")
    m["layer.bench.self_share"] = ((busy - summary["top"]) / busy, "share")
    return m


def run_workload(workload, ref, seed, seconds, trace, setups=SETUPS):
    """One benchmark run; returns (result, extra lines to print before it)."""
    loop = workload.loop()
    extra = []
    if not trace:
        setup_loop = workload.setup_loop() if workload.setup_loop else None
        state, setup_s, raw_setup_s, attempted, failed = run_setups(
            workload, ref, setups, setup_loop)
        passed = measure(workload, state, ref, seed, seconds, loop=loop)
        ops = passed["ops"]
        metrics = end_to_end(workload, setup_s, passed, loop)
        extra.append({"raw": raw_figures(workload, raw_setup_s, passed, loop)})
    else:
        # Per-layer figures need neither repeated set-ups nor long passes;
        # one set-up and two half-length passes keep a traced run about as
        # long as an untraced one.
        setups = 1
        tracer = tracing.Tracer()
        with tracer:
            state, _, _, attempted, failed = run_setups(workload, ref, setups)
        setup_spans, _ = tracer.take()
        untraced = measure(workload, state, ref, seed, seconds / 2, loop=loop)
        with tracer:
            traced = measure(workload, state, ref, seed, seconds,
                             n_rounds=untraced["rounds"], loop=loop)
        spans, counts = tracer.take()
        ops = untraced["ops"] + traced["ops"]
        # Both passes run the same operations; comparing their scaled times
        # keeps the machine's drift out of the overhead.
        overhead = (figures(workload, traced, loop)["busy_s"]
                    / figures(workload, untraced, loop)["busy_s"]) - 1.0
        summary = tracing.summarize(spans)
        metrics = per_layer(
            workload, traced, summary, counts, tracing.summarize(setup_spans), setups,
            overhead, attempted + len(ops), failed + sum(not ok for _, _, ok in ops),
            tracer.missing)
        extra.append({"trace": {
            "missing": tracer.missing,
            "counter_errors": dict(tracer.count_errors),
            "spans": len(spans),
            "targets": {name: {"calls": summary["calls"][name],
                               "ms": 1e3 * summary["total"][name],
                               "self_ms": 1e3 * summary["self"][name]}
                        for name in sorted(summary["calls"])},
        }})
    attempted += len(ops)
    failed += sum(not ok for _, _, ok in ops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, extra


def environment(args):
    """What makes two results comparable: a result from another interpreter,
    numpy, BLAS, thread count or core count is a different experiment."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": bootstrap.BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _non_negative(text):
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=_non_negative, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        bootstrap.use_checkout_source()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    ref_path = os.path.join(bootstrap.BENCH_DIR, "ref", workload.name + workload.reference_suffix)
    try:
        ref = workload.load_reference(ref_path)
    except OSError as exc:
        print(f"perfbench: cannot read reference: {exc}", file=sys.stderr)
        return 2

    result, extra = run_workload(workload, ref, args.seed, args.seconds, args.trace)
    for line in extra:
        print(json.dumps(line))
    print(json.dumps({"env": environment(args)}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
