"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import bootstrap

bootstrap.use_checkout_source()

import make_refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gridsec import data, mlp, model, optim, powerflow, security  # noqa: E402

with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(name, workdir):
    if name == workloads.LabelWorkload.name:
        return workloads.LabelWorkload(pool_rounds=1, plain=2, tc=1)
    if name == workloads.TrainWorkload.name:
        return workloads.TrainWorkload(
            n_samples=12, init_epochs=4, update_epochs=8, eval_every=2,
            hidden=(8,), seed_pool=2, algorithms=("sgd", "nag", "adam"), workdir=workdir)
    return workloads.StudyWorkload(cases=(("case9", (5,)),), step=0.1, min_rounds=1)


def _with_ref(name, tmp_path_factory):
    """A tiny workload and its reference, saved and loaded back."""
    workload = tiny(name, str(tmp_path_factory.mktemp("data")))
    path = tmp_path_factory.mktemp("ref") / ("ref" + workload.reference_suffix)
    workload.save_reference(make_refs.make_reference(workload, workload.setup()), path)
    return workload, workload.load_reference(path)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny_with_ref(request, tmp_path_factory):
    return _with_ref(request.param, tmp_path_factory)


@pytest.fixture(scope="module")
def tiny_label(tmp_path_factory):
    return _with_ref(workloads.LabelWorkload.name, tmp_path_factory)


@pytest.fixture(scope="module")
def tiny_train(tmp_path_factory):
    return _with_ref(workloads.TrainWorkload.name, tmp_path_factory)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(tiny_with_ref, trace):
    workload, ref = tiny_with_ref
    result, _ = run.run_workload(workload, ref, seed=3, seconds=0.0, trace=trace, setups=2)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _perturb(value):
    if isinstance(value, tuple):  # label: (label, features)
        return value[0], value[1] + 1e-8
    if isinstance(value, dict):
        key = sorted(value)[0]
        if isinstance(value[key][0], list):  # training: {algorithm: log rows}
            first = list(value[key][0])
            first[2] += 0.01
            return {**value, key: [first] + value[key][1:]}
        # screen: {configuration: [category, pi_v]}
        return {**value, key: ["no such category", value[key][1]]}
    if value == "infeasible":
        return [1.0, 1, 1.0]
    return value[:2] + [value[2] + 1e-8]  # PV trace: [nose, points, v at nose]


@pytest.mark.parametrize("trace", [0, 1])
def test_perturbed_reference_fails(tiny_with_ref, trace):
    workload, ref = tiny_with_ref
    bad = {key: (value if key == "setup" else _perturb(value)) for key, value in ref.items()}
    result, _ = run.run_workload(workload, bad, seed=3, seconds=0.0, trace=trace, setups=1)
    assert not result["correct"]
    assert result["failed"] > 0
    if trace:
        assert result["metrics"]["ops_failed_share"]["value"] > 0


def test_perturbed_setup_reference_fails(tiny_train):
    workload, ref = tiny_train
    bad = json.loads(json.dumps(ref))
    labels = bad["setup"]["init"]["labels"]
    bad["setup"]["init"]["labels"] = ("1" if labels[0] == "0" else "0") + labels[1:]
    result, _ = run.run_workload(workload, bad, seed=3, seconds=0.0, trace=0, setups=2)
    assert result["failed"] == 2


def test_train_timed_region_makes_no_powerflow_call(tiny_train):
    workload, ref = tiny_train
    result, _ = run.run_workload(workload, ref, seed=3, seconds=0.0, trace=1, setups=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["powerflow.solve_powerflow.calls"] == 0
    assert metrics["data.load_dataset.ms"] > 0  # the op reads the saved datasets
    assert metrics["mlp.loss_and_gradient.calls"] > 0
    assert metrics["optim.step.calls"] == metrics["mlp.loss_and_gradient.calls"]


def test_label_trace_sees_the_solver(tiny_label):
    workload, ref = tiny_label
    result, _ = run.run_workload(workload, ref, seed=3, seconds=0.0, trace=1, setups=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # one OC solve plus one per CSC that is still in service
    assert metrics["powerflow.solve_powerflow.calls"] >= 8
    assert metrics["powerflow.jacobian.calls"] > metrics["powerflow.solve_powerflow.calls"]
    assert metrics["mlp.evaluate.calls"] == 0 and metrics["optim.step.calls"] == 0
    assert metrics["model.parse_case.ms"] > 0


def test_tracer_patches_every_namespace_and_restores():
    import gridsec

    original_solve = powerflow.solve_powerflow
    original_step = optim.Optimizer.step
    with tracing.Tracer() as tracer:
        wrapped = powerflow.solve_powerflow
        assert wrapped is not original_solve
        assert data.solve_powerflow is wrapped
        assert security.solve_powerflow is wrapped
        assert gridsec.solve_powerflow is wrapped
        assert optim.Optimizer.step is not original_step
        assert tracer.missing == []
    assert powerflow.solve_powerflow is original_solve
    assert data.solve_powerflow is original_solve
    assert security.solve_powerflow is original_solve
    assert gridsec.solve_powerflow is original_solve
    assert optim.Optimizer.step is original_step


def test_missing_target_is_reported_not_fatal():
    targets = tracing.TARGETS + ("powerflow.no_such_kernel", "optim.NoSuchClass.step",
                                 "no_such_module.f")
    with tracing.Tracer(targets) as tracer:
        powerflow.solve_powerflow(model.load_bundled_case("case9"))
        spans, counts = tracer.take()
    assert tracer.missing == list(targets[-3:])
    names = {targets[s[0]] for s in spans}
    assert {"powerflow.solve_powerflow", "powerflow.jacobian"} <= names
    assert counts["powerflow.solves"] == 1


def test_self_time_excludes_children():
    spans = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0], [2, 2.0, 3.0, 1]]
    summary = tracing.summarize(spans, targets=("a", "b", "c"))
    assert summary["self"]["a"] == pytest.approx(6.0)
    assert summary["self"]["b"] == pytest.approx(3.0)
    assert summary["total"]["b"] == pytest.approx(4.0)
    assert summary["calls_by_parent"][("b", "a")] == 2
    assert summary["top"] == pytest.approx(10.0)


def test_gradient_flops_count():
    counts = {"mlp.flops": 0}
    arch = mlp.MlpArchitecture((3, 4, 2))
    x = mlp.np.zeros((5, 3))
    tracing.COUNTERS["mlp.loss_and_gradient"](counts, None, (None, arch, x, None))
    # forward 2*5*(12+8), weight grads the same, deltas into layer 2: 2*5*8
    assert counts["mlp.flops"] == 200 + 200 + 80


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("seed", ["0", "7"])
def test_stored_label_reference_holds(seed):
    proc = _run_cli(bootstrap.ROOT, "--workload", "label-n1-case68", "--seed", seed,
                    "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
    assert env["blas_threads"] == 1 and env["seed"] == int(seed)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bootstrap.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "label-n1-case68", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
