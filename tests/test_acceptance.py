"""End-to-end acceptance suite.

Eight numbered criteria; each test prints an explicit PASS/FAIL line so a
log scan shows the verdicts without parsing pytest output. Criterion 6 is
the long one (a full seven-algorithm, three-seed, two-phase experiment on
the bundled 68-bus case) and dominates the runtime of this module.
"""

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from gridsec import mlp
from gridsec.data import GenerationConfig, build_dataset, save_dataset
from gridsec.mlp import MlpArchitecture
from gridsec.model import apply_outage, bundled_case_path, scale_loads
from gridsec.optim import ALGORITHMS, Optimizer, OptimizerConfig
from gridsec.powerflow import solve_powerflow, trace_pv_curve
from gridsec.security import Category, categorize, compute_piv
from gridsec.train import (
    PHASE_INIT,
    PHASE_UPDATE,
    ExperimentConfig,
    checkpoints,
    run_experiment,
    standardized_splits,
)

from tests.conftest import CSC_LINES, CSC_LINES_9BUS, TC_LINES, unpinned_env
from tests.test_powerflow import recompute_max_mismatch


def _verdict(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


# --- 1. optimizer worked examples -------------------------------------------

def test_criterion_1_optimizer_oracles():
    start = time.perf_counter()
    ok = True

    opt = Optimizer(OptimizerConfig("sgd", learning_rate=0.1), 1)
    opt.step(np.zeros(1), lambda _: np.array([3.0]))
    ok &= abs(opt.prev_delta[0] - (-0.3)) <= 1e-9

    opt = Optimizer(OptimizerConfig("adam", learning_rate=0.001,
                                    beta1=0.9, beta2=0.999, eps=1e-8), 1)
    opt.step(np.zeros(1), lambda _: np.array([0.5]))
    ok &= abs(opt.prev_delta[0] - (-9.99999980e-4)) <= 1e-9

    opt = Optimizer(OptimizerConfig("nadam", learning_rate=0.001,
                                    beta1=0.9, beta2=0.999, eps=1e-8), 1)
    opt.step(np.zeros(1), lambda _: np.array([1.0]))
    ok &= abs(opt.prev_delta[0] - (-1.8999999810e-3)) <= 1e-9

    opt = Optimizer(OptimizerConfig("adagrad", learning_rate=0.1, eps=0.0), 1)
    theta = np.zeros(1)
    opt.step(theta, lambda _: np.array([2.0]))
    d1 = opt.prev_delta.copy()  # the next step overwrites prev_delta
    opt.step(theta, lambda _: np.array([2.0]))
    ok &= abs(d1[0] - (-0.1)) <= 1e-9
    ok &= abs(opt.prev_delta[0] - (-0.2 / math.sqrt(8.0))) <= 1e-9

    opt = Optimizer(OptimizerConfig("nag-m", learning_rate=0.1, momentum=0.9), 1)
    opt.prev_delta = np.array([-0.1])
    opt.step(np.array([1.0]), lambda t: t)
    ok &= abs(opt.prev_delta[0] - (-0.181)) <= 1e-9

    # gamma = 0 reductions must be bit-exact against plain sgd
    grad = lambda t: np.sin(t) + 0.2 * t
    theta0 = np.array([0.7, -1.1, 0.3])
    for alg in ("sgd-m", "nag", "nag-m"):
        ref = Optimizer(OptimizerConfig("sgd", learning_rate=0.05), 3)
        sub = Optimizer(OptimizerConfig(alg, learning_rate=0.05, momentum=0.0), 3)
        ta, tb = theta0.copy(), theta0.copy()
        for _ in range(5):
            ref.step(ta, grad)
            sub.step(tb, grad)
        ok &= bool(np.array_equal(ta, tb))

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(1, ok, f"{elapsed:.3f}s")


# --- 2. gradient checking ----------------------------------------------------

def test_criterion_2_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_cases = 0
    for trial in range(20):
        n_in = int(rng.integers(2, 6))
        hidden = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3))))
        # tanh keeps the loss smooth everywhere, which central differences
        # need; the relu gradient is checked at fixed seeds elsewhere
        arch = MlpArchitecture((n_in, *hidden, 2), "tanh")
        batch = int(rng.integers(1, 9))
        x = rng.normal(size=(batch, n_in))
        y = rng.integers(0, 2, size=batch)
        theta = mlp.init_params(arch, seed=int(rng.integers(1 << 30)))
        _, g = mlp.loss_and_gradient(theta, arch, x, y)
        h = 1e-5
        g_num = np.zeros_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            g_num[i] = (mlp.loss_and_gradient(up, arch, x, y)[0]
                        - mlp.loss_and_gradient(down, arch, x, y)[0]) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(g_num)), 1e-6)
        worst = max(worst, float(np.max(np.abs(g - g_num) / denom)))
        n_cases += 1
    elapsed = time.perf_counter() - start
    ok = n_cases >= 20 and worst <= 1e-5 and elapsed < 10.0
    _verdict(2, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


# --- 3. power-flow oracle ----------------------------------------------------

def test_criterion_3_power_flow_oracle(case2):
    start = time.perf_counter()
    half = scale_loads(case2, 0.5)  # 0.5 pu load on x = 0.1: PX = 0.05
    sol = solve_powerflow(half, tolerance=1e-13)
    u = (1.0 + math.sqrt(1.0 - 4 * 0.05 ** 2)) / 2.0
    v2 = math.sqrt(u)
    delta_deg = math.degrees(-math.asin(0.05 / v2))
    ok = sol.converged
    ok &= abs(sol.v_mag[1] - v2) <= 1e-6
    ok &= abs(math.degrees(sol.v_ang[1]) - delta_deg) <= 1e-4
    ok &= abs(v2 - 0.99875) < 5e-5 and abs(delta_deg - (-2.869)) < 5e-3
    ok &= recompute_max_mismatch(half, sol) <= 1e-12

    step = 0.05
    curve = trace_pv_curve(case2, 2, step)
    ok &= abs(curve.nose_scale - 5.0) <= step + 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(3, ok, f"V2={sol.v_mag[1]:.6f}, nose={curve.nose_scale:.3f}, {elapsed:.2f}s")


# --- 4. PI_V closed forms and decision table ----------------------------------

def test_criterion_4_piv_and_decision_table():
    class Sol:
        converged = True

        def __init__(self, vm):
            self.v_mag = np.asarray(vm, dtype=float)

    ok = abs(compute_piv(Sol([1.0, 0.98]), Sol([1.0, 0.98]))) <= 1e-12
    ok &= abs(compute_piv(Sol([1.0, 1.0]), Sol([1.0, 0.95])) - 0.5) <= 1e-12
    ok &= abs(compute_piv(Sol([1.0, 1.0]), Sol([0.95, 1.10])) - 2.5) <= 1e-12

    table = [
        (0.0, 0.0, Category.NEGLIGIBLE),
        (0.1, 0.0, Category.NEGLIGIBLE),
        (0.1, 500.0, Category.NEGLIGIBLE),   # boundary: PI_V not above 0.1
        (np.nextafter(0.1, 1.0), 0.0, Category.TC),
        (0.2, 199.9999, Category.TC),
        (0.2, 200.0, Category.CSC),          # boundary: exactly 200 MW
        (0.2, 200.0001, Category.CSC),
        (5.0, 1e6, Category.CSC),
        (0.05, 1e6, Category.NEGLIGIBLE),
    ]
    for piv, flow, expected in table:
        ok &= categorize(piv, flow) is expected
    _verdict(4, ok)


# --- 5. outage PV curves on the 9-bus case -------------------------------------

def test_criterion_5_outage_noses(case9):
    from gridsec.errors import IslandingError

    start = time.perf_counter()
    step = 0.05
    base = trace_pv_curve(case9, 5, step).nose_scale
    reductions = []
    ok = True
    for k in range(len(case9.branches)):
        try:
            outaged = apply_outage(case9, k)
        except IslandingError:
            continue
        nose = trace_pv_curve(outaged, 5, step).nose_scale
        ok &= nose <= base + 1e-9
        reductions.append((base - nose) / base)
    ok &= bool(reductions) and max(reductions) > 0.05
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _verdict(5, ok, f"base nose {base:.2f}, max reduction "
                    f"{max(reductions):.1%}, {elapsed:.1f}s")


# --- 6. two-phase experiment, seven algorithms ---------------------------------

@pytest.fixture(scope="module")
def experiment_results(case68, tmp_path_factory):
    """Both datasets saved as ``gen-dataset`` writes them (their ``repr``
    round trip is exact), then trained by ``run_experiment`` on its default
    workers, as ``gridsec train`` runs them."""
    start = time.perf_counter()
    init_cfg = GenerationConfig(
        n_samples=1000, tc_mix=0.0, csc_list=CSC_LINES, seed=100)
    update_cfg = GenerationConfig(
        n_samples=1000, tc_mix=0.30, tc_list=TC_LINES, csc_list=CSC_LINES,
        seed=200)
    data_dir = tmp_path_factory.mktemp("criterion6")
    cfg = ExperimentConfig(
        init_dataset=str(data_dir / "init.csv"), update_dataset=str(data_dir / "update.csv"),
        init_epochs=500, update_epochs=1000, eval_every=250,
        seeds=(0, 1, 2), hidden=(64, 32), activation="relu",
    )
    save_dataset(build_dataset(case68, init_cfg), cfg.init_dataset, init_cfg)
    save_dataset(build_dataset(case68, update_cfg), cfg.update_dataset, update_cfg)
    results = run_experiment(cfg)
    assert list(results) == list(ALGORITHMS)
    return cfg, results, time.perf_counter() - start


def test_criterion_6_experiment_properties(experiment_results):
    cfg, results, elapsed = experiment_results
    init_cp, update_cp = checkpoints(cfg.init_epochs, cfg.update_epochs)
    cells = [(PHASE_INIT, e) for e in init_cp] + \
            [(PHASE_UPDATE, e) for e in update_cp]

    def median_acc(alg, phase, epoch):
        values = [r.accuracy_at(phase, epoch) for r in results[alg]]
        return statistics.median(values)

    # (a) Adam dominates SGD at every checkpoint
    ok = all(
        median_acc("adam", phase, e) >= median_acc("sgd", phase, e)
        for phase, e in cells
    )

    # (b) Adam ends the update phase at >= 0.95 training accuracy
    adam_final = median_acc("adam", PHASE_UPDATE, cfg.update_epochs)
    ok &= adam_final >= 0.95

    # (c) train accuracy drops at the phase switch for most algorithms
    drops = 0
    for alg in ALGORITHMS:
        per_seed = [
            r.accuracy_at(PHASE_INIT, cfg.init_epochs)
            - r.accuracy_at(PHASE_UPDATE, 1)
            for r in results[alg]
        ]
        if statistics.median(per_seed) > 0:
            drops += 1
    ok &= drops >= 5

    _verdict(6, ok, f"adam final {adam_final:.4f}, drops {drops}/7, "
                    f"{elapsed:.0f}s")


def test_criterion_6_runtime_budget(experiment_results):
    cfg, results, elapsed = experiment_results
    assert len(results) == 7
    assert all(len(runs) == 3 for runs in results.values())
    assert elapsed < 15 * 60


# --- 7. pipeline determinism ---------------------------------------------------

def _run_pipeline(tmp_path, tag):
    # no BLAS thread-count variable: gridsec pins BLAS to one thread itself
    env = unpinned_env()
    out_dir = tmp_path / f"out_{tag}"
    out_dir.mkdir()
    case = str(bundled_case_path("case9"))
    csc = tmp_path / f"csc_{tag}.txt"
    csc.write_text("\n".join(CSC_LINES_9BUS) + "\n")
    ds = out_dir / "ds.csv"

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gridsec.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    cli("gen-dataset", "--case", case, "--n", "40", "--seed", "7",
        "--csc-list", str(csc), "--out", str(ds))
    ini = out_dir / "exp.ini"
    ini.write_text(f"""\
[experiment]
init_dataset = {ds}
update_dataset = {ds}
init_epochs = 40
update_epochs = 40
eval_every = 10
seeds = 0
hidden = 8
algorithms = sgd adam
""")
    train_dir = out_dir / "train"
    cli("train", "--config", str(ini), "--out-dir", str(train_dir))
    report_dir = out_dir / "report"
    report_dir.mkdir()
    cli("report", "--log-dir", str(train_dir), "--out", str(report_dir))

    blobs = {}
    for kind, base in (("out", out_dir), ("train", train_dir), ("report", report_dir)):
        for name in sorted(os.listdir(base)):
            path = base / name
            if path.is_file() and name != "exp.ini":
                blobs[f"{kind}/{name}"] = path.read_bytes()
    return blobs


def test_criterion_7_pipeline_determinism(tmp_path):
    a = _run_pipeline(tmp_path, "a")
    b = _run_pipeline(tmp_path, "b")
    ok = set(a) == set(b) and all(a[k] == b[k] for k in a)
    _verdict(7, ok, f"{len(a)} files byte-identical")


# --- 8. split protocol ---------------------------------------------------------

def test_criterion_8_split_and_tc_counts(case68):
    from gridsec.data import Dataset, sample_tcs
    from tests.test_dataset import tc_columns

    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(4000, 2)), (np.arange(4000) % 3 == 0).astype(np.int64),
                 ["a", "b"])
    (_, y_train), (_, y_test), _, _ = standardized_splits(ds, ds, 0.6, seed=0)
    ok = len(y_train) == 2400 and len(y_test) == 1600

    cfg = GenerationConfig(n_samples=20, tc_mix=0.30, tc_list=TC_LINES,
                           csc_list=CSC_LINES, seed=5)
    built = build_dataset(case68, cfg)
    tcs = sample_tcs(cfg)
    n_tc = sum(tc is not None for tc in tcs)
    ok &= n_tc == 6  # exactly 30% of 20
    # a TC row carries its branch's zero-filled channels, and only TC rows do
    for i, tc in enumerate(tcs):
        for line in TC_LINES:
            cols = tc_columns(case68, line)
            ok &= bool(np.all(built.x[i, cols] == 0.0) if line == tc
                       else np.all(built.x[i, cols] != 0.0))
    _verdict(8, ok, f"split 2400/1600, tc {n_tc}/20")
