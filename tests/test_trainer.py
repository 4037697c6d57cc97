import errno
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gridsec
from gridsec import mlp, train, workers
from gridsec.data import Dataset, load_dataset
from gridsec.errors import DatasetError, ExperimentError
from gridsec.mlp import MlpArchitecture
from gridsec.optim import ALGORITHMS, Optimizer, OptimizerConfig, default_config
from gridsec.train import (
    PHASE_INIT,
    PHASE_UPDATE,
    ExperimentConfig,
    checkpoints,
    parse_experiment_config,
    read_log,
    run_experiment,
    run_phase,
    run_single,
    standardized_splits,
    summarize,
    write_log,
)
from gridsec.workers import resolve_jobs

from tests.conftest import BLAS_VARS, assert_golden, assert_no_children, unpinned_env, use_cpus


def make_blobs(n, seed, shift=2.0):
    """Two linearly separable Gaussian blobs as a Dataset: even rows Secure
    (class 0) around -shift, odd rows Insecure (class 1) around +shift."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    x = np.array([rng.normal(shift if c else -shift, 1.0, size=3) for c in y.tolist()])
    return Dataset(x, y, ["a", "b", "c"])


def xy(ds):
    return ds.matrix()


def test_single_sgd_step_contract():
    """After one epoch, theta must equal theta0 - lr * grad(theta0)."""
    ds = make_blobs(20, 0)
    x, y = xy(ds)
    arch = MlpArchitecture((3, 4, 2), "tanh")
    theta0 = mlp.init_params(arch, seed=1)
    _, g = mlp.loss_and_gradient(theta0, arch, x, y)
    opt = Optimizer(OptimizerConfig("sgd", learning_rate=0.05), arch.n_params)
    theta1, rows = run_phase(theta0.copy(), arch, opt, (x, y), (x, y),
                             "Initialization", 1, 100)
    assert np.allclose(theta1, theta0 - 0.05 * g, atol=1e-15)
    assert len(rows) == 1 and rows[0].epoch == 1


def test_run_phase_log_cadence():
    ds = make_blobs(30, 1)
    x, y = xy(ds)
    arch = MlpArchitecture((3, 4, 2), "tanh")
    theta = mlp.init_params(arch, seed=0)
    opt = Optimizer(default_config("sgd"), arch.n_params)
    _, rows = run_phase(theta, arch, opt, (x, y), (x, y),
                        "Initialization", 25, 10)
    assert [r.epoch for r in rows] == [1, 10, 20, 25]


def test_run_phase_detects_divergence():
    ds = make_blobs(10, 2)
    x, y = xy(ds)
    arch = MlpArchitecture((3, 4, 2), "relu")
    theta = mlp.init_params(arch, seed=0)
    # absurd learning rate overflows the very first update; the diverged row
    # records it, and numpy's overflow warnings would only repeat it on stderr
    opt = Optimizer(OptimizerConfig("sgd", learning_rate=1e305), arch.n_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rows = run_phase(theta, arch, opt, (x, y), (x, y),
                            "Initialization", 50, 10)
    assert rows[-1].diverged
    assert rows[-1].epoch < 50


@pytest.mark.parametrize("learning_rate", [1e100, 1e150])
def test_run_phase_ends_at_a_non_finite_gradient(learning_rate):
    """A rate that leaves theta finite but overflows the next gradient ends
    the phase with a diverged row at that epoch, and theta stays finite:
    the step that raised did not apply. It warns nothing on the way."""
    x, y = xy(make_blobs(10, 2))
    arch = MlpArchitecture((3, 4, 2), "relu")
    opt = Optimizer(OptimizerConfig("sgd", learning_rate=learning_rate), arch.n_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, rows = run_phase(mlp.init_params(arch, seed=0), arch, opt, (x, y), (x, y),
                                "Initialization", 50, 10)
    assert rows[-1].diverged and np.isnan(rows[-1].loss)
    assert rows[-1].epoch == opt.k + 1 < 50
    assert np.all(np.isfinite(theta))


def _save_datasets(tmp_path):
    from gridsec.data import save_dataset

    init = make_blobs(60, 0)
    update = make_blobs(60, 1, shift=1.5)
    init_path = tmp_path / "init.csv"
    update_path = tmp_path / "update.csv"
    save_dataset(init, init_path)
    save_dataset(update, update_path)
    return init, update, str(init_path), str(update_path)


def small_config(init_path, update_path, **kw):
    defaults = dict(
        init_dataset=init_path, update_dataset=update_path,
        init_epochs=40, update_epochs=40, eval_every=10,
        hidden=(6,), activation="tanh", algorithms=("sgd", "adam"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_single_deterministic(tmp_path):
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up)
    a = run_single(cfg, "adam", 0, standardized_splits(init, update, 0.6, 0))
    b = run_single(cfg, "adam", 0, standardized_splits(init, update, 0.6, 0))
    assert [(r.phase, r.epoch, r.loss) for r in a.rows] == \
           [(r.phase, r.epoch, r.loss) for r in b.rows]


def test_run_single_covers_both_phases(tmp_path):
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up)
    result = run_single(cfg, "sgd", 0, standardized_splits(init, update, 0.6, 0))
    phases = {r.phase for r in result.rows}
    assert phases == {PHASE_INIT, PHASE_UPDATE}
    # accuracy lookup hits logged rows
    assert np.isfinite(result.accuracy_at(PHASE_INIT, 40))
    assert np.isfinite(result.accuracy_at(PHASE_UPDATE, 40, split="test"))


def test_initialization_divergence_skips_the_update_phase(tmp_path):
    """A run that diverges in the initialization phase logs no update rows,
    and the experiment goes on to summarize it as diverged."""
    _, _, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up, algorithms=("sgd",), activation="relu",
                       overrides={"sgd": {"learning_rate": 1e305}})
    with np.errstate(all="ignore"):
        results = run_experiment(cfg)
    run = results["sgd"][0]
    assert run.rows[-1].diverged and {r.phase for r in run.rows} == {PHASE_INIT}
    _, table = summarize(results, checkpoints(cfg.init_epochs, cfg.update_epochs))
    assert table == [["sgd"] + ["div"] * 6]
    write_log(tmp_path / "sgd.log.csv", run)
    assert len(read_log(tmp_path / "sgd.log.csv").rows) == len(run.rows)


@pytest.mark.parametrize("algorithm", ["adagrad", "nadam"])
def test_a_zero_eps_run_diverges_without_a_warning(algorithm):
    """eps = 0 is a valid setting, but a constant feature column standardizes
    to zeros, so its weights get an exactly zero gradient and a first step of
    -lr / 0 * 0. The diverged row at epoch 1 is the run's one record of it:
    pytest turns a RuntimeWarning on stderr into an error."""
    blobs = make_blobs(60, 0)
    x = np.column_stack([blobs.x, np.full(60, 5.0)])
    ds = Dataset(x, blobs.y, ["a", "b", "c", "constant"])
    cfg = small_config("init.csv", "update.csv", algorithms=(algorithm,), activation="relu",
                       overrides={algorithm: {"eps": 0.0}})
    run = run_single(cfg, algorithm, 0, standardized_splits(ds, ds, 0.6, 0))
    assert [(r.phase, r.epoch, r.diverged) for r in run.rows] == [(PHASE_INIT, 1, True)]


def _reference_splits(init_ds, update_ds, fraction, seed):
    """``standardized_splits`` as three steps: each dataset shuffled and
    partitioned into (train, test) ``Dataset``s, mean and std (a zero std
    pinned to 1) fitted on the initialization train split, and every split
    standardized with them."""
    parts = []
    for ds in (init_ds, update_ds):
        n_train = int(fraction * len(ds))
        if not 0 < n_train < len(ds):
            return None
        order = np.random.default_rng(seed).permutation(len(ds))
        parts += [Dataset(ds.x[idx], ds.y[idx], ds.feature_names)
                  for idx in (order[:n_train], order[n_train:])]
    xys = [part.matrix() for part in parts]
    x = np.asarray(xys[0][0], dtype=float)
    mean, std = x.mean(axis=0), x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return [((np.asarray(x, dtype=float) - mean) / std, y) for x, y in xys]


@st.composite
def _datasets(draw, width):
    """A dataset of ``width`` columns, some of them constant."""
    n = draw(st.integers(1, 40))
    x = draw(arrays(np.float64, (n, width), elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    for col in draw(st.sets(st.integers(0, width - 1), max_size=width)):
        x[:, col] = draw(st.floats(-1e3, 1e3, allow_subnormal=False))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return Dataset(x, y, [f"f{c}" for c in range(width)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(width=st.integers(1, 6), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32),
       data=st.data())
def test_standardized_splits_match_the_reference_bit_for_bit(width, fraction, seed, data):
    """Over drawn sizes, widths, fractions, seeds and constant columns,
    ``standardized_splits`` returns the reference's four (x, y) splits byte
    for byte, or raises ``DatasetError`` where the reference has an empty side."""
    init_ds, update_ds = data.draw(_datasets(width)), data.draw(_datasets(width))
    want = _reference_splits(init_ds, update_ds, fraction, seed)
    if want is None:
        with pytest.raises(DatasetError, match="split empty$"):
            standardized_splits(init_ds, update_ds, fraction, seed)
        return
    got = standardized_splits(init_ds, update_ds, fraction, seed)
    assert len(got) == 4
    for (x, y), (want_x, want_y) in zip(got, want):
        assert x.dtype == want_x.dtype and x.shape == want_x.shape
        assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("algorithm", ["sgd-m", "nag", "nag-m", "adagrad", "adam", "nadam"])
def test_optimizer_state_continuity_matters(tmp_path, algorithm):
    """The update phase continues the initialization phase's optimizer: its
    rows equal a replay that passes the same Optimizer on, bit for bit, and
    differ from a replay that restarts with a fresh one."""
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up, algorithms=(algorithm,))
    splits = standardized_splits(init, update, 0.6, 0)
    continued = [r for r in run_single(cfg, algorithm, 0, splits).rows
                 if r.phase == PHASE_UPDATE]

    it, ite, ut, ute = splits
    arch = MlpArchitecture((3, 6, 2), "tanh")
    opt = Optimizer(cfg.optimizer_config(algorithm), arch.n_params)
    theta, _ = run_phase(mlp.init_params(arch, 0), arch, opt, it, ite,
                         PHASE_INIT, 40, 10)
    fresh = Optimizer(cfg.optimizer_config(algorithm), arch.n_params)
    _, rows_fresh = run_phase(theta.copy(), arch, fresh, ut, ute, PHASE_UPDATE, 40, 10)
    _, rows_same = run_phase(theta, arch, opt, ut, ute, PHASE_UPDATE, 40, 10)
    assert continued == rows_same  # LogRow equality: every field, bit for bit
    assert continued != rows_fresh


def test_log_round_trip(tmp_path):
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up)
    run = run_single(cfg, "sgd", 3, standardized_splits(init, update, 0.6, 3))
    path = tmp_path / "run.log.csv"
    write_log(path, run)
    again = read_log(path)
    assert again.algorithm == "sgd" and again.seed == 3
    assert [(r.phase, r.epoch) for r in again.rows] == \
           [(r.phase, r.epoch) for r in run.rows]
    # rewriting is byte-identical
    path2 = tmp_path / "run2.log.csv"
    write_log(path2, run)
    assert path.read_bytes() == path2.read_bytes()


def test_read_log_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("something,else\n")
    with pytest.raises(ExperimentError, match="not a training log"):
        read_log(path)


def test_summarize_shape(tmp_path):
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up, init_epochs=20, update_epochs=40, eval_every=10)
    splits = {s: standardized_splits(init, update, 0.6, s) for s in (0, 1)}
    results = {alg: [run_single(cfg, alg, s, splits[s]) for s in (0, 1)]
               for alg in cfg.algorithms}
    header, rows = summarize(results, checkpoints(cfg.init_epochs, cfg.update_epochs))
    assert header == ["algorithm", "init_10", "init_20",
                      "update_10", "update_20", "update_30", "update_40"]
    assert len(rows) == 2
    assert all(len(r) == 7 for r in rows)


def test_parse_experiment_config_full():
    cfg = parse_experiment_config("""
[experiment]
init_dataset = init.csv
update_dataset = update.csv
init_epochs = 500
update_epochs = 1000
eval_every = 50
seeds = 0 1 2
train_fraction = 0.6
hidden = 32 16
activation = tanh
algorithms = sgd adam nadam

[adam]
learning_rate = 0.002
beta2 = 0.99
""")
    assert cfg.init_epochs == 500
    assert cfg.seeds == (0, 1, 2)
    assert cfg.hidden == (32, 16)
    assert cfg.algorithms == ("sgd", "adam", "nadam")
    assert cfg.optimizer_config("adam").learning_rate == 0.002
    assert cfg.optimizer_config("adam").beta2 == 0.99
    assert cfg.optimizer_config("sgd").learning_rate == 0.01
    assert checkpoints(cfg.init_epochs, cfg.update_epochs) == ((250, 500), (250, 500, 750, 1000))


# [experiment] lines or algorithm sections, and the error each must raise
BAD_VALUES = [
    ("init_epochs = ten", r"\[experiment\] init_epochs: bad value 'ten'"),
    ("update_epochs = 1.5", r"\[experiment\] update_epochs: bad value '1.5'"),
    ("eval_every = x", r"\[experiment\] eval_every: bad value 'x'"),
    ("seeds = 0 one", r"\[experiment\] seeds: bad value '0 one'"),
    ("hidden = 64 x", r"\[experiment\] hidden: bad value '64 x'"),
    ("train_fraction = half", r"\[experiment\] train_fraction: bad value 'half'"),
    ("[adam]\nlearning_rate = abc", r"\[adam\] learning_rate: bad value 'abc'"),
    ("hidden = 0", r"hidden = 0, activation = relu: all layer sizes must be >= 1"),
    ("hidden =", r"need at least one hidden layer"),
    ("activation = sigmoid", r"activation = sigmoid: unknown activation 'sigmoid'"),
    ("[adam]\nlearning_rate = -1", r"\[adam\] learning rate must be positive"),
    ("[adam]\nlearning_rate = nan", r"\[adam\] learning rate must be positive"),
    ("[adagrad]\neps = nan", r"\[adagrad\] eps must be non-negative"),
    ("[sgd]\nlearning_rate = inf", r"\[sgd\] learning rate must be positive and finite"),
    ("[adam]\neps = inf", r"\[adam\] eps must be non-negative and finite"),
    ("[sgd-m]\nmomentum = 2", r"\[sgd-m\] momentum must lie in \[0, 1\]"),
    ("epochs = 10", r"\[experiment\] epochs: unknown key"),
    ("[adam]\nlearning-rate = 5", r"\[adam\] learning-rate: unknown key"),
    ("init_epochs = 0", r"init_epochs must be >= 1"),
    ("update_epochs = -4", r"update_epochs must be >= 1"),
    ("init_epochs = 1\neval_every = 1", r"init_epochs = 1 is below 2, the fewest epochs"),
    ("update_epochs = 3\neval_every = 1", r"update_epochs = 3 is below 4, the fewest epochs"),
    ("train_fraction = 1.5", r"train_fraction must lie in \(0, 1\)"),
    ("train_fraction = 0", r"train_fraction must lie in \(0, 1\)"),
    ("seeds =", r"seeds must not be empty"),
    ("seeds = 0 -1", r"seeds must be non-negative, not -1"),
    ("seeds = 0 1 0", r"seeds lists 0 more than once"),
    ("algorithms =", r"algorithms must not be empty"),
    ("algorithms = sgd adam sgd", r"algorithms lists sgd more than once"),
    ("algorithms = sgd\n[adam]\nlearning_rate = -1",
     r"\[adam\] configures an algorithm not in algorithms = sgd"),
]



def test_parse_experiment_config_errors():
    with pytest.raises(ExperimentError, match="missing \\[experiment\\]"):
        parse_experiment_config("[other]\nx = 1\n")
    with pytest.raises(ExperimentError, match="missing update_dataset"):
        parse_experiment_config("[experiment]\ninit_dataset = a.csv\n")
    with pytest.raises(ExperimentError, match="valid: sgd, sgd-m"):
        parse_experiment_config(
            "[experiment]\ninit_dataset = a\nupdate_dataset = b\n"
            "algorithms = sgd rmsprop\n")
    with pytest.raises(ExperimentError, match="unknown config section"):
        parse_experiment_config(
            "[experiment]\ninit_dataset = a\nupdate_dataset = b\n"
            "[rmsprop]\nlearning_rate = 0.1\n")
    # init checkpoints are epochs 20 and 40; only 1, 30 and 40 are logged
    with pytest.raises(ExperimentError, match=r"leaves init checkpoint epochs \[20\] unlogged"):
        parse_experiment_config(
            "[experiment]\ninit_dataset = a\nupdate_dataset = b\n"
            "init_epochs = 40\nupdate_epochs = 40\neval_every = 30\n")
    with pytest.raises(ExperimentError, match="eval_every must be >= 1"):
        parse_experiment_config(
            "[experiment]\ninit_dataset = a\nupdate_dataset = b\neval_every = 0\n")

    # bad values fail at parse time, before any dataset loads or any
    # algorithm trains, with an error naming the key
    for lines, message in BAD_VALUES:
        with pytest.raises(ExperimentError, match=message):
            parse_experiment_config(
                "[experiment]\ninit_dataset = a\nupdate_dataset = b\n" + lines + "\n")


def test_run_experiment_checks_code_built_config(tmp_path):
    _, _, ip, up = _save_datasets(tmp_path)
    # a bad cadence, network or optimizer setting fails when the config is
    # built; init checkpoints are epochs 20 and 40, only 1, 30 and 40 logged
    with pytest.raises(ExperimentError, match=r"leaves init checkpoint epochs \[20\] unlogged"):
        small_config(ip, up, init_epochs=40, update_epochs=40, eval_every=30)
    with pytest.raises(ExperimentError, match="eval_every must be >= 1"):
        small_config(ip, up, eval_every=0)
    with pytest.raises(ExperimentError, match="unknown activation"):
        small_config(ip, up, activation="sigmoid")
    with pytest.raises(ExperimentError, match=r"\[adam\] learning rate must be positive"):
        small_config(ip, up, overrides={"adam": {"learning_rate": -1.0}})
    with pytest.raises(ExperimentError, match="algorithms lists adam more than once"):
        small_config(ip, up, algorithms=("adam", "sgd", "adam"))
    with pytest.raises(ExperimentError, match=r"\[nadam\] configures an algorithm not in "
                                              r"algorithms = sgd adam"):
        small_config(ip, up, overrides={"nadam": {"learning_rate": 0.01}})
    results = run_experiment(small_config(ip, up, algorithms=("sgd",)))
    _, rows = summarize(results, checkpoints(40, 40))
    assert "div" not in rows[0]


NON_INTEGER = {
    "init_epochs": (2.5, "init_epochs must be an integer, not 2.5"),
    "update_epochs": (40.0, "update_epochs must be an integer, not 40.0"),
    "eval_every": (2.5, "eval_every must be an integer, not 2.5"),
    "seeds": ((0, 1.5), "seeds must be integers, not 1.5"),
    "hidden": ((2.5,), "hidden = 2.5, activation = tanh: all layer sizes must be integers"),
}


@pytest.mark.parametrize("field", NON_INTEGER)
def test_a_code_built_config_rejects_non_integer_counts(field):
    """Counts, seeds and layer sizes that are not integers fail when the
    config is built, naming the field, before any dataset loads (the paths
    here do not exist)."""
    value, message = NON_INTEGER[field]
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        small_config("no-init.csv", "no-update.csv", **{field: value})


# the OptimizerConfig fields each algorithm's update rule reads
READS = {"sgd": ("learning_rate",), "sgd-m": ("learning_rate", "momentum"),
         "nag": ("learning_rate", "momentum"), "nag-m": ("learning_rate", "momentum"),
         "adagrad": ("learning_rate", "eps"), "adam": ("learning_rate", "beta1", "beta2", "eps"),
         "nadam": ("learning_rate", "beta1", "beta2", "eps")}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("key", ["learning_rate", "momentum", "beta1", "beta2", "eps"])
def test_a_setting_the_algorithm_does_not_read_is_an_error(algorithm, key):
    """``[sgd] momentum = 0.3`` would change nothing: every optimizer field
    that an algorithm's update rule does not read is an error naming the
    section and the key, in a config file and in a config built in code,
    and every field it reads is taken."""
    text = ("[experiment]\ninit_dataset = a\nupdate_dataset = b\n"
            f"algorithms = {algorithm}\n[{algorithm}]\n{key} = 0.3\n")
    if key in READS[algorithm]:
        cfg = parse_experiment_config(text)
        assert getattr(cfg.optimizer_config(algorithm), key) == 0.3
        return
    message = rf"\[{algorithm}\] {key}: {algorithm} does not read it"
    with pytest.raises(ExperimentError, match=message):
        parse_experiment_config(text)
    with pytest.raises(ExperimentError, match=message):
        small_config("a", "b", algorithms=(algorithm,), overrides={algorithm: {key: 0.3}})


def test_a_diverged_row_summarizes_as_div(tmp_path):
    """A run whose loss turns non-finite at a logged epoch writes its
    diverged row with the accuracies of nan probabilities, which are
    numbers; the summaries that ``train`` writes and those that ``report``
    writes from the log both read div there."""
    golden = str(Path(__file__).parent / "data" / "golden_case68_dataset.csv")
    cfg = small_config(golden, golden, init_epochs=2, update_epochs=4, eval_every=1,
                       hidden=(64, 32), activation="relu", algorithms=("sgd",),
                       overrides={"sgd": {"learning_rate": 1e300}})
    results = run_experiment(cfg)
    run = results["sgd"][0]
    assert [(r.phase, r.epoch, r.diverged) for r in run.rows] == [(PHASE_INIT, 1, True)]
    assert np.isfinite(run.rows[0].train_accuracy)
    write_log(tmp_path / "sgd.log.csv", run)
    epochs = checkpoints(cfg.init_epochs, cfg.update_epochs)
    for logged in (results, {"sgd": [read_log(tmp_path / "sgd.log.csv")]}):
        for split in ("train", "test"):
            assert summarize(logged, epochs, split)[1] == [["sgd"] + ["div"] * 6]


def _blobs_with_columns(names):
    """Blob samples cut or padded to one feature per name in ``names``."""
    blobs = make_blobs(20, 0)
    return Dataset(np.array([np.resize(row, len(names)) for row in blobs.x]), blobs.y,
                   list(names))


@pytest.mark.parametrize("update_columns", [["a", "b"], ["a", "b", "z"]],
                         ids=["different-width", "renamed-column"])
def test_run_experiment_rejects_mismatched_columns(tmp_path, update_columns):
    """Training on an update dataset whose columns are not the init
    dataset's is an error naming both files, not a broadcast traceback or a
    silent run on mismatched features."""
    from gridsec.data import save_dataset

    ip, up = str(tmp_path / "init.csv"), str(tmp_path / "update.csv")
    save_dataset(_blobs_with_columns(["a", "b", "c"]), ip)
    save_dataset(_blobs_with_columns(update_columns), up)
    with pytest.raises(ExperimentError,
                       match=re.escape(f"{ip} and {up} have different feature columns")):
        run_experiment(small_config(ip, up))


# --- (seed, algorithm) runs on forked workers ---------------------------------

def _grid_config(tmp_path):
    """Both blob datasets, 2 seeds x 7 algorithms, relu, and an sgd rate at
    which seed 1 diverges in the initialization phase."""
    _, _, ip, up = _save_datasets(tmp_path)
    return small_config(ip, up, seeds=(0, 1), algorithms=ALGORITHMS, activation="relu",
                        overrides={"sgd": {"learning_rate": 1e100}})


def test_run_experiment_is_the_same_at_any_jobs(tmp_path, monkeypatch, forks):
    """Every run on 1 and 2 workers, 2 being one fork, equals a direct
    ``run_single`` loop, the diverged sgd runs included. Results compare by
    ``repr``, which is exact for floats and, unlike ``==``, equates the
    diverged rows' nans."""
    cfg = _grid_config(tmp_path)
    init, update = load_dataset(cfg.init_dataset), load_dataset(cfg.update_dataset)
    splits = {seed: standardized_splits(init, update, cfg.train_fraction, seed)
              for seed in cfg.seeds}
    oracle = {algorithm: [run_single(cfg, algorithm, seed, splits[seed]) for seed in cfg.seeds]
              for algorithm in ALGORITHMS}
    assert [run.rows[-1].diverged for run in oracle["sgd"]] == [False, True]
    assert not any(run.rows[-1].diverged for run in oracle["adam"])
    for jobs in (1, 2):
        use_cpus(monkeypatch, jobs)
        forks.clear()
        assert repr(run_experiment(cfg)) == repr(oracle)
        assert len(forks) == jobs - 1
    assert_no_children()


def _run_single_failing(monkeypatch, fail):
    """Make ``train.run_single`` call ``fail(algorithm, seed)`` before each run."""
    real = train.run_single

    def run_single(cfg, algorithm, seed, splits):
        fail(algorithm, seed)
        return real(cfg, algorithm, seed, splits)
    monkeypatch.setattr(train, "run_single", run_single)


@pytest.mark.parametrize("failing,raised", [
    (("nag-m", "adagrad"), "nag-m"),
    (("nag", "nag-m"), "nag"),
])
def test_a_worker_exception_is_raised_for_the_lowest_failing_unit(tmp_path, monkeypatch,
                                                                  failing, raised):
    """On 2 workers, seed 0's nag-m (unit 3) runs in the child, and nag
    (unit 2) and adagrad (unit 4) in this process. When two fail, the parent
    raises the lower unit's exception, as 1 worker would, with its type and
    message."""
    def fail(algorithm, seed):
        if seed == 0 and algorithm in failing:
            raise (ValueError if algorithm == raised else KeyError)(f"{algorithm} failed")
    _run_single_failing(monkeypatch, fail)
    for jobs in (1, 2):
        use_cpus(monkeypatch, jobs)
        with pytest.raises(ValueError, match=f"^{raised} failed$"):
            run_experiment(_grid_config(tmp_path))
        assert_no_children()


def test_a_killed_worker_is_an_experiment_error(tmp_path, monkeypatch):
    """A child that dies without sending its results is an error naming its units."""
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fail(algorithm, seed):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
    _run_single_failing(monkeypatch, fail)
    with pytest.raises(ExperimentError, match=r"^a training worker ended with status -9 and "
                                              r"no results for sgd-m seed 0, nag-m seed 0, "
                                              r"adam seed 0, sgd seed 1, "):
        run_experiment(_grid_config(tmp_path))
    assert_no_children()


def test_an_interrupted_parent_kills_its_workers(tmp_path, monkeypatch):
    """An interrupt in this process's own units kills and reaps the child at
    once, although its run would take a minute."""
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fail(algorithm, seed):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    _run_single_failing(monkeypatch, fail)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(_grid_config(tmp_path))
    assert_no_children()
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("env,n_units,want", [
    ({}, 14, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 14, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 14, 4),
    ({"OMP_NUM_THREADS": "1"}, 14, 4),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 14, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
    (dict.fromkeys(BLAS_VARS, "2"), 14, 4),
])
def test_workers_need_one_blas_thread(monkeypatch, env, n_units, want):
    """One worker per usable CPU, capped at the unit count, whatever the
    BLAS thread-count variables say: importing gridsec pins each worker's
    BLAS to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert resolve_jobs(n_units) == want


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n_units=st.integers(0, 9), cpus=st.integers(1, 3), data=st.data())
def test_worker_map_is_the_serial_loop(n_units, cpus, data):
    """Over drawn unit and CPU counts and failing units, ``workers.map_units``
    returns what a serial loop returns, in unit order, with unit i run by
    worker i % jobs, worker 0 being this process; or it raises the lowest
    failing unit's exception. No units make one worker, this process, and
    an empty list. No child outlives it."""
    failing = data.draw(st.sets(st.integers(0, n_units - 1))) if n_units else set()
    units = [f"unit {i}" for i in range(n_units)]

    def fn(unit):
        if int(unit.split()[1]) in failing:
            raise ValueError(f"{unit} failed")
        return unit, os.getpid()

    def lost(status, units):
        return AssertionError(f"a worker ended with status {status}")
    with pytest.MonkeyPatch.context() as mp:
        use_cpus(mp, cpus)
        jobs = resolve_jobs(n_units)
        assert jobs == max(1, min(cpus, n_units))
        if failing:
            with pytest.raises(ValueError, match=f"^unit {min(failing)} failed$"):
                workers.map_units(fn, units, lost)
        else:
            done = workers.map_units(fn, units, lost)
            assert [unit for unit, _ in done] == units
            pids = [pid for _, pid in done]
            assert pids[:1] == [os.getpid()][:n_units] and len(set(pids)) == min(jobs, n_units)
            assert pids == [pids[i % jobs] for i in range(n_units)]
    assert_no_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
@pytest.mark.parametrize("cpus,good_forks", [(2, 0), (3, 1)], ids=["first-fork", "second-fork"])
def test_a_failed_fork_closes_its_pipe(monkeypatch, cpus, good_forks):
    """When ``os.fork`` raises (EAGAIN, ENOMEM), the error propagates, both
    ends of that worker's pipe are closed, and a worker forked before it is
    killed and reaped: the process holds as many descriptors as before."""
    fork = os.fork
    made = []

    def failing_fork():
        if len(made) == good_forks:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        made.append(None)
        return fork()
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", failing_fork)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        made.clear()
        with pytest.raises(BlockingIOError, match="fork refused"):
            workers.map_units(str, range(cpus), lambda status, units: AssertionError(status))
        assert len(made) == good_forks
    assert len(os.listdir("/proc/self/fd")) == before
    assert_no_children()


@pytest.mark.skipif(gridsec.OPENBLAS is None, reason="no bundled OpenBLAS to ask")
def test_importing_gridsec_pins_one_blas_thread():
    """Under ``OPENBLAS_NUM_THREADS=2``, a process that imports numpy and
    then gridsec has numpy's bundled OpenBLAS on one thread."""
    code = "import numpy, gridsec; print(gridsec.OPENBLAS.scipy_openblas_get_num_threads64_())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=unpinned_env(OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_one_worker_where_the_os_reports_no_usable_cpus(tmp_path, monkeypatch):
    """Without ``os.sched_getaffinity`` (macOS, Windows) an experiment runs
    in this process, with no fork."""
    monkeypatch.delattr(os, "sched_getaffinity")

    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", fork)
    assert resolve_jobs(14) == 1
    _, _, ip, up = _save_datasets(tmp_path)
    assert list(run_experiment(small_config(ip, up))) == ["sgd", "adam"]


GOLDEN_LOG = Path(__file__).parent / "data" / "golden_train_log.csv"
GOLDEN_LOG_TANH = Path(__file__).parent / "data" / "golden_train_log_tanh.csv"


def _golden_run_log(tmp_path, activation="relu"):
    """The ``write_log`` bytes of every run of a 7-algorithm, 2-seed
    ``gridsec train`` on the blob datasets with ``activation``, in config
    order, from a subprocess."""
    _, _, ip, up = _save_datasets(tmp_path)
    ini = tmp_path / "exp.ini"
    ini.write_text(f"""\
[experiment]
init_dataset = {ip}
update_dataset = {up}
init_epochs = 40
update_epochs = 40
eval_every = 5
seeds = 0 1
hidden = 8 4
activation = {activation}
""")
    out_dir = tmp_path / "train"
    proc = subprocess.run(
        [sys.executable, "-m", "gridsec.cli", "train", "--config", str(ini),
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, env=unpinned_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return b"".join((out_dir / f"{algorithm}_seed{seed}.log.csv").read_bytes()
                    for algorithm in ALGORITHMS for seed in (0, 1))


def test_golden_training_log(tmp_path):
    """Every logged loss and accuracy of all 7 algorithms equals the stored
    log byte for byte: a change to the training step that moves any
    parameter moves the ``loss`` column's 10 significant digits."""
    assert_golden(_golden_run_log(tmp_path), GOLDEN_LOG)


def test_golden_training_log_tanh(tmp_path):
    """The same for tanh hidden layers, whose derivative the backward pass
    takes from the activations."""
    assert_golden(_golden_run_log(tmp_path, "tanh"), GOLDEN_LOG_TANH)
