import numpy as np
import pytest

from gridsec import mlp
from gridsec.data import Dataset, LabeledSample, SampleMeta
from gridsec.errors import ExperimentError
from gridsec.mlp import MlpArchitecture
from gridsec.optim import Optimizer, OptimizerConfig, default_config
from gridsec.security import Label
from gridsec.train import (
    PHASE_INIT,
    PHASE_UPDATE,
    ExperimentConfig,
    PhasePlan,
    load_train_checkpoint,
    parse_experiment_config,
    read_log,
    run_experiment,
    run_phase,
    run_single,
    save_train_checkpoint,
    summarize,
    write_log,
)


def make_blobs(n, seed, shift=2.0):
    """Two linearly separable Gaussian blobs as a Dataset."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        label = Label.SECURE if i % 2 == 0 else Label.INSECURE
        center = -shift if label is Label.SECURE else shift
        x = rng.normal(center, 1.0, size=3)
        samples.append(LabeledSample(x, label, SampleMeta((), None, ())))
    return Dataset(samples=samples, feature_names=["a", "b", "c"])


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
    theta1, rows, ok = run_phase(theta0.copy(), arch, opt, (x, y), (x, y),
                                 PhasePlan("Initialization", 1))
    assert ok
    assert np.allclose(theta1, theta0 - 0.05 * g, atol=1e-15)
    assert len(rows) == 1 and rows[0].epoch == 1


def test_run_phase_log_cadence():
    ds = make_blobs(30, 1)
    x, y = xy(ds)
    arch = MlpArchitecture((3, 4, 2), "tanh")
    theta = mlp.init_params(arch, seed=0)
    opt = Optimizer(default_config("sgd"), arch.n_params)
    _, rows, _ = run_phase(theta, arch, opt, (x, y), (x, y),
                           PhasePlan("Initialization", 25, eval_every=10))
    assert [r.epoch for r in rows] == [1, 10, 20, 25]


def test_run_phase_detects_divergence():
    ds = make_blobs(10, 2)
    x, y = xy(ds)
    arch = MlpArchitecture((3, 4, 2), "relu")
    theta = mlp.init_params(arch, seed=0)
    # absurd learning rate overflows the very first update
    opt = Optimizer(OptimizerConfig("sgd", learning_rate=1e305), arch.n_params)
    with np.errstate(over="ignore", invalid="ignore"):
        _, rows, _ = run_phase(theta, arch, opt, (x, y), (x, y),
                               PhasePlan("Initialization", 50, eval_every=10))
    assert rows[-1].diverged
    assert rows[-1].epoch < 50


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
    a = run_single(cfg, "adam", 0, init, update)
    b = run_single(cfg, "adam", 0, init, update)
    assert [(r.phase, r.epoch, r.loss) for r in a.rows] == \
           [(r.phase, r.epoch, r.loss) for r in b.rows]
    assert a.boundary_checksum_ok and b.boundary_checksum_ok


def test_run_single_covers_both_phases(tmp_path):
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up)
    result = run_single(cfg, "sgd", 0, init, update)
    phases = {r.phase for r in result.rows}
    assert phases == {PHASE_INIT, PHASE_UPDATE}
    assert result.boundary_checksum_ok
    # accuracy lookup hits logged rows
    assert np.isfinite(result.accuracy_at(PHASE_INIT, 40))
    assert np.isfinite(result.accuracy_at(PHASE_UPDATE, 40, split="test"))


def test_optimizer_state_continuity_matters(tmp_path):
    """Resetting the optimizer at the boundary changes the trajectory."""
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up, algorithms=("adam",))
    continued = run_single(cfg, "adam", 0, init, update)

    # replay manually with a fresh optimizer for the update phase
    from gridsec.train import _standardized_splits

    it, ite, ut, ute, _ = _standardized_splits(init, update, 0.6, 0)
    arch = MlpArchitecture((3, 6, 2), "tanh")
    theta = mlp.init_params(arch, 0)
    opt = Optimizer(cfg.optimizer_config("adam"), arch.n_params)
    theta, _, _ = run_phase(theta, arch, opt, it, ite, PhasePlan(PHASE_INIT, 40, 10))
    fresh = Optimizer(cfg.optimizer_config("adam"), arch.n_params)
    theta_fresh, rows_fresh, _ = run_phase(
        theta, arch, fresh, ut, ute, PhasePlan(PHASE_UPDATE, 40, 10))
    cont_final = [r for r in continued.rows if r.phase == PHASE_UPDATE][-1]
    assert rows_fresh[-1].loss != pytest.approx(cont_final.loss, abs=1e-15)


def test_checkpoint_resume_bitwise(tmp_path):
    """Saving at the phase boundary and resuming reproduces the run."""
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up)
    from gridsec.train import _standardized_splits

    it, ite, ut, ute, stats = _standardized_splits(init, update, 0.6, 0)
    arch = MlpArchitecture((3, 6, 2), "tanh")
    theta = mlp.init_params(arch, 0)
    opt = Optimizer(cfg.optimizer_config("adam"), arch.n_params)
    theta, _, _ = run_phase(theta, arch, opt, it, ite, PhasePlan(PHASE_INIT, 40, 10))

    path = tmp_path / "boundary.npz"
    save_train_checkpoint(path, theta, arch, stats, opt, epoch=40)
    theta2, arch2, stats2, epoch, opt2 = load_train_checkpoint(
        path, cfg.optimizer_config("adam"))
    assert epoch == 40
    assert opt2.checksum() == opt.checksum()

    a, rows_a, _ = run_phase(theta, arch, opt, ut, ute, PhasePlan(PHASE_UPDATE, 40, 10))
    b, rows_b, _ = run_phase(theta2, arch2, opt2, ut, ute, PhasePlan(PHASE_UPDATE, 40, 10))
    assert np.array_equal(a, b)
    assert [r.loss for r in rows_a] == [r.loss for r in rows_b]


def test_log_round_trip(tmp_path):
    init, update, ip, up = _save_datasets(tmp_path)
    cfg = small_config(ip, up)
    run = run_single(cfg, "sgd", 3, init, update)
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
    results = {alg: [run_single(cfg, alg, s, init, update) for s in (0, 1)]
               for alg in cfg.algorithms}
    header, rows = summarize(results, cfg)
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
    assert cfg.checkpoints() == ((250, 500), (250, 500, 750, 1000))


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


def test_run_experiment_checks_code_built_config(tmp_path):
    _, _, ip, up = _save_datasets(tmp_path)
    # init checkpoints are epochs 20 and 40; only 1, 30 and 40 are logged
    cfg = small_config(ip, up, init_epochs=40, update_epochs=40, eval_every=30)
    with pytest.raises(ExperimentError, match=r"leaves init checkpoint epochs \[20\] unlogged"):
        run_experiment(cfg)
    with pytest.raises(ExperimentError, match="eval_every must be >= 1"):
        run_experiment(small_config(ip, up, eval_every=0))
    results = run_experiment(small_config(ip, up, algorithms=("sgd",)))
    _, rows = summarize(results, small_config(ip, up))
    assert "div" not in rows[0]
