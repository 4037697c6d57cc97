"""Two-phase online-learning harness.

A run trains a fresh model on the initialization dataset, then resumes the
same parameters *and optimizer state* on the update dataset: moments,
momentum, and the step counter all carry across the phase boundary.
Standardization statistics come from the initialization training split and
stay frozen through the update phase.
"""

from __future__ import annotations

import configparser
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import mlp
from .data import Dataset, load_dataset, split_dataset
from .errors import ExperimentError
from .mlp import MlpArchitecture
from .optim import ALGORITHMS, Optimizer, OptimizerConfig, default_config

PHASE_INIT = "Initialization"
PHASE_UPDATE = "Update"


@dataclass(frozen=True)
class PhasePlan:
    name: str
    epochs: int
    eval_every: int = 100

    def __post_init__(self):
        if self.epochs < 1:
            raise ExperimentError("epochs must be >= 1")
        if self.eval_every < 1:
            raise ExperimentError("eval_every must be >= 1")


@dataclass
class LogRow:
    phase: str
    epoch: int
    loss: float
    train_accuracy: float
    test_accuracy: float
    wall_ms: float = 0.0
    diverged: bool = False


@dataclass
class RunResult:
    algorithm: str
    seed: int
    rows: list
    boundary_checksum_ok: bool = True

    def accuracy_at(self, phase, epoch, split="train"):
        for row in self.rows:
            if row.phase == phase and row.epoch == epoch:
                return row.test_accuracy if split == "test" else row.train_accuracy
        return float("nan")


def run_phase(theta, arch, optimizer, train_xy, test_xy, plan: PhasePlan,
              expected_checksum=None):
    """Execute exactly plan.epochs optimizer steps on the full batch.

    Logs every eval_every epochs plus the first and last. A non-finite loss
    marks the remaining epochs as divergent instead of raising. Returns
    (theta, rows, checksum_ok) where checksum_ok reports whether the
    incoming optimizer state matched ``expected_checksum``.
    """
    x_train, y_train = train_xy
    x_test, y_test = test_xy
    checksum_ok = True
    if expected_checksum is not None:
        checksum_ok = optimizer.checksum() == expected_checksum

    grad_fn = lambda t: mlp.loss_and_gradient(t, arch, x_train, y_train)[1]
    logged = _eval_every_hits(plan.epochs, plan.eval_every)
    rows = []
    start = time.perf_counter()
    for epoch in range(1, plan.epochs + 1):
        theta, _ = optimizer.step(theta, grad_fn)
        should_log = epoch in logged
        if not np.all(np.isfinite(theta)):
            rows.append(LogRow(plan.name, epoch, float("nan"), float("nan"),
                               float("nan"), (time.perf_counter() - start) * 1e3,
                               diverged=True))
            break
        if should_log:
            train_eval = mlp.evaluate(theta, arch, x_train, y_train)
            test_eval = mlp.evaluate(theta, arch, x_test, y_test)
            wall_ms = (time.perf_counter() - start) * 1e3
            diverged = not np.isfinite(train_eval["loss"])
            rows.append(LogRow(plan.name, epoch, train_eval["loss"],
                               train_eval["accuracy"], test_eval["accuracy"],
                               wall_ms, diverged))
            if diverged:
                break
    return theta, rows, checksum_ok


@dataclass
class ExperimentConfig:
    init_dataset: str
    update_dataset: str
    init_epochs: int = 2000
    update_epochs: int = 4000
    eval_every: int = 100
    seeds: tuple = (0,)
    train_fraction: float = 0.6
    hidden: tuple = (64, 32)
    activation: str = "relu"
    algorithms: tuple = ALGORITHMS
    overrides: dict = field(default_factory=dict)  # per-algorithm hyperparameters

    def optimizer_config(self, algorithm) -> OptimizerConfig:
        return default_config(algorithm, **self.overrides.get(algorithm, {}))

    def checkpoints(self):
        """(init epochs, update epochs) mirroring the halves / quarters of
        the reference table layout."""
        init = (self.init_epochs // 2, self.init_epochs)
        update = tuple(self.update_epochs * i // 4 for i in range(1, 5))
        return init, update


def parse_experiment_config(text: str) -> ExperimentConfig:
    """INI-style experiment file; [experiment] section plus optional
    per-algorithm hyperparameter sections."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ExperimentError(f"bad experiment config: {exc}") from None
    if "experiment" not in parser:
        raise ExperimentError("missing [experiment] section")
    exp = parser["experiment"]
    for key in ("init_dataset", "update_dataset"):
        if key not in exp:
            raise ExperimentError(f"missing {key} in [experiment]")
    algorithms = tuple(exp.get("algorithms", " ".join(ALGORITHMS)).split())
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ExperimentError(
                f"unknown algorithm {alg!r}; valid: {', '.join(ALGORITHMS)}"
            )
    overrides = {}
    key_types = {"learning_rate": float, "momentum": float, "beta1": float,
                 "beta2": float, "eps": float}
    for section in parser.sections():
        if section == "experiment":
            continue
        if section not in ALGORITHMS:
            raise ExperimentError(f"unknown config section [{section}]")
        overrides[section] = {
            key: key_types[key](value)
            for key, value in parser[section].items()
            if key in key_types
        }
    cfg = ExperimentConfig(
        init_dataset=exp["init_dataset"],
        update_dataset=exp["update_dataset"],
        init_epochs=exp.getint("init_epochs", 2000),
        update_epochs=exp.getint("update_epochs", 4000),
        eval_every=exp.getint("eval_every", 100),
        seeds=tuple(int(s) for s in exp.get("seeds", "0").split()),
        train_fraction=exp.getfloat("train_fraction", 0.6),
        hidden=tuple(int(h) for h in exp.get("hidden", "64 32").split()),
        activation=exp.get("activation", "relu"),
        algorithms=algorithms,
        overrides=overrides,
    )
    _check_checkpoints(cfg)
    return cfg


def _check_checkpoints(cfg: ExperimentConfig):
    """Reject an ``eval_every`` that leaves a checkpoint epoch unlogged:
    ``summarize`` would report those cells as diverged."""
    if cfg.eval_every < 1:
        raise ExperimentError("eval_every must be >= 1")
    phases = zip(("init", "update"), (cfg.init_epochs, cfg.update_epochs), cfg.checkpoints())
    for phase, epochs, checkpoints in phases:
        unlogged = sorted(set(checkpoints) - _eval_every_hits(epochs, cfg.eval_every))
        if unlogged:
            raise ExperimentError(
                f"eval_every = {cfg.eval_every} leaves {phase} checkpoint epochs "
                f"{unlogged} unlogged"
            )


def _standardized_splits(init_ds: Dataset, update_ds: Dataset, fraction, seed):
    """Split both datasets and standardize everything with the
    initialization-phase training statistics."""
    init_train, init_test = split_dataset(init_ds, fraction, seed)
    upd_train, upd_test = split_dataset(update_ds, fraction, seed)
    x0, y0 = init_train.matrix()
    stats = mlp.fit_standardization(x0)
    as_xy = lambda ds: (stats.apply(ds.matrix()[0]), ds.matrix()[1])
    return (
        (stats.apply(x0), y0), as_xy(init_test),
        as_xy(upd_train), as_xy(upd_test),
        stats,
    )


def run_single(cfg: ExperimentConfig, algorithm, seed, init_ds, update_ds) -> RunResult:
    """One algorithm, one seed: initialization phase then update phase with
    continued optimizer state."""
    init_train, init_test, upd_train, upd_test, _ = _standardized_splits(
        init_ds, update_ds, cfg.train_fraction, seed
    )
    arch = MlpArchitecture(
        (init_train[0].shape[1], *cfg.hidden, 2), cfg.activation
    )
    theta = mlp.init_params(arch, seed)
    optimizer = Optimizer(cfg.optimizer_config(algorithm), arch.n_params)

    theta, init_rows, _ = run_phase(
        theta, arch, optimizer, init_train, init_test,
        PhasePlan(PHASE_INIT, cfg.init_epochs, cfg.eval_every),
    )
    boundary = optimizer.checksum()
    theta, upd_rows, checksum_ok = run_phase(
        theta, arch, optimizer, upd_train, upd_test,
        PhasePlan(PHASE_UPDATE, cfg.update_epochs, cfg.eval_every),
        expected_checksum=boundary,
    )
    return RunResult(algorithm, seed, init_rows + upd_rows, checksum_ok)


def run_experiment(cfg: ExperimentConfig):
    """All configured algorithms x seeds; identical init and data order per
    seed across algorithms. Returns {algorithm: [RunResult per seed]}."""
    _check_checkpoints(cfg)
    try:
        init_ds = load_dataset(cfg.init_dataset)
        update_ds = load_dataset(cfg.update_dataset)
    except OSError as exc:
        raise ExperimentError(f"cannot read dataset: {exc}") from None
    results = {}
    for algorithm in cfg.algorithms:
        results[algorithm] = [
            run_single(cfg, algorithm, seed, init_ds, update_ds)
            for seed in cfg.seeds
        ]
    return results


def _eval_every_hits(epochs, eval_every):
    """Epochs a phase logs when it does not diverge: the first, the last and
    every multiple of ``eval_every``."""
    hits = {1, epochs}
    hits.update(range(eval_every, epochs + 1, eval_every))
    return hits


def summarize(results, cfg: ExperimentConfig, split="train"):
    """Median accuracy across seeds at the six checkpoint epochs.

    Returns (header, rows): header like
    ['algorithm', 'init_1000', 'init_2000', 'update_1000', ...].
    Checkpoints must land on logged epochs; pick eval_every accordingly.
    """
    init_cp, update_cp = cfg.checkpoints()
    header = (["algorithm"]
              + [f"init_{e}" for e in init_cp]
              + [f"update_{e}" for e in update_cp])
    rows = []
    for algorithm, runs in results.items():
        cells = [algorithm]
        for phase, eps in ((PHASE_INIT, init_cp), (PHASE_UPDATE, update_cp)):
            for e in eps:
                values = [r.accuracy_at(phase, e, split) for r in runs]
                finite = [v for v in values if np.isfinite(v)]
                cells.append(f"{statistics.median(finite):.4f}" if finite else "div")
        rows.append(cells)
    return header, rows


# --- log and checkpoint files ----------------------------------------------

LOG_HEADER = "algorithm,seed,phase,epoch,loss,train_accuracy,test_accuracy,diverged"


def write_log(path, run: RunResult):
    """Delimited text, one row per logged epoch. Wall-clock time is kept out
    of the file so identical runs produce identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOG_HEADER + "\n")
        for r in run.rows:
            fh.write(
                f"{run.algorithm},{run.seed},{r.phase},{r.epoch},{r.loss:.10e},"
                f"{r.train_accuracy:.6f},{r.test_accuracy:.6f},{int(r.diverged)}\n"
            )


def read_log(path) -> RunResult:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != LOG_HEADER:
            raise ExperimentError(f"{path}: not a training log")
        rows = []
        algorithm, seed = "", 0
        for line in fh:
            cols = line.strip().split(",")
            algorithm, seed = cols[0], int(cols[1])
            rows.append(LogRow(cols[2], int(cols[3]), float(cols[4]),
                               float(cols[5]), float(cols[6]),
                               diverged=bool(int(cols[7]))))
    return RunResult(algorithm, seed, rows)


def save_train_checkpoint(path, theta, arch, stats, optimizer, epoch):
    mlp.save_checkpoint(path, theta, arch, stats, epoch,
                        extra_arrays=optimizer.state_arrays())


def load_train_checkpoint(path, cfg_for_optimizer: OptimizerConfig):
    theta, arch, stats, epoch, extra = mlp.load_checkpoint(path)
    optimizer = Optimizer(cfg_for_optimizer, theta.shape[0])
    optimizer.load_state_arrays(extra)
    return theta, arch, stats, epoch, optimizer
