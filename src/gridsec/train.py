"""Two-phase online-learning harness.

A run trains a fresh model on the initialization dataset, then resumes the
same parameters *and optimizer state* on the update dataset: moments,
momentum, and the step counter all carry across the phase boundary, because
``run_single`` hands the one ``Optimizer`` object from the first phase to the
second.
Standardization statistics come from the initialization training split and
stay frozen through the update phase.
"""

from __future__ import annotations

import configparser
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import mlp
from .data import Dataset, load_dataset, split_dataset, train_size
from .errors import DatasetError, ExperimentError, OptimizerError, open_text
from .mlp import MlpArchitecture
from .optim import ALGORITHMS, Optimizer, OptimizerConfig, default_config

PHASE_INIT = "Initialization"
PHASE_UPDATE = "Update"


@dataclass
class LogRow:
    phase: str
    epoch: int
    loss: float
    train_accuracy: float
    test_accuracy: float
    diverged: bool = False


@dataclass
class RunResult:
    algorithm: str
    seed: int
    rows: list

    def accuracy_at(self, phase, epoch, split="train"):
        for row in self.rows:
            if row.phase == phase and row.epoch == epoch:
                return row.test_accuracy if split == "test" else row.train_accuracy
        return float("nan")


def run_phase(theta, arch, optimizer, train_xy, test_xy, phase, epochs, eval_every):
    """Execute exactly ``epochs`` optimizer steps on the full batch, logging
    rows named ``phase``. ``theta`` is updated in place.

    Logs every ``eval_every`` epochs plus the first and last. A non-finite
    gradient, parameter or loss ends the phase with a diverged row at that
    epoch instead of raising. Returns (theta, rows).
    """
    x_train, y_train = train_xy
    x_test, y_test = test_xy
    grad_fn = lambda t: mlp.loss_and_gradient(t, arch, x_train, y_train)[1]
    logged = _eval_every_hits(epochs, eval_every)
    rows = []
    for epoch in range(1, epochs + 1):
        try:
            optimizer.step(theta, grad_fn)
            finite = np.all(np.isfinite(theta))
        except OptimizerError:  # the gradient has theta's shape: it is not finite
            finite = False
        if not finite:
            rows.append(LogRow(phase, epoch, float("nan"), float("nan"),
                               float("nan"), diverged=True))
            break
        if epoch in logged:
            train_eval = mlp.evaluate(theta, arch, x_train, y_train)
            test_eval = mlp.evaluate(theta, arch, x_test, y_test)
            diverged = not np.isfinite(train_eval["loss"])
            rows.append(LogRow(phase, epoch, train_eval["loss"],
                               train_eval["accuracy"], test_eval["accuracy"],
                               diverged))
            if diverged:
                break
    return theta, rows


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

    def __post_init__(self):
        """Reject a phase length, checkpoint cadence, split, seed list,
        algorithm list, network shape, activation or optimizer setting, or
        settings for an unused algorithm, before any dataset loads."""
        for key in ("init_epochs", "update_epochs", "eval_every"):
            if getattr(self, key) < 1:
                raise ExperimentError(f"{key} must be >= 1")
        # an unlogged checkpoint epoch would read as diverged in ``summarize``
        phases = zip(("init", "update"), (self.init_epochs, self.update_epochs),
                     checkpoints(self.init_epochs, self.update_epochs))
        for phase, epochs, epoch_list in phases:
            unlogged = sorted(set(epoch_list) - _eval_every_hits(epochs, self.eval_every))
            if unlogged:
                raise ExperimentError(
                    f"eval_every = {self.eval_every} leaves {phase} checkpoint epochs "
                    f"{unlogged} unlogged"
                )
        if not 0.0 < self.train_fraction < 1.0:
            raise ExperimentError("train_fraction must lie in (0, 1)")
        if not self.seeds:
            raise ExperimentError("seeds must not be empty")
        if min(self.seeds) < 0:
            raise ExperimentError(f"seeds must be non-negative, not {min(self.seeds)}")
        if not self.algorithms:
            raise ExperimentError("algorithms must not be empty")
        for key in ("seeds", "algorithms"):
            values = getattr(self, key)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ExperimentError(f"{key} lists {', '.join(map(str, repeated))} more than once")
        try:
            # width 1 stands in for the feature count, which the datasets fix
            MlpArchitecture((1, *self.hidden, 2), self.activation)
        except ValueError as exc:
            hidden = " ".join(map(str, self.hidden))
            raise ExperimentError(
                f"hidden = {hidden}, activation = {self.activation}: {exc}") from None
        for algorithm in self.overrides:
            if algorithm not in self.algorithms:
                raise ExperimentError(f"[{algorithm}] configures an algorithm not in "
                                      f"algorithms = {' '.join(self.algorithms)}")
        for algorithm in self.algorithms:
            try:
                self.optimizer_config(algorithm)
            except OptimizerError as exc:
                raise ExperimentError(f"[{algorithm}] {exc}") from None

    def optimizer_config(self, algorithm) -> OptimizerConfig:
        return default_config(algorithm, **self.overrides.get(algorithm, {}))


def checkpoints(init_epochs, update_epochs):
    """(init epochs, update epochs) that ``summarize`` reports, mirroring the
    halves / quarters of the reference table layout."""
    init = (init_epochs // 2, init_epochs)
    update = tuple(update_epochs * i // 4 for i in range(1, 5))
    return init, update


def _ints(text):
    return tuple(int(v) for v in text.split())


# [experiment] keys with a default in ExperimentConfig, and their readers
_EXPERIMENT_KEYS = {"init_epochs": int, "update_epochs": int, "eval_every": int,
                    "seeds": _ints, "train_fraction": float, "hidden": _ints,
                    "activation": str}
_OPTIMIZER_KEYS = ("learning_rate", "momentum", "beta1", "beta2", "eps")


def _check_keys(section, known):
    """An unknown key is an error naming it, not a silently dropped line."""
    for key in section:
        if key not in known:
            raise ExperimentError(f"[{section.name}] {key}: unknown key")


def _read(section, key, convert):
    """``convert(section[key])``; a value it rejects is an error naming the key."""
    try:
        return convert(section[key])
    except ValueError:
        raise ExperimentError(
            f"[{section.name}] {key}: bad value {section[key]!r}") from None


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
    _check_keys(exp, {"init_dataset", "update_dataset", "algorithms", *_EXPERIMENT_KEYS})
    for key in ("init_dataset", "update_dataset"):
        if key not in exp:
            raise ExperimentError(f"missing {key} in [experiment]")
    algorithms = tuple(exp.get("algorithms", " ".join(ALGORITHMS)).split())
    overrides = {}
    for section in parser.sections():
        if section == "experiment":
            continue
        if section not in ALGORITHMS:
            raise ExperimentError(f"unknown config section [{section}]")
        _check_keys(parser[section], _OPTIMIZER_KEYS)
        overrides[section] = {
            key: _read(parser[section], key, float) for key in parser[section]
        }
    return ExperimentConfig(
        init_dataset=exp["init_dataset"],
        update_dataset=exp["update_dataset"],
        algorithms=algorithms,
        overrides=overrides,
        **{key: _read(exp, key, convert)
           for key, convert in _EXPERIMENT_KEYS.items() if key in exp},
    )


def standardized_splits(init_ds: Dataset, update_ds: Dataset, fraction, seed):
    """Split both datasets and standardize everything with the
    initialization-phase training statistics. Returns (x, y) for the
    initialization train and test splits, then the update ones."""
    splits = (*split_dataset(init_ds, fraction, seed),
              *split_dataset(update_ds, fraction, seed))
    xys = [ds.matrix() for ds in splits]
    stats = mlp.fit_standardization(xys[0][0])
    return tuple((stats.apply(x), y) for x, y in xys)


def run_single(cfg: ExperimentConfig, algorithm, seed, splits) -> RunResult:
    """One algorithm, one seed: initialization phase then update phase with
    continued optimizer state, on the seed's ``standardized_splits``. A run
    that diverges in the initialization phase has no update phase."""
    init_train, init_test, upd_train, upd_test = splits
    arch = MlpArchitecture(
        (init_train[0].shape[1], *cfg.hidden, 2), cfg.activation
    )
    theta = mlp.init_params(arch, seed)
    optimizer = Optimizer(cfg.optimizer_config(algorithm), arch.n_params)

    theta, init_rows = run_phase(theta, arch, optimizer, init_train, init_test,
                                 PHASE_INIT, cfg.init_epochs, cfg.eval_every)
    if init_rows[-1].diverged:  # the update phase would start from a non-finite loss
        return RunResult(algorithm, seed, init_rows)
    theta, upd_rows = run_phase(theta, arch, optimizer, upd_train, upd_test,
                                PHASE_UPDATE, cfg.update_epochs, cfg.eval_every)
    return RunResult(algorithm, seed, init_rows + upd_rows)


def run_experiment(cfg: ExperimentConfig):
    """All configured algorithms x seeds; identical init and data order per
    seed across algorithms, with the splits made once per seed. Returns
    {algorithm: [RunResult per seed]}, in config order."""
    try:
        init_ds = load_dataset(cfg.init_dataset)
        update_ds = load_dataset(cfg.update_dataset)
    except OSError as exc:
        raise ExperimentError(f"cannot read dataset: {exc}") from None
    if init_ds.feature_names != update_ds.feature_names:
        raise ExperimentError(
            f"{cfg.init_dataset} and {cfg.update_dataset} have different feature columns")
    for path, ds in ((cfg.init_dataset, init_ds), (cfg.update_dataset, update_ds)):
        try:
            train_size(len(ds.samples), cfg.train_fraction)
        except DatasetError as exc:
            raise ExperimentError(f"{path}: {exc}") from None
    results = {algorithm: [] for algorithm in cfg.algorithms}
    for seed in cfg.seeds:
        splits = standardized_splits(init_ds, update_ds, cfg.train_fraction, seed)
        for algorithm in cfg.algorithms:
            results[algorithm].append(run_single(cfg, algorithm, seed, splits))
    return results


def _eval_every_hits(epochs, eval_every):
    """Epochs a phase logs when it does not diverge: the first, the last and
    every multiple of ``eval_every``."""
    return {1, epochs, *range(eval_every, epochs + 1, eval_every)}


def summarize(results, epochs, split="train"):
    """Median accuracy across seeds at the six checkpoint epochs ``epochs``,
    an (init, update) pair from ``checkpoints``.

    Returns (header, rows): header like
    ['algorithm', 'init_1000', 'init_2000', 'update_1000', ...].
    Checkpoints must land on logged epochs; pick eval_every accordingly.
    """
    init_cp, update_cp = epochs
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


# --- log files --------------------------------------------------------------

LOG_HEADER = "algorithm,seed,phase,epoch,loss,train_accuracy,test_accuracy,diverged"


def write_log(path, run: RunResult):
    """Delimited text, one row per logged epoch; identical runs give identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LOG_HEADER + "\n")
        for r in run.rows:
            fh.write(
                f"{run.algorithm},{run.seed},{r.phase},{r.epoch},{r.loss:.10e},"
                f"{r.train_accuracy:.6f},{r.test_accuracy:.6f},{int(r.diverged)}\n"
            )


def _follows(prev, row):
    """Whether ``write_log`` can write ``row`` after ``prev`` (None before the
    first row): the initialization phase, then the update phase, with rising
    epochs from 1 in each, and nothing after a diverged row; a row that has
    not diverged has a finite loss and accuracies in [0, 1]."""
    phases = (PHASE_INIT, PHASE_UPDATE)
    if row.phase not in phases:
        return False
    if not row.diverged and not (np.isfinite(row.loss) and 0.0 <= row.train_accuracy <= 1.0
                                 and 0.0 <= row.test_accuracy <= 1.0):
        return False
    if prev is None:
        return row.epoch >= 1
    if prev.diverged or phases.index(row.phase) < phases.index(prev.phase):
        return False
    return row.epoch > (prev.epoch if prev.phase == row.phase else 0)


def read_log(path) -> RunResult:
    """Read a log written by ``write_log``: one run, so every row carries the
    first row's algorithm and seed, and each row can follow the one before
    it (``_follows``)."""
    with open_text(path) as fh:
        header = fh.readline().strip()
        if header != LOG_HEADER:
            raise ExperimentError(f"{path}: not a training log")
        rows, runs = [], set()
        for line_no, line in enumerate(fh, start=2):
            try:  # a wrong column count fails the unpacking
                (algorithm, seed, phase, epoch, loss, train_acc, test_acc,
                 diverged) = line.strip().split(",")
                runs.add((algorithm, int(seed)))  # a log holds one run
                row = LogRow(phase, int(epoch), float(loss), float(train_acc),
                             float(test_acc), diverged=diverged == "1")
                if len(runs) > 1 or diverged not in ("0", "1") or not _follows(
                        rows[-1] if rows else None, row):
                    raise ValueError(line)
                rows.append(row)
            except ValueError:
                raise ExperimentError(f"{path}:{line_no}: bad log row {line.strip()!r}") from None
    if not rows:
        raise ExperimentError(f"{path}: no log rows")
    return RunResult(*runs.pop(), rows)
