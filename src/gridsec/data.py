"""Operating-condition generation, feature extraction, labeling, persistence.

An operating condition (OC) is a load-scaled, optionally topology-changed
copy of the base case with its converged power-flow solution. Each OC is one
classifier sample: a row of measurements in ``arrays.MEASUREMENTS``' order,
classed by screening the OC against the CSC list. The feature names and the
load-bus positions that a row reads are made once per base case
(``NetworkCase.feature_layout``), not once per sample. The screen's
post-contingency solves warm-start from the OC's solution (fewer
Newton-Raphson iterations than a flat start, the same labels) and it ranks
the CSCs by that solution's flows.
``build_dataset`` checks its config once (a CSC or TC that is out of service
or listed twice, a TC that islands the base network and a branch that is
both a TC and a CSC are rejected), then maps its samples over ``workers.map_units``.
Train/test splits and their standardization are made in ``train.standardized_splits``.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .arrays import MEASUREMENTS
from .errors import DatasetError, open_text
from .model import NetworkCase, apply_outage, reschedule_generation, scale_loads
from .powerflow import PowerFlowSolution, solve_powerflow
from .security import Label, run_contingency_screen
from .workers import map_units

__all__ = [
    "GenerationConfig", "Dataset", "generate_oc", "sample_tcs",
    "extract_features", "feature_names", "build_dataset",
    "save_dataset", "load_dataset",
]


@dataclass(frozen=True)
class GenerationConfig:
    n_samples: int
    scale_range: tuple = (0.8, 1.05)
    tc_mix: float = 0.0  # fraction of samples carrying a topology change
    tc_list: tuple = ()  # branch labels eligible as TCs
    csc_list: tuple = ()  # branch labels screened for the label
    seed: int = 0
    max_rejects: int = 50  # non-convergent draws a sample may reject; one more raises

    def digest(self):
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


Row = namedtuple("Row", "features label")


@dataclass
class Dataset:
    """One sample per row: ``x`` (n x d float64) holds the measurements and
    ``y`` (n int64) the class index, 0 = Secure and 1 = Insecure. A dataset
    file writes the label the other way round, 1 = Secure and 0 = Insecure."""

    x: np.ndarray
    y: np.ndarray
    feature_names: list
    provenance: str = ""
    rejections: int = 0
    widened_scale_hi: float | None = None  # set when the class-presence guard kicked in

    def matrix(self):
        """(x, y) themselves, not copies."""
        return self.x, self.y

    @property
    def samples(self):
        """The rows as ``Row(features, label)``: ``features`` is a view of the
        row of ``x`` and ``label`` a ``Label``. The benchmark reads rows this
        way; the package itself reads ``x`` and ``y``."""
        return [Row(f, Label.SECURE if c == 0 else Label.INSECURE)
                for f, c in zip(self.x, self.y.tolist())]

    def __len__(self):
        return len(self.y)


def feature_names(case: NetworkCase) -> list:
    """Measurement layout fixed by the base topology, a new list per call:
    ``MEASUREMENTS``' blocks, each bus block by load bus id, each branch
    block by in-service branch."""
    return list(case.feature_layout.names)


def extract_features(solution: PowerFlowSolution, base_case: NetworkCase) -> np.ndarray:
    """Deterministic measurement vector; branches outaged in this OC but in
    service in the base case contribute 0.0, keeping the width fixed."""
    if not solution.converged:
        raise DatasetError("cannot extract features from a non-converged solution")
    pos, live = base_case.feature_layout.load_pos, base_case.branch_table.pos
    return np.concatenate([getattr(solution, field)[pos if by_bus else live]
                           for _, field, by_bus in MEASUREMENTS])


def _integer(value):
    """Whether ``value`` is an int or a numpy int, as counts and seeds must be."""
    return hasattr(type(value), "__index__")


def generate_oc(
    case: NetworkCase,
    rng_seed,
    scale_range=GenerationConfig.scale_range,
    tc: str | None = None,
    max_rejects: int = GenerationConfig.max_rejects,
):
    """Draw one converged operating condition.

    Every load's P and Q scale by an independent uniform factor in the
    range, whose bounds must be non-negative and finite; aggregate load
    change is rescheduled across non-slack generators. Non-convergent draws
    are rejected and redrawn with the next seed in the (rng_seed, attempt)
    stream. Returns (scaled case, solution, the drawn load factors,
    rejections).
    """
    lo, hi = scale_range
    if not 0.0 <= lo <= hi < np.inf:
        raise DatasetError(f"bad scale range [{lo}, {hi}]")
    if not (_integer(max_rejects) and max_rejects >= 0):
        raise DatasetError(f"max_rejects must be a non-negative integer, not {max_rejects!r}")
    base_p, _ = case.total_load()
    for attempt in range(max_rejects + 1):
        rng = np.random.default_rng((*np.atleast_1d(rng_seed).tolist(), attempt))
        factors = rng.uniform(lo, hi, size=len(case.loads))
        oc = scale_loads(case, factors)
        new_p, _ = oc.total_load()
        oc = reschedule_generation(oc, new_p - base_p)
        if tc is not None:
            oc = apply_outage(oc, oc.find_branch(tc))
        solution = solve_powerflow(oc)
        if solution.converged:
            return oc, solution, factors, attempt
    raise DatasetError(
        f"infeasible generation config: {max_rejects + 1} draws in a row did not converge"
    )


def build_dataset(case: NetworkCase, config: GenerationConfig) -> Dataset:
    """Generate, label, and assemble a dataset; bit-reproducible from seed.

    While every sample is Secure, the upper scale bound is widened by +0.05
    (up to 3 times) and generation reruns (heavier loads cannot help an
    all-Insecure set); the returned dataset reports the widened bound.
    """
    for field in ("n_samples", "seed"):
        if not _integer(getattr(config, field)):
            raise DatasetError(f"{field} must be an integer, not {getattr(config, field)!r}")
    if config.n_samples < 1:
        raise DatasetError("n_samples must be >= 1")
    if not 0.0 <= config.tc_mix <= 1.0:
        raise DatasetError(f"tc_mix must lie in [0, 1], not {config.tc_mix}")
    if config.seed < 0:
        raise DatasetError(f"seed must be non-negative, not {config.seed}")
    if config.tc_mix > 0 and not config.tc_list:
        raise DatasetError("tc_mix > 0 needs a non-empty tc_list")
    if not config.csc_list:
        raise DatasetError("no contingencies configured")
    _check_lists(case, config)
    tcs = sample_tcs(config)

    def label(i):  # sample i's (row, class, rejected draws), from (seed, i), tcs[i], run alone
        oc, solution, _, rejects = generate_oc(case, (config.seed, i), run.scale_range,
                                               tc=tcs[i], max_rejects=config.max_rejects)
        insecure = run_contingency_screen(oc, solution, config.csc_list).label is Label.INSECURE
        return extract_features(solution, case), insecure, rejects

    def lost(status, samples):  # a worker that ended without results
        return DatasetError(f"a labelling worker ended with status {status} and no results "
                            f"for samples {', '.join(map(str, samples))}")
    run = config
    for widenings in range(4):  # one pass, then up to 3 widened ones
        if widenings:
            hi = round(run.scale_range[1] + 0.05, 10)
            run = replace(config, scale_range=(config.scale_range[0], hi))
        rows, classes, rejects = zip(*map_units(label, range(config.n_samples), lost))
        y = np.array(classes, dtype=np.int64)
        if y.any() or len(y) < 2:
            break
    return Dataset(np.array(rows, dtype=float), y, feature_names(case),
                   provenance=run.digest(), rejections=sum(rejects),
                   widened_scale_hi=run.scale_range[1] if widenings else None)


def sample_tcs(config: GenerationConfig) -> list:
    """Each sample's topology change, a ``tc_list`` label or None. Exactly
    ``round(tc_mix * n_samples)`` samples, chosen by the seed, carry one,
    drawn uniformly from ``tc_list`` by the sample's own (seed, index) stream."""
    n = config.n_samples
    pick = np.random.default_rng((config.seed, 0x7C))
    tcs = [None] * n
    for i in pick.choice(n, size=int(round(config.tc_mix * n)), replace=False).tolist():
        draw = np.random.default_rng((config.seed, 0x7C, i)).integers(len(config.tc_list))
        tcs[i] = config.tc_list[int(draw)]
    return tcs


def _positions(case: NetworkCase, names, kind):
    """Branch position -> label for a CSC or TC list; a branch that is out of
    service, or listed twice under either orientation, is a ``DatasetError``."""
    ks = [case.find_branch(name) for name in names]
    found = {}
    for name, k, live in zip(names, ks, case.branch_table.in_service(ks).tolist()):
        if not live:
            raise DatasetError(f"{kind} {name} from the {kind} list is already out of service")
        if k in found:
            raise DatasetError(f"{kind} {name} from the {kind} list repeats {found[k]}")
        found[k] = name
    return found


def _check_lists(case: NetworkCase, config: GenerationConfig):
    """Reject, before sampling, a CSC or TC that is out of service or listed
    twice, a TC that islands the base network, and a branch that is both a
    TC and a CSC: an out-of-service or islanding TC cannot be drawn, and a
    TC that is also a CSC would leave its samples nothing of that
    contingency to screen."""
    cscs = _positions(case, config.csc_list, "CSC")
    cuts = case.topology.cuts
    for k, tc in _positions(case, config.tc_list, "TC").items():
        if k in cuts:
            raise DatasetError(f"TC {tc} from the TC list islands the network")
        if k in cscs:
            raise DatasetError(f"branch {tc} is both a TC and a CSC ({cscs[k]})")


def save_dataset(ds: Dataset, path, config: GenerationConfig | None = None):
    """CSV with feature_names + 'label' header (1 = Secure, 0 = Insecure),
    plus a key-value .meta companion."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.feature_names + ["label"]) + "\n")
        for row, c in zip(ds.x, ds.y.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + (",1\n" if c == 0 else ",0\n"))
    meta_path = str(path) + ".meta"
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"provenance: {ds.provenance}\n")
        fh.write(f"n_samples: {len(ds)}\n")
        fh.write(f"rejections: {ds.rejections}\n")
        if ds.widened_scale_hi is not None:
            fh.write(f"widened_scale_hi: {ds.widened_scale_hi}\n")
        if config is not None:
            fh.write(f"seed: {config.seed}\n")
            fh.write(f"scale_range: {config.scale_range[0]} {config.scale_range[1]}\n")
            fh.write(f"tc_mix: {config.tc_mix}\n")


def load_dataset(path) -> Dataset:
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if not header or header[-1] != "label":
            raise DatasetError(f"{path}: not a dataset file (missing label column)")
        names = header[:-1]
        if not names:
            raise DatasetError(f"{path}: no feature columns")
        seen = {"label"}
        for col, name in enumerate(names, start=1):
            if not name or name in seen:
                what = f"repeats feature name {name!r}" if name else "has an empty feature name"
                raise DatasetError(f"{path}: column {col} {what}")
            seen.add(name)
        rows, y = [], []
        for line_no, line in enumerate(fh, start=2):
            cols = line.rstrip("\n").split(",")
            if len(cols) != len(header):
                raise DatasetError(f"{path}:{line_no}: expected {len(header)} columns")
            try:
                features = np.array([float(c) for c in cols[:-1]])
            except ValueError:
                raise DatasetError(f"{path}:{line_no}: non-numeric feature") from None
            if not np.all(np.isfinite(features)):
                raise DatasetError(f"{path}:{line_no}: non-finite feature")
            if cols[-1] not in ("0", "1"):
                raise DatasetError(f"{path}:{line_no}: label {cols[-1]!r} is not 0 or 1")
            rows.append(features)
            y.append(0 if cols[-1] == "1" else 1)
    x = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return Dataset(x, np.array(y, dtype=np.int64), names)
