"""Operating-condition generation, feature extraction, labeling, persistence.

An operating condition (OC) is a load-scaled, optionally topology-changed
copy of the base case together with its converged power-flow solution. Each
OC becomes one classifier sample: a fixed-layout measurement vector plus the
Secure/Insecure outcome of screening it against the CSC list. The screen's
post-contingency solves warm-start from the OC's solution, which needs fewer
Newton-Raphson iterations than a flat start and reaches the same labels, and
the screen ranks the CSCs by that solution's flows. A TC that islands the
base network or is also a CSC is rejected before sampling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DatasetError, open_text
from .model import NetworkCase, apply_outage, reschedule_generation, scale_loads
from .powerflow import PowerFlowSolution, solve_powerflow
from .security import Label, OperatingLimits, run_contingency_screen

__all__ = [
    "GenerationConfig", "LabeledSample", "Dataset", "generate_oc",
    "extract_features", "feature_names", "build_dataset", "split_dataset",
    "train_size", "save_dataset", "load_dataset",
]


@dataclass(frozen=True)
class GenerationConfig:
    n_samples: int
    scale_range: tuple = (0.8, 1.05)
    tc_mix: float = 0.0  # fraction of samples carrying a topology change
    tc_list: tuple = ()  # branch labels eligible as TCs
    csc_list: tuple = ()  # branch labels screened for the label
    seed: int = 0
    max_rejects: int = 50  # consecutive non-convergent draws per sample

    def digest(self):
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


@dataclass
class SampleMeta:
    scale_factors: tuple
    tc: str | None
    seed: tuple


@dataclass
class LabeledSample:
    features: np.ndarray
    label: Label
    meta: SampleMeta


@dataclass
class Dataset:
    samples: list
    feature_names: list
    provenance: str = ""
    rejections: int = 0
    widened_scale_hi: float | None = None  # set when the class-presence guard kicked in

    def matrix(self):
        """(X, y) arrays; y uses 0 = Secure, 1 = Insecure class indices."""
        x = np.array([s.features for s in self.samples], dtype=float)
        y = np.array([0 if s.label is Label.SECURE else 1 for s in self.samples])
        return x, y

    def __len__(self):
        return len(self.samples)


def _load_bus_positions(case: NetworkCase):
    """Positions of buses that carry load in the base case, ascending id."""
    idx = case.bus_index()
    load_ids = sorted({l.bus for l in case.loads})
    return [idx[i] for i in load_ids], load_ids


def feature_names(case: NetworkCase) -> list:
    """Measurement layout fixed by the base topology.

    [v_mag per load bus] ++ [v_ang per load bus] ++ [i_mag from-end per
    in-service branch] ++ [p_from per branch] ++ [q_from per branch].
    """
    _, load_ids = _load_bus_positions(case)
    labels = [case.branches[k].label() for k in case.arrays.branches.pos.tolist()]
    names = [f"vm_bus{i}" for i in load_ids]
    names += [f"va_bus{i}" for i in load_ids]
    names += [f"imag_br{lab}" for lab in labels]
    names += [f"pf_br{lab}" for lab in labels]
    names += [f"qf_br{lab}" for lab in labels]
    return names


def extract_features(solution: PowerFlowSolution, base_case: NetworkCase) -> np.ndarray:
    """Deterministic measurement vector; branches outaged in this OC but in
    service in the base case contribute 0.0, keeping the width fixed."""
    if not solution.converged:
        raise DatasetError("cannot extract features from a non-converged solution")
    pos, _ = _load_bus_positions(base_case)
    live = base_case.arrays.branches.pos
    return np.concatenate([
        solution.v_mag[pos],
        solution.v_ang[pos],
        solution.i_from[live],
        solution.p_from[live],
        solution.q_from[live],
    ])


def generate_oc(
    case: NetworkCase,
    rng_seed,
    scale_range=(0.8, 1.05),
    tc: str | None = None,
    max_rejects: int = 50,
):
    """Draw one converged operating condition.

    Every load's P and Q scale by an independent uniform factor in the
    range, whose bounds must be non-negative and finite; aggregate load
    change is rescheduled across non-slack generators. Non-convergent draws
    are rejected and redrawn with the next seed in the (rng_seed, attempt)
    stream. Returns (scaled case, solution, meta, rejections).
    """
    lo, hi = scale_range
    if not 0.0 <= lo <= hi < np.inf:
        raise DatasetError(f"bad scale range [{lo}, {hi}]")
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
            meta = SampleMeta(tuple(factors), tc, (tuple(np.atleast_1d(rng_seed).tolist()), attempt))
            return oc, solution, meta, attempt
    raise DatasetError(
        f"infeasible generation config: {max_rejects} consecutive rejections"
    )


def build_dataset(
    case: NetworkCase,
    config: GenerationConfig,
    limits: OperatingLimits | None = None,
) -> Dataset:
    """Generate, label, and assemble a dataset; bit-reproducible from seed.

    Guard against degenerate single-class data: if every sample gets the
    same label, the upper scale bound is widened by +0.05 (up to 3 times)
    and generation reruns; the returned dataset reports the widened bound.
    """
    ds = _build_dataset_once(case, config, limits)
    labels = {s.label for s in ds.samples}
    hi = config.scale_range[1]
    attempts = 0
    while len(labels) < 2 and len(ds.samples) > 1 and attempts < 3:
        attempts += 1
        hi = round(hi + 0.05, 10)
        widened = replace(config, scale_range=(config.scale_range[0], hi))
        ds = _build_dataset_once(case, widened, limits)
        ds.widened_scale_hi = hi
        labels = {s.label for s in ds.samples}
    return ds


def _build_dataset_once(
    case: NetworkCase,
    config: GenerationConfig,
    limits: OperatingLimits | None = None,
) -> Dataset:
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
    _check_tc_list(case, config)
    n = config.n_samples
    n_tc = int(round(config.tc_mix * n))
    pick_rng = np.random.default_rng((config.seed, 0x7C))
    tc_indices = set(pick_rng.choice(n, size=n_tc, replace=False).tolist()) if n_tc else set()
    names = feature_names(case)
    samples = []
    rejections = 0
    for i in range(n):
        tc = None
        if i in tc_indices:
            tc_rng = np.random.default_rng((config.seed, 0x7C, i))
            tc = config.tc_list[int(tc_rng.integers(len(config.tc_list)))]
        oc, solution, meta, rejects = generate_oc(
            case, (config.seed, i), config.scale_range, tc=tc,
            max_rejects=config.max_rejects,
        )
        rejections += rejects
        screen = run_contingency_screen(oc, solution, config.csc_list, limits)
        samples.append(LabeledSample(extract_features(solution, case), screen.label, meta))
    return Dataset(
        samples=samples,
        feature_names=names,
        provenance=config.digest(),
        rejections=rejections,
    )


def _check_tc_list(case: NetworkCase, config: GenerationConfig):
    """Reject a TC that is already out of service, islands the base network
    or is also a CSC: the first two cannot be drawn, the third would leave
    its samples nothing of that contingency to screen."""
    if not config.tc_list:
        return
    cscs = {case.find_branch(name): name for name in config.csc_list}
    live = set(case.arrays.branches.pos.tolist())
    bridges = case.arrays.topology.bridges
    for tc in config.tc_list:
        k = case.find_branch(tc)
        if k not in live:
            raise DatasetError(f"TC {tc} from the TC list is already out of service")
        if k in bridges:
            raise DatasetError(f"TC {tc} from the TC list islands the network")
        if k in cscs:
            raise DatasetError(f"branch {tc} is both a TC and a CSC ({cscs[k]})")


def train_size(n_samples: int, train_fraction: float) -> int:
    """Samples on the train side of a split; raises ``DatasetError`` when
    either side would be empty."""
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must be in (0, 1)")
    n_train = int(train_fraction * n_samples)
    if not 0 < n_train < n_samples:
        side = "train" if n_train == 0 else "test"
        raise DatasetError(f"{n_samples} samples at train_fraction {train_fraction} "
                           f"leave the {side} split empty")
    return n_train


def split_dataset(ds: Dataset, train_fraction: float, seed: int):
    """Seeded shuffle then partition into (train, test), neither empty."""
    if not ds.samples:
        raise DatasetError("cannot split an empty dataset")
    n_train = train_size(len(ds.samples), train_fraction)
    order = np.random.default_rng(seed).permutation(len(ds.samples))
    train_idx, test_idx = order[:n_train], order[n_train:]
    make = lambda idx: Dataset(
        samples=[ds.samples[i] for i in idx],
        feature_names=ds.feature_names,
        provenance=ds.provenance,
    )
    return make(train_idx), make(test_idx)


def save_dataset(ds: Dataset, path, config: GenerationConfig | None = None):
    """CSV with feature_names + 'label' header (1 = Secure, 0 = Insecure),
    plus a key-value .meta companion."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.feature_names + ["label"]) + "\n")
        for s in ds.samples:
            values = [repr(float(v)) for v in s.features]
            values.append("1" if s.label is Label.SECURE else "0")
            fh.write(",".join(values) + "\n")
    meta_path = str(path) + ".meta"
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"provenance: {ds.provenance}\n")
        fh.write(f"n_samples: {len(ds.samples)}\n")
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
        samples = []
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
            label = Label.SECURE if cols[-1] == "1" else Label.INSECURE
            samples.append(LabeledSample(features, label, SampleMeta((), None, ())))
    return Dataset(samples=samples, feature_names=names)
