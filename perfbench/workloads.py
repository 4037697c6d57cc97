"""The benchmark's three workloads.

Each workload draws its operations from a fixed pool whose outputs are
stored in ``ref/``; the seed chooses which pool members run and in what
order. That keeps every run checkable against values made at a known
commit, whatever the seed. Operations run in whole rounds, and every round
has the same mix (TC share, algorithm set, outage set), so throughput and
percentiles do not depend on where the time limit cuts.

A workload reaches gridsec only through public functions of its modules,
looked up at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import bootstrap
import calibration
from gridsec import data, errors, model, optim, powerflow, security, train

# The critical contingencies and topology-change lines of acceptance
# criterion 6, so the labels follow the distribution the experiments use.
CSC_68 = ("18-49", "21-22", "30-61", "36-61", "40-41", "40-48", "41-42", "67-68")
TC_68 = ("17-43", "18-42", "24-68", "38-46", "43-44", "47-48", "47-53", "54-55")

FEATURE_TOL = 1e-9
PIV_TOL = 1e-9
VOLTAGE_TOL = 1e-9


def _cycle(rng, n):
    """Endless pool indices: a fresh permutation of range(n) per pass."""
    while True:
        yield from rng.permutation(n).tolist()


def _shuffled(rng, keys):
    return [keys[i] for i in rng.permutation(len(keys))]


def _same(a, b):
    """Exact equality that treats NaN as equal to NaN (diverged log rows)."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


class Workload:
    """Defaults shared by the workloads: whole rounds until the time is up,
    every operation primary, no set-up output to check, JSON references."""

    min_rounds = 1
    setup_loop = None  # calibration loop around each set-up, if any
    reference_suffix = ".json"

    @staticmethod
    def is_primary(key):
        return True

    def record_setup(self, state):
        return None

    def matches_setup(self, got, ref):
        return True

    def save_reference(self, ref, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    def load_reference(self, path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


class LabelWorkload(Workload):
    """N-1 labelling: one ``data.build_dataset`` call per case68 sample.

    A round holds ``plain`` samples without and ``tc`` samples with a
    topology change, i.e. the 0.3 TC mix of the update dataset of
    criterion 6. One-sample calls give a latency per labelled sample.
    """

    name = "label-n1-case68"
    loop = calibration.SolverLoop
    setup_loop = calibration.SolverLoop  # parsing takes milliseconds
    PLAIN_SEED = 10_000
    TC_SEED = 50_000

    def __init__(self, pool_rounds=24, plain=7, tc=3):
        self.pool_rounds, self.plain, self.tc = pool_rounds, plain, tc

    def setup(self):
        return {"case": model.load_bundled_case("case68")}

    def pool(self, state):
        return ([f"plain:{j}" for j in range(self.pool_rounds * self.plain)]
                + [f"tc:{j}" for j in range(self.pool_rounds * self.tc)])

    def rounds(self, state, seed):
        rng = np.random.default_rng([seed, 1])
        plain = _cycle(rng, self.pool_rounds * self.plain)
        tc = _cycle(rng, self.pool_rounds * self.tc)
        while True:
            keys = ([f"plain:{next(plain)}" for _ in range(self.plain)]
                    + [f"tc:{next(tc)}" for _ in range(self.tc)])
            yield _shuffled(rng, keys)

    def run(self, state, key):
        kind, j = key.split(":")
        with_tc = kind == "tc"
        cfg = data.GenerationConfig(
            n_samples=1,
            tc_mix=1.0 if with_tc else 0.0,
            tc_list=TC_68 if with_tc else (),
            csc_list=CSC_68,
            seed=(self.TC_SEED if with_tc else self.PLAIN_SEED) + int(j),
        )
        return data.build_dataset(state["case"], cfg)

    def record(self, key, ds):
        if len(ds.samples) != 1:
            return None
        sample = ds.samples[0]
        return int(sample.label is security.Label.INSECURE), np.asarray(sample.features, dtype=float)

    def matches(self, got, ref):
        if got is None:
            return False
        label, features = got
        ref_label, ref_features = ref
        return (label == ref_label and features.shape == ref_features.shape
                and bool(np.all(np.abs(features - ref_features) <= FEATURE_TOL)))

    # Features are too many for JSON: 240 samples x 353 doubles.
    reference_suffix = ".npz"

    def save_reference(self, ref, path):
        keys = sorted(k for k in ref if k != "setup")
        np.savez_compressed(
            path,
            keys=np.array(keys),
            labels=np.array([ref[k][0] for k in keys], dtype=np.int8),
            features=np.stack([ref[k][1] for k in keys]),
        )

    def load_reference(self, path):
        with np.load(path) as blob:
            return {str(k): (int(label), features.copy())
                    for k, label, features in zip(blob["keys"], blob["labels"], blob["features"])}


class TrainWorkload(Workload):
    """The optimizer grid through ``train.run_experiment``: one op is one
    training seed for every algorithm, on case68 datasets that set-up builds
    and saves with ``data.save_dataset``, as the ``train`` command reads them.

    Hidden layers, activation, the 1:2 phase split and the checkpoint
    layout are those of criterion 6. Runs are 40 + 80 epochs, not 500 +
    1000, so that one op of 7 runs lasts well under a second, short enough
    for the calibration loops around it to see the same machine speed; the
    datasets are smaller so that set-up fits in a run.
    """

    name = "train-grid-case68"
    loop = calibration.TrainingLoop
    min_rounds = 2  # percentiles need two latencies
    # Set-up labels samples for about 10 s, so it has no setup_loop: loop
    # samples on either side tell little about the speed in between, and
    # scaled by them, set-up spread more across seeds than unscaled.
    INIT_SEED = 100
    UPDATE_SEED = 200

    def __init__(self, n_samples=100, init_epochs=40, update_epochs=80,
                 eval_every=20, hidden=(64, 32), seed_pool=24,
                 algorithms=optim.ALGORITHMS, workdir=None):
        self.n_samples = n_samples
        self.workdir = workdir or os.path.join(bootstrap.ROOT, ".bench_build", "perfbench")
        self.experiment = train.ExperimentConfig(
            init_dataset=os.path.join(self.workdir, "init.csv"),
            update_dataset=os.path.join(self.workdir, "update.csv"),
            init_epochs=init_epochs, update_epochs=update_epochs,
            eval_every=eval_every, hidden=tuple(hidden), activation="relu",
            algorithms=tuple(algorithms),
        )
        self.seed_pool = seed_pool

    def setup(self):
        case = model.load_bundled_case("case68")
        init_cfg = data.GenerationConfig(
            n_samples=self.n_samples, tc_mix=0.0, csc_list=CSC_68, seed=self.INIT_SEED)
        update_cfg = data.GenerationConfig(
            n_samples=self.n_samples, tc_mix=0.3, tc_list=TC_68, csc_list=CSC_68,
            seed=self.UPDATE_SEED)
        state = {"init": data.build_dataset(case, init_cfg),
                 "update": data.build_dataset(case, update_cfg)}
        os.makedirs(self.workdir, exist_ok=True)
        data.save_dataset(state["init"], self.experiment.init_dataset, init_cfg)
        data.save_dataset(state["update"], self.experiment.update_dataset, update_cfg)
        return state

    def pool(self, state):
        return [f"seed:{s}" for s in range(self.seed_pool)]

    def rounds(self, state, seed):
        seeds = _cycle(np.random.default_rng([seed, 2]), self.seed_pool)
        while True:
            yield [f"seed:{next(seeds)}"]

    def run(self, state, key):
        seed = int(key.split(":")[1])
        return train.run_experiment(dataclasses.replace(self.experiment, seeds=(seed,)))

    def record(self, key, results):
        return {alg: [[r.phase, r.epoch, r.train_accuracy, r.test_accuracy, bool(r.diverged)]
                      for r in runs[0].rows]
                for alg, runs in results.items()}

    def matches(self, got, ref):
        return got.keys() == ref.keys() and all(
            len(got[alg]) == len(ref[alg])
            and all(len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
                    for a, b in zip(got[alg], ref[alg]))
            for alg in ref)

    def record_setup(self, state):
        """Labels exactly, features through row and column sums: a feature
        off by more than the tolerance moves both sums."""
        out = {}
        for part in ("init", "update"):
            x, y = state[part].matrix()
            out[part] = {"labels": "".join(map(str, y.tolist())),
                         "widened": state[part].widened_scale_hi,
                         "row_sums": x.sum(axis=1).tolist(),
                         "col_sums": x.sum(axis=0).tolist()}
        return out

    def matches_setup(self, got, ref):
        for part in ("init", "update"):
            g, r = got[part], ref[part]
            n_rows, n_cols = len(r["row_sums"]), len(r["col_sums"])
            if g["labels"] != r["labels"] or g["widened"] != r["widened"]:
                return False
            if len(g["row_sums"]) != n_rows or len(g["col_sums"]) != n_cols:
                return False
            if np.any(np.abs(np.subtract(g["row_sums"], r["row_sums"])) > n_cols * FEATURE_TOL):
                return False
            if np.any(np.abs(np.subtract(g["col_sums"], r["col_sums"])) > n_rows * FEATURE_TOL):
                return False
        return True


class StudyWorkload(Workload):
    """PV study: ``security.screen_configurations`` over every branch, and
    ``powerflow.trace_pv_curve`` at one load bus for the base case and every
    non-islanding outage, on case68 and case9.

    Solves here are warm-started along each curve, some diverge at the nose
    and run to ``max_iter``, and some outaged bases are infeasible. The seed
    picks the monitored bus of each round; the nose does not depend on it,
    so every round costs about the same.
    """

    name = "study-pv-case68"
    loop = calibration.SolverLoop
    setup_loop = calibration.SolverLoop
    CASES = (("case68", (1, 8, 15, 22, 29, 36, 43, 50)), ("case9", (5, 6, 8)))

    def __init__(self, cases=CASES, step=0.01, min_rounds=2):
        self.cases = tuple((name, tuple(buses)) for name, buses in cases)
        self.step = step
        # Two rounds give more than 100 traces, so 10 lie beyond the p90.
        self.min_rounds = min_rounds

    def setup(self):
        state = {}
        for name, _ in self.cases:
            case = model.load_bundled_case(name)
            outaged = {"base": case}
            for k, br in enumerate(case.branches):
                try:
                    outaged[br.label()] = model.apply_outage(case, k)
                except errors.IslandingError:
                    pass
            state[name] = {"case": case, "outaged": outaged,
                           "labels": [br.label() for br in case.branches]}
        return state

    def _traces(self, state, name, bus):
        return [f"trace:{name}:{bus}:{o}" for o in state[name]["outaged"]]

    def pool(self, state):
        keys = [f"screen:{name}" for name, _ in self.cases]
        for name, buses in self.cases:
            for bus in buses:
                keys += self._traces(state, name, bus)
        return keys

    def rounds(self, state, seed):
        rng = np.random.default_rng([seed, 3])
        buses = {name: _cycle(rng, len(b)) for name, b in self.cases}
        while True:
            keys = [f"screen:{name}" for name, _ in self.cases]
            for name, b in self.cases:
                keys += self._traces(state, name, b[next(buses[name])])
            yield _shuffled(rng, keys)

    @staticmethod
    def is_primary(key):
        return key.startswith("trace:")

    def run(self, state, key):
        kind, name, *rest = key.split(":", 3)
        entry = state[name]
        if kind == "screen":
            return security.screen_configurations(entry["case"], entry["labels"])
        bus, outage = rest
        try:
            return powerflow.trace_pv_curve(entry["outaged"][outage], int(bus), self.step)
        except errors.InfeasibleError:
            return "infeasible"  # expected for some outaged bases

    def record(self, key, result):
        if key.startswith("screen:"):
            return {a.configuration: [a.category.value, a.pi_v] for a in result}
        if result == "infeasible":
            return result
        return [result.nose_scale, len(result.points), result.points[-1][1]]

    def matches(self, got, ref):
        if isinstance(ref, dict):
            return got.keys() == ref.keys() and all(
                got[k][0] == ref[k][0] and _close(got[k][1], ref[k][1], PIV_TOL) for k in ref)
        if isinstance(ref, str) or isinstance(got, str):
            return got == ref
        return (got[0] == ref[0] and got[1] == ref[1]
                and _close(got[2], ref[2], VOLTAGE_TOL))


def _close(a, b, tol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


WORKLOADS = {w.name: w for w in (LabelWorkload, TrainWorkload, StudyWorkload)}
