"""The byte-identity oracle: one sha256 per output pool, compared with
``tests/data/digests.json``, which was recorded on the numpy build of
``tests/data/golden_build.json``.

- ``label``: the benchmark's label pool, 168 plain one-sample case68
  datasets (seeds 10000 and up) and 72 with a TC (seeds 50000 and up): each
  dataset's ``x`` and ``y`` bytes and the ``repr`` of its sample's
  ``ScreenResult``;
- ``screen``: ``repr`` of the full-branch ``screen_configurations`` table of
  case68, then of case9;
- ``trace``: ``repr`` of the step-0.01 PV curve of the base case and of every
  non-islanding outage, at case68 bus 8, then case9 bus 5;
- ``train``: ``repr`` of every log row, logged at every epoch, of 40 + 80
  epoch runs on the golden 60-sample dataset at seed 0: each algorithm with
  its default settings, then each algorithm that reads ``eps`` with
  ``eps = 0``, under relu, then tanh.

An output whose bits move changes its pool's digest. Where a change is
meant to move outputs, ``python -m tests.test_digests --write`` (with
``src`` on PYTHONPATH) rewrites the file.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from gridsec.data import GenerationConfig, build_dataset, generate_oc, load_dataset, sample_tcs
from gridsec.errors import InfeasibleError
from gridsec.model import apply_outage, load_bundled_case
from gridsec.optim import ALGORITHMS, SETTINGS
from gridsec.powerflow import trace_pv_curve
from gridsec.security import run_contingency_screen, screen_configurations
from gridsec.train import ExperimentConfig, run_single, standardized_splits

from tests.conftest import CSC_LINES, TC_LINES, fail_golden

DIGESTS = Path(__file__).parent / "data" / "digests.json"
GOLDEN_DATASET = Path(__file__).parent / "data" / "golden_case68_dataset.csv"


def _label(h):
    case = load_bundled_case("case68")
    for first, count, tcs in ((10_000, 168, ()), (50_000, 72, TC_LINES)):
        for seed in range(first, first + count):
            cfg = GenerationConfig(n_samples=1, tc_mix=1.0 if tcs else 0.0, tc_list=tcs,
                                   csc_list=CSC_LINES, seed=seed)
            ds = build_dataset(case, cfg)
            h.update(ds.x.tobytes())
            h.update(ds.y.tobytes())
            # the sample's screen, as build_dataset labels it
            oc, solution, _, _ = generate_oc(case, (seed, 0), cfg.scale_range,
                                             tc=sample_tcs(cfg)[0], max_rejects=cfg.max_rejects)
            h.update(repr(run_contingency_screen(oc, solution, CSC_LINES)).encode())


def _screen(h):
    for name in ("case68", "case9"):
        case = load_bundled_case(name)
        h.update(repr(screen_configurations(case, [br.label() for br in case.branches])).encode())


def _trace(h):
    for name, bus in (("case68", 8), ("case9", 5)):
        case = load_bundled_case(name)
        bases = [case] + [apply_outage(case, k) for k in case.branch_table.pos.tolist()
                          if k not in case.topology.cuts]
        for base in bases:
            try:
                h.update(repr(trace_pv_curve(base, bus, 0.01)).encode())
            except InfeasibleError:
                h.update(b"infeasible")


def _train(h):
    ds = load_dataset(GOLDEN_DATASET)
    splits = standardized_splits(ds, ds, 0.6, 0)
    for activation in ("relu", "tanh"):
        for eps in (None, 0.0):
            for algorithm in ALGORITHMS:
                if eps is not None and "eps" not in SETTINGS[algorithm]:
                    continue
                cfg = ExperimentConfig(
                    str(GOLDEN_DATASET), str(GOLDEN_DATASET), init_epochs=40, update_epochs=80,
                    eval_every=1, activation=activation, algorithms=(algorithm,),
                    overrides={} if eps is None else {algorithm: {"eps": eps}})
                h.update(repr(run_single(cfg, algorithm, 0, splits).rows).encode())


POOLS = {"label": _label, "screen": _screen, "trace": _trace, "train": _train}


def digest(pool):
    h = hashlib.sha256()
    POOLS[pool](h)
    return h.hexdigest()


@pytest.mark.parametrize("pool", POOLS)
def test_pool_digest(pool):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[pool]
    if digest(pool) != recorded:
        fail_golden(f"the {pool} pool's digest in {DIGESTS.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_digests --write")
    DIGESTS.write_text(json.dumps({pool: digest(pool) for pool in POOLS}, indent=2) + "\n",
                       encoding="utf-8")
