import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridsec
from gridsec.data import (
    Dataset,
    GenerationConfig,
    LabeledSample,
    SampleMeta,
    build_dataset,
    extract_features,
    feature_names,
    generate_oc,
    load_dataset,
    save_dataset,
    split_dataset,
)
from gridsec.errors import DatasetError
from gridsec.model import apply_outage, bundled_case_path, reschedule_generation, scale_loads
from gridsec.powerflow import solve_powerflow
from gridsec.security import Label, OperatingLimits, run_contingency_screen

from tests.conftest import CSC_LINES, TC_LINES
from tests.test_security import exhaustive_screen


def test_feature_layout_two_bus(case2):
    names = feature_names(case2)
    # one load bus, one branch: 2 bus channels + 3 branch channels
    assert names == ["vm_bus2", "va_bus2", "imag_br1-2", "pf_br1-2", "qf_br1-2"]
    sol = solve_powerflow(case2)
    x = extract_features(sol, case2)
    assert x.shape == (5,)
    assert x[0] == pytest.approx(sol.v_mag[1])
    assert x[1] == pytest.approx(sol.v_ang[1])


def test_feature_width_formula(case68):
    n_load_bus = len({l.bus for l in case68.loads})
    n_branch = len(case68.arrays.branches.pos)
    assert len(feature_names(case68)) == 2 * n_load_bus + 3 * n_branch == 353


def test_feature_names_stable_under_tc(case68):
    """The layout is fixed by the base topology, not the OC topology."""
    base_names = feature_names(case68)
    oc, sol, meta, _ = generate_oc(case68, (7, 0), tc="17-43")
    x = extract_features(sol, case68)
    assert len(x) == len(base_names)
    k = case68.find_branch("17-43")
    # outaged branch channels are zero-filled
    order = case68.arrays.branches.pos.tolist()
    col = 2 * 52 + order.index(k)
    assert x[col] == 0.0
    assert x[col + 83] == 0.0
    assert x[col + 2 * 83] == 0.0


def test_generate_oc_degenerate_range_is_base_case(case68):
    oc, sol, meta, rejects = generate_oc(case68, (0, 0), scale_range=(1.0, 1.0))
    base_sol = solve_powerflow(case68)
    assert rejects == 0
    assert np.allclose(sol.v_mag, base_sol.v_mag, atol=1e-9)
    assert all(f == 1.0 for f in meta.scale_factors)


def test_generate_oc_load_within_range(case68):
    base_p, _ = case68.total_load()
    oc, sol, meta, _ = generate_oc(case68, (11, 0), scale_range=(0.8, 1.05))
    new_p, _ = oc.total_load()
    assert 0.8 * base_p <= new_p <= 1.05 * base_p
    assert all(0.8 <= f <= 1.05 for f in meta.scale_factors)
    assert len(meta.scale_factors) == len(case68.loads)


def test_generate_oc_applies_tc(case68):
    oc, sol, meta, _ = generate_oc(case68, (3, 0), tc="54-55")
    k = oc.find_branch("54-55")
    assert not oc.branches[k].in_service
    assert meta.tc == "54-55"


@pytest.mark.parametrize("scale_range", [
    (1.1, 0.9), (-2.0, -1.0), (float("nan"), 1.0), (0.8, float("inf")),
], ids=["reversed", "negative", "nan", "inf"])
def test_generate_oc_bad_range(case68, scale_range):
    with pytest.raises(DatasetError, match="bad scale range"):
        generate_oc(case68, (0, 0), scale_range=scale_range)


def test_build_dataset_deterministic(case68):
    cfg = GenerationConfig(n_samples=8, tc_mix=0.25, tc_list=TC_LINES,
                           csc_list=CSC_LINES, seed=42)
    a = build_dataset(case68, cfg)
    b = build_dataset(case68, cfg)
    xa, ya = a.matrix()
    xb, yb = b.matrix()
    assert np.array_equal(xa, xb)
    assert np.array_equal(ya, yb)
    assert [s.meta.tc for s in a.samples] == [s.meta.tc for s in b.samples]


def test_build_dataset_tc_count_exact(case68):
    cfg = GenerationConfig(n_samples=10, tc_mix=0.3, tc_list=TC_LINES,
                           csc_list=CSC_LINES, seed=1)
    ds = build_dataset(case68, cfg)
    tcs = [s.meta.tc for s in ds.samples if s.meta.tc is not None]
    assert len(tcs) == 3
    assert set(tcs) <= set(TC_LINES)


def rebuild_oc(case, meta):
    """The operating condition a sample was drawn from, rebuilt from its meta."""
    oc = scale_loads(case, np.array(meta.scale_factors))
    base_p, _ = case.total_load()
    new_p, _ = oc.total_load()
    oc = reschedule_generation(oc, new_p - base_p)
    if meta.tc:
        oc = apply_outage(oc, oc.find_branch(meta.tc))
    return oc


def test_build_dataset_label_oracle(case68):
    """Re-derive one sample's label from its recorded meta."""
    cfg = GenerationConfig(n_samples=4, csc_list=CSC_LINES, seed=9)
    ds = build_dataset(case68, cfg)
    s = ds.samples[2]
    oc = rebuild_oc(case68, s.meta)
    screen = run_contingency_screen(oc, solve_powerflow(oc), CSC_LINES, OperatingLimits())
    assert screen.label is s.label


def test_build_dataset_warm_start_keeps_flat_start_labels(case68):
    """Labelling warm-starts each contingency solve from the OC's solution;
    a flat-start exhaustive screen of the same OC must give the same label."""
    cfg = GenerationConfig(n_samples=20, tc_mix=0.3, tc_list=TC_LINES,
                           csc_list=CSC_LINES, seed=3)
    ds = build_dataset(case68, cfg)
    assert sum(s.meta.tc is not None for s in ds.samples) == 6
    assert {s.label for s in ds.samples} == {Label.SECURE, Label.INSECURE}
    for s in ds.samples:
        flat, _ = exhaustive_screen(rebuild_oc(case68, s.meta), CSC_LINES, OperatingLimits(), None)
        assert flat is s.label, s.meta


def test_build_dataset_requires_csc_list(case68):
    with pytest.raises(DatasetError, match="no contingencies"):
        build_dataset(case68, GenerationConfig(n_samples=2, seed=0))


def test_build_dataset_rejects_a_tc_that_is_also_a_csc(case9):
    cfg = GenerationConfig(n_samples=4, tc_mix=0.5, tc_list=("7-8", "5-4"),
                           csc_list=("4-5", "6-9"), seed=0)
    with pytest.raises(DatasetError, match="branch 5-4 is both a TC and a CSC"):
        build_dataset(case9, cfg)


def test_build_dataset_rejects_an_islanding_tc(case9):
    cfg = GenerationConfig(n_samples=4, tc_mix=0.5, tc_list=("4-5", "1-4"),
                           csc_list=("6-9",), seed=0)
    with pytest.raises(DatasetError, match="TC 1-4 from the TC list islands the network"):
        build_dataset(case9, cfg)


def test_labelling_does_not_import_scipy():
    """The screen's ranking is numpy only: labelling a sample leaves scipy
    unimported."""
    src = str(Path(gridsec.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from gridsec.data import GenerationConfig, build_dataset\n"
        "from gridsec.model import load_bundled_case\n"
        f"cfg = GenerationConfig(n_samples=1, tc_mix=1.0, tc_list={TC_LINES!r}, "
        f"csc_list={CSC_LINES!r}, seed=5)\n"
        "build_dataset(load_bundled_case('case68'), cfg)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_build_dataset_tc_mix_needs_tc_list(case68):
    cfg = GenerationConfig(n_samples=2, tc_mix=0.5, csc_list=CSC_LINES, seed=0)
    with pytest.raises(DatasetError, match="tc_list"):
        build_dataset(case68, cfg)


def _synthetic_dataset(n):
    rng = np.random.default_rng(0)
    samples = [
        LabeledSample(rng.normal(size=3), Label.SECURE if i % 2 else Label.INSECURE,
                      SampleMeta((), None, ()))
        for i in range(n)
    ]
    return Dataset(samples=samples, feature_names=["a", "b", "c"])


def test_split_sizes_exact():
    train, test = split_dataset(_synthetic_dataset(4000), 0.6, seed=0)
    assert len(train) == 2400
    assert len(test) == 1600


def test_split_is_a_partition():
    ds = _synthetic_dataset(50)
    for i, s in enumerate(ds.samples):
        s.features[0] = float(i)  # tag each sample
    train, test = split_dataset(ds, 0.5, seed=3)
    tags = sorted(s.features[0] for s in train.samples + test.samples)
    assert tags == [float(i) for i in range(50)]
    assert len(train) == len(test) == 25


def test_split_deterministic():
    ds = _synthetic_dataset(100)
    a_train, _ = split_dataset(ds, 0.6, seed=5)
    b_train, _ = split_dataset(ds, 0.6, seed=5)
    assert [id(x) for x in a_train.samples] == [id(x) for x in b_train.samples]


def test_split_rejects_bad_fraction():
    with pytest.raises(DatasetError):
        split_dataset(_synthetic_dataset(10), 1.0, seed=0)


def test_matrix_class_indices():
    ds = _synthetic_dataset(4)
    _, y = ds.matrix()
    # even indices Insecure (1), odd Secure (0)
    assert y.tolist() == [1, 0, 1, 0]


def test_save_load_round_trip(case68, tmp_path):
    cfg = GenerationConfig(n_samples=5, csc_list=CSC_LINES, seed=2)
    ds = build_dataset(case68, cfg)
    path = tmp_path / "data.csv"
    save_dataset(ds, path, cfg)
    loaded = load_dataset(path)
    x0, y0 = ds.matrix()
    x1, y1 = loaded.matrix()
    assert np.array_equal(x0, x1)
    assert np.array_equal(y0, y1)
    assert loaded.feature_names == ds.feature_names
    meta = (tmp_path / "data.csv.meta").read_text()
    assert "n_samples: 5" in meta
    assert f"provenance: {cfg.digest()}" in meta


def test_load_rejects_non_dataset(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DatasetError, match="label"):
        load_dataset(path)


def test_load_rejects_bad_label(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("a,b,label\n1.0,2.0,1\n1.0,2.0,7\n")
    with pytest.raises(DatasetError, match=r"ds\.csv:3: label '7' is not 0 or 1"):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
def test_load_rejects_bad_feature(tmp_path, value):
    path = tmp_path / "ds.csv"
    path.write_text(f"a,b,label\n1.0,2.0,0\n1.0,{value},0\n")
    with pytest.raises(DatasetError, match=r"ds\.csv:3: non-(finite|numeric) feature"):
        load_dataset(path)


GOLDEN_DATASET = Path(__file__).parent / "data" / "golden_case68_dataset.csv"


def test_golden_case68_dataset(tmp_path):
    """A 60-sample case68 ``gridsec gen-dataset`` with 30% TCs and the 8
    criterion-6 CSCs writes the stored CSV and ``.meta`` byte for byte. The
    run is a subprocess at one BLAS thread, the condition of the determinism
    promise. A change to the solver, the screen or the case edits that moves
    any feature's last digit, or any label, fails here."""
    tc_list, csc_list = tmp_path / "tc.txt", tmp_path / "csc.txt"
    tc_list.write_text("\n".join(TC_LINES) + "\n")
    csc_list.write_text("\n".join(CSC_LINES) + "\n")
    out = tmp_path / "ds.csv"
    src = str(Path(gridsec.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "gridsec.cli", "gen-dataset",
         "--case", str(bundled_case_path("case68")), "--n", "60", "--seed", "300",
         "--tc-mix", "0.3", "--tc-list", str(tc_list), "--csc-list", str(csc_list),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == GOLDEN_DATASET.read_bytes()
    assert Path(f"{out}.meta").read_bytes() == Path(f"{GOLDEN_DATASET}.meta").read_bytes()
