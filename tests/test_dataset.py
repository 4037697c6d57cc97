import dataclasses
import json
import re
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gridsec
from gridsec.data import (
    Dataset,
    GenerationConfig,
    build_dataset,
    extract_features,
    feature_names,
    generate_oc,
    load_dataset,
    sample_tcs,
    save_dataset,
)
from gridsec.errors import DatasetError
from gridsec.model import (
    BusKind,
    apply_outage,
    bundled_case_path,
    reschedule_generation,
    scale_loads,
)
from gridsec.powerflow import solve_powerflow
from gridsec.security import Label, run_contingency_screen
from gridsec.train import standardized_splits

from tests.conftest import (
    CSC_LINES,
    GOLDEN_BUILD,
    TC_LINES,
    assert_golden,
    assert_no_children,
    numpy_build,
    unpinned_env,
    use_cpus,
)
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
    n_branch = len(case68.branch_table.pos)
    assert len(feature_names(case68)) == 2 * n_load_bus + 3 * n_branch == 353


def test_each_feature_name_reads_its_solution_field(case68):
    """Every column holds the solution field its name's prefix stands for, at
    the named bus or branch, bit for bit; the TC's branch reads 0.0."""
    _, sol, _, _ = generate_oc(case68, (7, 0), tc="17-43")
    x = extract_features(sol, case68)
    fields = {"vm_bus": sol.v_mag, "va_bus": sol.v_ang, "imag_br": sol.i_from,
              "pf_br": sol.p_from, "qf_br": sol.q_from}
    bus, tc = case68.bus_index(), case68.find_branch("17-43")
    names = feature_names(case68)
    assert len(x) == len(names)
    prefixes, tc_columns = [], 0
    for col, name in enumerate(names):
        prefix, key = re.fullmatch(r"(vm_bus|va_bus|imag_br|pf_br|qf_br)(.+)", name).groups()
        at = bus[int(key)] if prefix.endswith("bus") else case68.find_branch(key)
        assert x[col].tobytes() == fields[prefix][at].tobytes(), name
        if prefix.endswith("br") and at == tc:
            assert x[col] == 0.0, name
            tc_columns += 1
        prefixes.append(prefix)
    assert list(dict.fromkeys(prefixes)) == list(fields)
    assert tc_columns == 3


def test_rejection_exhaustion_counts_its_draws(case2):
    """``max_rejects=2`` tolerates two rejections; the third non-converging
    draw raises, and the message counts all three draws."""
    with pytest.raises(DatasetError, match="3 draws in a row did not converge"):
        generate_oc(case2, (0, 0), (6.0, 6.0), max_rejects=2)


def test_feature_names_stable_under_tc(case68):
    """The layout is fixed by the base topology, not the OC topology."""
    base_names = feature_names(case68)
    oc, sol, _, _ = generate_oc(case68, (7, 0), tc="17-43")
    x = extract_features(sol, case68)
    assert len(x) == len(base_names)
    k = case68.find_branch("17-43")
    # outaged branch channels are zero-filled
    order = case68.branch_table.pos.tolist()
    col = 2 * 52 + order.index(k)
    assert x[col] == 0.0
    assert x[col + 83] == 0.0
    assert x[col + 2 * 83] == 0.0


def test_generate_oc_degenerate_range_is_base_case(case68):
    oc, sol, factors, rejects = generate_oc(case68, (0, 0), scale_range=(1.0, 1.0))
    base_sol = solve_powerflow(case68)
    assert rejects == 0
    assert np.allclose(sol.v_mag, base_sol.v_mag, atol=1e-9)
    assert all(f == 1.0 for f in factors)


def test_generate_oc_load_within_range(case68):
    base_p, _ = case68.total_load()
    oc, sol, factors, _ = generate_oc(case68, (11, 0), scale_range=(0.8, 1.05))
    new_p, _ = oc.total_load()
    assert 0.8 * base_p <= new_p <= 1.05 * base_p
    assert all(0.8 <= f <= 1.05 for f in factors)
    assert len(factors) == len(case68.loads)


def test_generate_oc_applies_tc(case68):
    oc, sol, _, _ = generate_oc(case68, (3, 0), tc="54-55")
    k = oc.find_branch("54-55")
    assert not oc.branches[k].in_service


@pytest.mark.parametrize("scale_range", [
    (1.1, 0.9), (-2.0, -1.0), (float("nan"), 1.0), (0.8, float("inf")),
], ids=["reversed", "negative", "nan", "inf"])
def test_generate_oc_bad_range(case68, scale_range):
    with pytest.raises(DatasetError, match="bad scale range"):
        generate_oc(case68, (0, 0), scale_range=scale_range)


@pytest.mark.parametrize("max_rejects", [-1, -3, 2.5, "2", None])
def test_generate_oc_bad_max_rejects(case9, max_rejects):
    """A negative or non-integer ``max_rejects`` is an error that names it,
    from ``generate_oc`` and from ``build_dataset``, not a count of draws
    that were never made or a bare TypeError."""
    match = f"^max_rejects must be a non-negative integer, not {re.escape(repr(max_rejects))}$"
    with pytest.raises(DatasetError, match=match):
        generate_oc(case9, 0, max_rejects=max_rejects)
    cfg = GenerationConfig(n_samples=1, csc_list=("4-5",), seed=0, max_rejects=max_rejects)
    with pytest.raises(DatasetError, match=match):
        build_dataset(case9, cfg)


def test_generate_oc_takes_a_numpy_max_rejects(case9):
    assert generate_oc(case9, 0, max_rejects=np.int64(0))[3] == 0


def test_build_dataset_deterministic(case68):
    cfg = GenerationConfig(n_samples=8, tc_mix=0.25, tc_list=TC_LINES,
                           csc_list=CSC_LINES, seed=42)
    a = build_dataset(case68, cfg)
    b = build_dataset(case68, cfg)
    xa, ya = a.matrix()
    xb, yb = b.matrix()
    assert np.array_equal(xa, xb)
    assert np.array_equal(ya, yb)


def tc_columns(case, tc):
    """The three feature columns of branch ``tc``: i_mag, p_from, q_from."""
    names = feature_names(case)
    label = case.branches[case.find_branch(tc)].label()
    return [names.index(f"{kind}_br{label}") for kind in ("imag", "pf", "qf")]


def test_build_dataset_tc_count_exact(case68):
    """``sample_tcs`` gives exactly round(tc_mix * n) TCs; each such row has
    its branch's three channels exactly 0.0, and no other row has a zero in
    any TC-list channel."""
    cfg = GenerationConfig(n_samples=10, tc_mix=0.3, tc_list=TC_LINES,
                           csc_list=CSC_LINES, seed=1)
    ds = build_dataset(case68, cfg)
    tcs = sample_tcs(cfg)
    assert len(tcs) == 10
    assert sum(tc is not None for tc in tcs) == 3
    assert {tc for tc in tcs if tc is not None} <= set(TC_LINES)
    for i, tc in enumerate(tcs):
        for line in TC_LINES:
            values = ds.x[i, tc_columns(case68, line)]
            if line == tc:
                assert values.tolist() == [0.0, 0.0, 0.0], (i, tc)
            else:
                assert np.all(values != 0.0), (i, tc, line)


def rebuild_oc(case, factors, tc):
    """The operating condition a sample was drawn from, rebuilt from its
    load factors and TC."""
    oc = scale_loads(case, np.array(factors))
    base_p, _ = case.total_load()
    new_p, _ = oc.total_load()
    oc = reschedule_generation(oc, new_p - base_p)
    if tc:
        oc = apply_outage(oc, oc.find_branch(tc))
    return oc


def redrawn_oc(case, cfg, tcs, i):
    """Sample ``i`` drawn again: (its OC rebuilt independently from the
    drawn load factors, the draw's features)."""
    _, sol, factors, _ = generate_oc(case, (cfg.seed, i), cfg.scale_range, tc=tcs[i])
    return rebuild_oc(case, factors, tcs[i]), extract_features(sol, case)


def test_build_dataset_label_oracle(case68):
    """Re-derive one sample's row and label from its redrawn load factors."""
    cfg = GenerationConfig(n_samples=4, csc_list=CSC_LINES, seed=9)
    ds = build_dataset(case68, cfg)
    oc, features = redrawn_oc(case68, cfg, sample_tcs(cfg), 2)
    assert features.tobytes() == ds.x[2].tobytes()
    screen = run_contingency_screen(oc, solve_powerflow(oc), CSC_LINES)
    assert screen.label is (Label.SECURE, Label.INSECURE)[ds.y[2]]


def test_build_dataset_warm_start_keeps_flat_start_labels(case68):
    """Labelling warm-starts each contingency solve from the OC's solution;
    a flat-start exhaustive screen of the same OC must give the same label."""
    cfg = GenerationConfig(n_samples=20, tc_mix=0.3, tc_list=TC_LINES,
                           csc_list=CSC_LINES, seed=3)
    ds = build_dataset(case68, cfg)
    tcs = sample_tcs(cfg)
    assert sum(tc is not None for tc in tcs) == 6
    assert set(ds.y.tolist()) == {0, 1}
    for i in range(len(ds)):
        oc, features = redrawn_oc(case68, cfg, tcs, i)
        assert features.tobytes() == ds.x[i].tobytes(), i
        flat, _ = exhaustive_screen(oc, CSC_LINES, None)
        assert flat is (Label.SECURE, Label.INSECURE)[ds.y[i]], (i, tcs[i])


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


def test_build_dataset_reads_each_bus_band(case9):
    """The case's per-bus band decides the labels: every PQ bus of case9 at
    v_min 1.0 labels more samples Insecure than the case's own 0.9."""
    buses = tuple(dataclasses.replace(b, v_min=1.0) if b.kind is BusKind.PQ else b
                  for b in case9.buses)
    raised = dataclasses.replace(case9, buses=buses)
    cfg = GenerationConfig(n_samples=20, csc_list=("4-5", "7-8"), seed=3)
    plain, tight = (build_dataset(case, cfg).matrix()[1] for case in (case9, raised))
    assert tight.sum() > plain.sum()


def test_labelling_does_not_import_scipy():
    """The screen's ranking is numpy only: labelling a sample leaves scipy
    unimported."""
    code = (
        "import sys\n"
        "from gridsec.data import GenerationConfig, build_dataset\n"
        "from gridsec.model import load_bundled_case\n"
        f"cfg = GenerationConfig(n_samples=1, tc_mix=1.0, tc_list={TC_LINES!r}, "
        f"csc_list={CSC_LINES!r}, seed=5)\n"
        "build_dataset(load_bundled_case('case68'), cfg)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=unpinned_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_build_dataset_tc_mix_needs_tc_list(case68):
    cfg = GenerationConfig(n_samples=2, tc_mix=0.5, csc_list=CSC_LINES, seed=0)
    with pytest.raises(DatasetError, match="tc_list"):
        build_dataset(case68, cfg)


def _synthetic_dataset(n):
    """Random features; even rows Insecure (1), odd rows Secure (0)."""
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(n, 3)), (np.arange(n) + 1) % 2, ["a", "b", "c"])


def test_split_sizes_exact():
    ds = _synthetic_dataset(4000)
    splits = standardized_splits(ds, ds, 0.6, seed=0)
    assert [len(y) for _, y in splits] == [2400, 1600, 2400, 1600]
    assert [x.shape for x, _ in splits] == [(2400, 3), (1600, 3), (2400, 3), (1600, 3)]


def test_split_is_a_partition():
    ds = _synthetic_dataset(50)
    ds.x[:, 0] = np.arange(50)  # tag each sample
    # an all-zero initialization dataset has mean 0 and std 1 (pinned), so
    # the update splits of ``ds`` come back unscaled
    zeros = Dataset(np.zeros_like(ds.x), ds.y, ds.feature_names)
    _, _, (x_train, y_train), (x_test, y_test) = standardized_splits(zeros, ds, 0.5, seed=3)
    tags = sorted(np.concatenate([x_train[:, 0], x_test[:, 0]]).tolist())
    assert tags == [float(i) for i in range(50)]
    assert len(y_train) == len(y_test) == 25
    for x, y in ((x_train, y_train), (x_test, y_test)):  # each row keeps its own label
        assert y.tolist() == ds.y[x[:, 0].astype(int)].tolist()
        assert np.array_equal(x, ds.x[x[:, 0].astype(int)])


def test_split_deterministic():
    ds = _synthetic_dataset(100)
    update = _synthetic_dataset(60)
    a = standardized_splits(ds, update, 0.6, seed=5)
    b = standardized_splits(ds, update, 0.6, seed=5)
    for (xa, ya), (xb, yb) in zip(a, b, strict=True):
        assert np.array_equal(xa, xb)
        assert np.array_equal(ya, yb)


def test_split_rejects_bad_fraction():
    ds = _synthetic_dataset(10)
    with pytest.raises(DatasetError, match=r"train_fraction must lie in \(0, 1\)"):
        standardized_splits(ds, ds, 1.0, seed=0)
    with pytest.raises(DatasetError, match="3 samples at train_fraction 0.2 leave the train"):
        standardized_splits(ds, _synthetic_dataset(3), 0.2, seed=0)


def test_matrix_class_indices():
    ds = _synthetic_dataset(4)
    _, y = ds.matrix()
    # even indices Insecure (1), odd Secure (0)
    assert y.tolist() == [1, 0, 1, 0]


def test_benchmark_read_surface(case68):
    """What the benchmark reads of a dataset and of a draw: ``samples`` rows
    whose features are the rows of ``x`` and whose label is Secure exactly
    where ``y`` is 0, ``matrix()`` as ``(x, y)``, and the rejection count as
    ``generate_oc``'s fourth item."""
    ds = build_dataset(case68, GenerationConfig(n_samples=6, csc_list=CSC_LINES, seed=3))
    assert set(ds.y.tolist()) == {0, 1}
    rows = ds.samples
    assert len(rows) == len(ds) == 6
    for i, row in enumerate(rows):
        assert row.features.tobytes() == ds.x[i].tobytes()
        assert (row.label is Label.SECURE) == (ds.y[i] == 0)
        assert row.label in (Label.SECURE, Label.INSECURE)
    x, y = ds.matrix()
    assert x is ds.x and y is ds.y
    # replay the draw's (seed, attempt) stream: each rejection is one
    # attempt whose OC does not converge
    seed, scale = (1, 0), (1.0, 1.5)
    _, _, factors, rejects = generate_oc(case68, seed, scale)
    draws = [np.random.default_rng((*seed, a)).uniform(*scale, size=len(case68.loads))
             for a in range(rejects + 1)]
    converged = [solve_powerflow(rebuild_oc(case68, f, None)).converged for f in draws]
    assert converged == [False, False, False, True]
    assert draws[-1].tobytes() == factors.tobytes()


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


@pytest.mark.parametrize("scale_range, label, his, widened", [
    ((0.5, 0.6), 0, [0.6, 0.65, 0.7, 0.75], 0.75),  # all Secure: heavier loads are tried
    ((0.9, 1.0), 1, [1.0], None),  # all Insecure: heavier loads cannot make a Secure sample
])
def test_class_presence_guard_widens_only_all_secure_data(case9, tmp_path, monkeypatch,
                                                           scale_range, label, his, widened):
    """The guard reruns generation with a higher upper load bound only while
    every sample is Secure; an all-Insecure dataset takes one pass and its
    ``.meta`` records no widening."""
    passes = []
    draw = gridsec.data.generate_oc

    def counted(case, rng_seed, scale_range, **kwargs):
        if rng_seed[1] == 0:  # sample 0 opens every pass
            passes.append(scale_range[1])
        return draw(case, rng_seed, scale_range, **kwargs)

    monkeypatch.setattr(gridsec.data, "generate_oc", counted)
    cfg = GenerationConfig(n_samples=12, scale_range=scale_range, csc_list=("4-5", "7-8", "6-9"),
                           seed=1)
    ds = build_dataset(case9, cfg)
    assert set(ds.y.tolist()) == {label}
    assert passes == his
    assert ds.widened_scale_hi == widened
    save_dataset(ds, tmp_path / "data.csv", cfg)
    lines = (tmp_path / "data.csv.meta").read_text().splitlines()
    assert [l for l in lines if l.startswith("widened_scale_hi")] == (
        [] if widened is None else [f"widened_scale_hi: {widened}"])


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


@pytest.mark.parametrize("header, message", [
    ("a,,label", "column 2 has an empty feature name"),
    (",b,label", "column 1 has an empty feature name"),
    ("a,b,a,label", "column 3 repeats feature name 'a'"),
    ("a,label,label", "column 2 repeats feature name 'label'"),
], ids=["empty", "empty-first", "repeated", "label"])
def test_load_rejects_bad_header(tmp_path, header, message):
    path = tmp_path / "ds.csv"
    path.write_text(f"{header}\n" + "1.0," * (header.count(",")) + "0\n")
    with pytest.raises(DatasetError, match=rf"ds\.csv: {message}$"):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
def test_load_rejects_bad_feature(tmp_path, value):
    path = tmp_path / "ds.csv"
    path.write_text(f"a,b,label\n1.0,2.0,0\n1.0,{value},0\n")
    with pytest.raises(DatasetError, match=r"ds\.csv:3: non-(finite|numeric) feature"):
        load_dataset(path)


GOLDEN_DATASET = Path(__file__).parent / "data" / "golden_case68_dataset.csv"


# Run as ``python -c``: a caller that loads numpy, and so OpenBLAS, before gridsec.
NUMPY_FIRST = "import sys, numpy; from gridsec.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("blas_env,caller", [
    ({"OPENBLAS_NUM_THREADS": "1"}, ["-m", "gridsec.cli"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["-m", "gridsec.cli"]),
    ({}, ["-m", "gridsec.cli"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["-c", NUMPY_FIRST]),
], ids=["1-thread", "2-threads", "unset", "2-threads-numpy-first"])
def test_golden_case68_dataset(tmp_path, blas_env, caller):
    """A 60-sample case68 ``gridsec gen-dataset`` with 30% TCs and the 8
    criterion-6 CSCs writes the stored CSV and ``.meta`` byte for byte,
    whatever BLAS thread count the environment asks for, and also where the
    caller loaded numpy first: gridsec runs BLAS on one thread. A change to
    the solver, the screen or the case edits that moves any feature's last
    digit, or any label, fails here."""
    tc_list, csc_list = tmp_path / "tc.txt", tmp_path / "csc.txt"
    tc_list.write_text("\n".join(TC_LINES) + "\n")
    csc_list.write_text("\n".join(CSC_LINES) + "\n")
    out = tmp_path / "ds.csv"
    proc = subprocess.run(
        [sys.executable, *caller, "gen-dataset",
         "--case", str(bundled_case_path("case68")), "--n", "60", "--seed", "300",
         "--tc-mix", "0.3", "--tc-list", str(tc_list), "--csc-list", str(csc_list),
         "--out", str(out)],
        capture_output=True, text=True, env=unpinned_env(**blas_env),
    )
    assert proc.returncode == 0, proc.stderr
    assert_golden(out.read_bytes(), GOLDEN_DATASET)
    assert_golden(Path(f"{out}.meta").read_bytes(), Path(f"{GOLDEN_DATASET}.meta"))


def test_a_golden_mismatch_names_both_numpy_builds():
    """Bytes that differ from a golden fail with the build the goldens were
    recorded on and the running one, so a new numpy wheel reads as one."""
    recorded = json.loads(GOLDEN_BUILD.read_text(encoding="utf-8"))
    assert recorded.keys() == numpy_build().keys()
    assert_golden(GOLDEN_DATASET.read_bytes(), GOLDEN_DATASET)
    with pytest.raises(pytest.fail.Exception) as failed:
        assert_golden(b"", GOLDEN_DATASET)
    assert f"recorded on {recorded}, running on {numpy_build()}" in str(failed.value)


# --- samples on forked workers -----------------------------------------------

GUARD_CSCS = ("4-5", "7-8", "6-9")


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_one_sample_never_forks(case9, monkeypatch, forks, cpus):
    """A one-sample dataset, such as a benchmark label op, is labelled in
    this process at any CPU count: no fork, no pipe, no pickling."""
    use_cpus(monkeypatch, cpus)
    ds = build_dataset(case9, GenerationConfig(n_samples=1, csc_list=GUARD_CSCS, seed=4))
    assert len(ds) == 1
    assert forks == []


@pytest.mark.parametrize("case_name, cfg, passes", [
    ("case68", GenerationConfig(n_samples=60, tc_mix=0.3, tc_list=TC_LINES,
                                csc_list=CSC_LINES, seed=300), 1),  # the golden dataset's
    ("case9", GenerationConfig(n_samples=12, scale_range=(0.5, 0.6), csc_list=GUARD_CSCS,
                               seed=1), 4),  # widened 3 times
    ("case9", GenerationConfig(n_samples=12, scale_range=(0.9, 1.0), csc_list=GUARD_CSCS,
                               seed=1), 1),  # all Insecure
], ids=["golden", "guard-widens", "guard-all-insecure"])
def test_build_dataset_is_the_same_at_any_jobs(request, monkeypatch, forks, case_name, cfg,
                                               passes):
    """On 1 worker and on 2, 2 being one fork per pass, a dataset has the
    same bits, labels, rejections, provenance and widened bound, every
    widening pass included."""
    case = request.getfixturevalue(case_name)
    built = []
    for jobs in (1, 2):
        use_cpus(monkeypatch, jobs)
        forks.clear()
        ds = build_dataset(case, cfg)
        assert len(forks) == (jobs - 1) * passes
        built.append((ds.x.tobytes(), ds.y.tolist(), ds.rejections, ds.provenance,
                      ds.widened_scale_hi))
    assert built[0] == built[1]
    assert_no_children()


def test_a_worker_exhaustion_is_raised_for_the_lowest_sample(case9, monkeypatch):
    """On 2 workers, sample 1 runs in the child and sample 2 in this process;
    both exhaust their draws, after 2 and 3 of them. The parent raises
    sample 1's error, as 1 worker does."""
    draw = gridsec.data.generate_oc

    def exhausting(case, rng_seed, scale_range, tc=None, max_rejects=50):
        i = rng_seed[1]
        if i in (1, 2):  # no draw at 6x load converges
            return draw(case, rng_seed, (6.0, 6.0), tc=tc, max_rejects=i)
        return draw(case, rng_seed, scale_range, tc=tc, max_rejects=max_rejects)
    monkeypatch.setattr(gridsec.data, "generate_oc", exhausting)
    cfg = GenerationConfig(n_samples=6, csc_list=GUARD_CSCS, seed=0)
    for jobs in (1, 2):
        use_cpus(monkeypatch, jobs)
        with pytest.raises(DatasetError, match="^infeasible generation config: 2 draws in a row"):
            build_dataset(case9, cfg)
        assert_no_children()


def test_a_killed_labelling_worker_is_a_dataset_error(case9, monkeypatch):
    """A child that dies without sending its rows is an error naming its samples."""
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    draw = gridsec.data.generate_oc

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return draw(*args, **kwargs)
    monkeypatch.setattr(gridsec.data, "generate_oc", killed)
    with pytest.raises(DatasetError, match=r"^a labelling worker ended with status -9 and "
                                           r"no results for samples 1, 3, 5$"):
        build_dataset(case9, GenerationConfig(n_samples=6, csc_list=GUARD_CSCS, seed=0))
    assert_no_children()


def test_an_interrupted_parent_kills_its_labelling_worker(case9, monkeypatch):
    """An interrupt in this process's own samples kills and reaps the child
    at once, although its sample would take a minute."""
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def slow(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
    monkeypatch.setattr(gridsec.data, "generate_oc", slow)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        build_dataset(case9, GenerationConfig(n_samples=4, csc_list=GUARD_CSCS, seed=0))
    assert_no_children()
    assert time.monotonic() - start < 30
