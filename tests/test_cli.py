import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gridsec.cli import build_parser, main
from gridsec.model import bundled_case_path
from gridsec.train import PHASE_INIT, PHASE_UPDATE, LogRow, RunResult, write_log

from tests.conftest import CSC_LINES_9BUS, unpinned_env

CASE2 = str(bundled_case_path("case2"))
CASE9 = str(bundled_case_path("case9"))
CASE68 = str(bundled_case_path("case68"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("case-validate", "pv-curve", "screen", "gen-dataset",
                "train", "report"):
        assert cmd in out


@pytest.mark.parametrize("command,flags", [
    ("case-validate", ["--case"]),
    ("pv-curve", ["--case", "--bus", "--step", "--outage", "--out"]),
    ("screen", ["--case", "--configs", "--out"]),
    ("gen-dataset", ["--case", "--n", "--seed", "--scale-lo", "--scale-hi",
                     "--tc-mix", "--tc-list", "--csc-list", "--out"]),
    ("train", ["--config", "--out-dir"]),
    ("report", ["--log-dir", "--out"]),
])
def test_subcommand_help_covers_flags(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pv-curve", "--case", CASE2, "--out", "x.csv"])  # missing --bus
    assert exc.value.code == 2


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_case_validate_output(capsys):
    code, out, _ = run_cli(capsys, "case-validate", "--case", CASE68)
    assert code == 0
    assert "buses: 68" in out
    assert "branches: 83 (83 in service)" in out
    assert "generators: 16" in out
    assert "loads: 52" in out


def test_case_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "case-validate", "--case", "/no/such.case")
    assert code == 1
    assert "error:" in err


def test_pv_curve_nose(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(capsys, "pv-curve", "--case", CASE2,
                              "--bus", "2", "--step", "0.05", "--out", str(out))
    assert code == 0
    nose = float(stdout.split("nose_scale:")[1])
    assert nose == pytest.approx(5.0, abs=0.05)
    lines = out.read_text().splitlines()
    assert lines[0] == "load_scale,v_mag"
    assert len(lines) > 2


def test_pv_curve_islanding_outage_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "pv-curve", "--case", CASE2, "--bus", "2",
                           "--outage", "1-2", "--out", str(tmp_path / "c.csv"))
    assert code == 1
    assert "error:" in err


def test_screen_report(tmp_path, capsys):
    configs = tmp_path / "configs.txt"
    configs.write_text("4-5\n7-8\n6-9\n")
    out = tmp_path / "screen.csv"
    code, stdout, _ = run_cli(capsys, "screen", "--case", CASE9,
                              "--configs", str(configs), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "configuration,pi_v,max_flow_delta_mw,category"
    assert len(lines) == 4
    pivs = [float(l.split(",")[1]) for l in lines[1:]]
    assert pivs == sorted(pivs, reverse=True)


def _write_csc_list(path):
    path.write_text("\n".join(CSC_LINES_9BUS) + "\n")


def test_gen_dataset_deterministic(tmp_path, capsys):
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    args = ["gen-dataset", "--case", CASE9, "--n", "6", "--seed", "3",
            "--csc-list", str(csc)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run_cli(capsys, *args, "--out", str(a))
    code2, _, _ = run_cli(capsys, *args, "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_dataset_no_samples_exit_1(tmp_path, capsys):
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    code, _, err = run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", "0",
                           "--csc-list", str(csc), "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert err == "error: n_samples must be >= 1\n"
    assert not (tmp_path / "out.csv").exists()


def test_gen_dataset_seed_changes_output(tmp_path, capsys):
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", "4", "--seed", "0",
            "--csc-list", str(csc), "--out", str(a))
    run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", "4", "--seed", "1",
            "--csc-list", str(csc), "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_data_dir_env_resolution(tmp_path, capsys, monkeypatch):
    configs = tmp_path / "configs.txt"
    configs.write_text("4-5\n")
    monkeypatch.setenv("GRIDSEC_DATA_DIR", str(tmp_path))
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(capsys, "screen", "--case", CASE9,
                         "--configs", "configs.txt", "--out", str(out))
    assert code == 0


def _train_once(tmp_path, capsys, out_dir):
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    ds = tmp_path / "ds.csv"
    code, _, _ = run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", "30",
                         "--seed", "0", "--csc-list", str(csc), "--out", str(ds))
    assert code == 0
    ini = tmp_path / "exp.ini"
    ini.write_text(f"""\
[experiment]
init_dataset = {ds}
update_dataset = {ds}
init_epochs = 20
update_epochs = 20
eval_every = 5
seeds = 0
hidden = 8
algorithms = sgd adam
""")
    code, _, _ = run_cli(capsys, "train", "--config", str(ini),
                         "--out-dir", str(out_dir))
    assert code == 0
    return out_dir


def test_train_and_report_pipeline(tmp_path, capsys):
    out_dir = _train_once(tmp_path, capsys, tmp_path / "run1")
    files = sorted(os.listdir(out_dir))
    assert "sgd_seed0.log.csv" in files
    assert "adam_seed0.log.csv" in files
    assert "summary_train.csv" in files and "summary_test.csv" in files

    header = (out_dir / "summary_train.csv").read_text().splitlines()[0]
    # algorithm + 2 init checkpoints + 4 update checkpoints
    assert len(header.split(",")) == 7

    report_dir = tmp_path / "report" / "new"  # made by report, as train makes its out dir
    code, _, _ = run_cli(capsys, "report", "--log-dir", str(out_dir),
                         "--out", str(report_dir))
    assert code == 0
    # report orders algorithms by log filename; same header and rows
    for name in ("summary_train.csv", "summary_test.csv"):
        got = (report_dir / name).read_text().splitlines()
        want = (out_dir / name).read_text().splitlines()
        assert got[0] == want[0]
        assert sorted(got[1:]) == sorted(want[1:])


def test_train_reruns_byte_identical(tmp_path, capsys):
    a = _train_once(tmp_path, capsys, tmp_path / "runA")
    b = _train_once(tmp_path, capsys, tmp_path / "runB")
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="2 workers need two usable CPUs")
def test_train_output_is_the_same_at_any_jobs(tmp_path, capsys):
    """``gridsec train``, with no BLAS thread-count variable set, writes the
    same bytes on one worker (the process pinned to one CPU) as on one per
    usable CPU, for 2 seeds x 7 algorithms."""
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    ds = tmp_path / "ds.csv"
    assert run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", "30", "--seed", "0",
                   "--csc-list", str(csc), "--out", str(ds))[0] == 0
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\ninit_dataset = {ds}\nupdate_dataset = {ds}\n"
                   "init_epochs = 20\nupdate_epochs = 20\neval_every = 5\nseeds = 0 1\n"
                   "hidden = 8\n")
    env = unpinned_env()
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = []
    for cpus, preexec in (("one", lambda: os.sched_setaffinity(0, one_cpu)), ("all", None)):
        out_dir = tmp_path / cpus
        done = subprocess.run([sys.executable, "-m", "gridsec.cli", "train", "--config", str(ini),
                               "--out-dir", str(out_dir)], preexec_fn=preexec,
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        outputs.append({name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)})
    assert len(outputs[0]) == 7 * 2 + 2  # a log per run and two summaries
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="2 workers need two usable CPUs")
def test_gen_dataset_output_is_the_same_at_any_jobs(tmp_path):
    """``gridsec gen-dataset``, with no BLAS thread-count variable set, writes
    the same CSV and ``.meta`` on one worker (the process pinned to one CPU)
    as on one per usable CPU."""
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    env = unpinned_env()
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = []
    for cpus, preexec in (("one", lambda: os.sched_setaffinity(0, one_cpu)), ("all", None)):
        ds = tmp_path / f"{cpus}.csv"
        done = subprocess.run([sys.executable, "-m", "gridsec.cli", "gen-dataset", "--case", CASE9,
                               "--n", "40", "--seed", "7", "--csc-list", str(csc),
                               "--out", str(ds)], preexec_fn=preexec,
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        outputs.append((ds.read_bytes(), Path(f"{ds}.meta").read_bytes()))
    assert outputs[0] == outputs[1]


def test_report_empty_dir_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--log-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and "no .log.csv" in err


def test_train_split_with_an_empty_side_exit_1(tmp_path, capsys):
    """A dataset too small for train_fraction, one sample or a header alone,
    is one error line naming it, before any training."""
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    tiny, ds = tmp_path / "tiny.csv", tmp_path / "ds.csv"
    for path, n in ((tiny, "1"), (ds, "4")):
        code, _, _ = run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", n, "--seed", "0",
                             "--csc-list", str(csc), "--out", str(path))
        assert code == 0
    empty = tmp_path / "empty.csv"
    empty.write_text(ds.read_text().splitlines(keepends=True)[0])
    for init, n in ((tiny, 1), (empty, 0)):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\ninit_dataset = {init}\nupdate_dataset = {ds}\n"
                       "train_fraction = 0.6\n")
        out_dir = tmp_path / f"train_{n}"
        code, _, err = run_cli(capsys, "train", "--config", str(ini), "--out-dir", str(out_dir))
        assert code == 1
        assert err == (f"error: {init}: {n} samples at train_fraction 0.6 "
                       "leave the train split empty\n")
        assert not os.listdir(out_dir)


@pytest.mark.parametrize("logged, missing",
                         [(PHASE_INIT, PHASE_UPDATE), (PHASE_UPDATE, PHASE_INIT)])
def test_report_missing_phase_exit_1(tmp_path, capsys, logged, missing):
    run = RunResult("sgd", 0, [LogRow(logged, 1, 0.5, 0.9, 0.8)])
    write_log(tmp_path / "sgd_seed0.log.csv", run)
    code, _, err = run_cli(capsys, "report", "--log-dir", str(tmp_path))
    assert code == 1
    assert f"no {missing} rows" in err


@pytest.mark.parametrize("row", [
    "sgd,0,Update,5,0.5,0.9,0.8",  # a column short
    "sgd,0,Update,5,0.5,0.9,0.8,0,extra",  # a column over
    "sgd,zero,Update,5,0.5,0.9,0.8,0",
    "sgd,0,Update,five,0.5,0.9,0.8,0",
    "sgd,0,Update,5,0.5,high,0.8,0",
    "sgd,0,Update,5,0.5,0.9,0.8,no",
    "adam,0,Update,5,0.5,0.9,0.8,0",  # another run's algorithm
    "sgd,3,Update,5,0.5,0.9,0.8,0",  # another run's seed
    "sgd,0,Warmup,2,0.5,0.9,0.8,0",  # no such phase
    "adam,3,Warmup,2,0.5,0.9,0.8,0",
    "sgd,0,Update,2,0.5,0.9,0.8,7",  # a diverged flag other than 0 or 1
    "sgd,0,Update,2,nan,0.9,0.8,0",  # a non-finite loss on a row that did not diverge
    "sgd,0,Update,2,0.5,1.5,0.8,0",  # an accuracy above 1 ...
    "sgd,0,Update,2,0.5,0.9,-3.0,0",  # ... or below 0
    "sgd,0,Update,2,nan,1.5,-3.0,7",
    "sgd,0,Initialization,1,0.5,0.9,0.8,0",  # a repeated epoch
    "sgd,0,Update,0,0.5,0.9,0.8,0",  # an epoch below 1
    "sgd,0,Update,2,0.5,0.9,0.8,0\nsgd,0,Initialization,3,0.5,0.9,0.8,0",  # phases out of order
    "sgd,0,Update,2,nan,nan,nan,1\nsgd,0,Update,3,0.5,0.9,0.8,0",  # a row after divergence
])
def test_report_bad_log_row_exit_1(tmp_path, capsys, row):
    """The last of the appended rows is the bad one."""
    run = RunResult("sgd", 0, [LogRow(PHASE_INIT, 1, 0.5, 0.9, 0.8)])
    path = tmp_path / "sgd_seed0.log.csv"
    write_log(path, run)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    code, _, err = run_cli(capsys, "report", "--log-dir", str(tmp_path))
    assert code == 1
    bad = row.splitlines()[-1]
    assert f"sgd_seed0.log.csv:{2 + len(row.splitlines())}: bad log row {bad!r}" in err


def _complete_log(algorithm, init_epochs, update_epochs):
    return RunResult(algorithm, 0, [LogRow(phase, e, 0.5, 0.9, 0.8)
                                    for phase, epochs in ((PHASE_INIT, init_epochs),
                                                          (PHASE_UPDATE, update_epochs))
                                    for e in epochs])


def test_report_truncated_log_exit_1(tmp_path, capsys):
    """A log that lacks a checkpoint the other logs reach, and has no
    diverged row, is cut short, not diverged; a diverged log may stop early."""
    write_log(tmp_path / "sgd_seed0.log.csv", _complete_log("sgd", (1, 2, 4), (1, 2, 3, 4)))
    diverged = RunResult("nag", 0, [LogRow(PHASE_INIT, 1, 0.5, 0.9, 0.8),
                                    LogRow(PHASE_INIT, 2, *[float("nan")] * 3, diverged=True)])
    write_log(tmp_path / "nag_seed0.log.csv", diverged)
    code, _, _ = run_cli(capsys, "report", "--log-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "summary_train.csv").read_text().splitlines()[1:] == [
        "nag,div,div,div,div,div,div", "sgd,0.9000,0.9000,0.9000,0.9000,0.9000,0.9000"]
    truncated = tmp_path / "adam_seed0.log.csv"
    write_log(truncated, _complete_log("adam", (1,), (1,)))
    code, _, err = run_cli(capsys, "report", "--log-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: {truncated}: no Initialization row at checkpoint epoch 2\n"


def test_report_same_run_twice_exit_1(tmp_path, capsys):
    run = RunResult("sgd", 0, [LogRow(PHASE_INIT, 1, 0.5, 0.9, 0.8),
                               LogRow(PHASE_UPDATE, 1, 0.4, 0.9, 0.8)])
    first, copy = tmp_path / "sgd_seed0.log.csv", tmp_path / "sgd_seed0_copy.log.csv"
    write_log(first, run)
    write_log(copy, run)
    code, _, err = run_cli(capsys, "report", "--log-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: {first} and {copy} both log sgd seed 0\n"


def test_report_header_only_log_exit_1(tmp_path, capsys):
    good = RunResult("sgd", 0, [LogRow(PHASE_INIT, 1, 0.5, 0.9, 0.8),
                                LogRow(PHASE_UPDATE, 1, 0.4, 0.9, 0.8)])
    write_log(tmp_path / "sgd_seed0.log.csv", good)
    write_log(tmp_path / "adam_seed0.log.csv", RunResult("adam", 0, []))
    code, _, err = run_cli(capsys, "report", "--log-dir", str(tmp_path))
    assert code == 1
    assert "adam_seed0.log.csv: no log rows" in err


@pytest.mark.parametrize("command, message", [
    (["case-validate"], "bus 5: v_min must be below v_max"),
    (["gen-dataset", "--tc-mix", "1.5"], "tc_mix must lie in [0, 1]"),
    (["gen-dataset", "--tc-mix", "-0.5"], "tc_mix must lie in [0, 1]"),
    (["pv-curve", "--bus", "999"], "no bus 999 in case"),
    (["pv-curve", "--bus", "5", "--step", "0"], "step must be positive"),
    (["pv-curve", "--bus", "5", "--outage", "7-8:x"], "bad branch label '7-8:x'"),
    (["pv-curve", "--bus", "5", "--step", "nan"], "step must be positive and finite"),
    (["pv-curve", "--bus", "5", "--step", "inf"], "step must be positive and finite"),
    (["gen-dataset", "--scale-lo", "-2", "--scale-hi", "-1"], "bad scale range [-2.0, -1.0]"),
    (["gen-dataset", "--seed", "-1"], "seed must be non-negative, not -1"),
    (["screen"], "no configurations to screen in"),
    (["pv-curve", "--bus", "5", "--step", "1e-13"], "step 1e-13 could take more than 1e6 solves"),
    (["pv-curve", "--bus", "5", "--step", "1e-9"], "step 1e-09 could take more than 1e6 solves"),
])
def test_bad_study_input_exit_1(tmp_path, capsys, command, message):
    """A bad value is one error line and exit 1, not a traceback."""
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    tc = tmp_path / "tc.txt"
    tc.write_text("5-7\n")
    configs = tmp_path / "configs.txt"
    configs.write_text("# comments only\n\n")
    # bus 5's band turned upside down
    band = tmp_path / "band.case"
    band.write_text(Path(CASE9).read_text(encoding="utf-8").replace(
        "5 pq    230.0 -     0.9 1.1", "5 pq    230.0 -     1.1 0.9"))
    out = ["--out", str(tmp_path / "out.csv")]
    case, args = {
        "case-validate": (band, []),
        "gen-dataset": (CASE9, ["--n", "4", "--csc-list", str(csc), "--tc-list", str(tc), *out]),
        "pv-curve": (CASE9, out),
        "screen": (CASE9, ["--configs", str(configs), *out]),
    }[command[0]]
    code, _, err = run_cli(capsys, *command, "--case", str(case), *args)
    assert code == 1
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("tc, message", [
    ("4-5", "branch 4-5 is both a TC and a CSC (4-5)"),
    ("1-4", "TC 1-4 from the TC list islands the network"),
    ("7-5", "TC 7-5 from the TC list repeats 5-7"),
])
def test_gen_dataset_bad_tc_list_exit_1(tmp_path, capsys, tc, message):
    """A TC that is also a CSC, that islands the case or that repeats another
    in either orientation is one error line naming it and exit 1, before any
    sample is drawn."""
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    tcs = tmp_path / "tc.txt"
    tcs.write_text(f"5-7\n{tc}\n")
    code, _, err = run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", "4",
                           "--tc-mix", "0.5", "--tc-list", str(tcs), "--csc-list", str(csc),
                           "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("out_of_service, cscs, message", [
    (True, "4-5\n7-8\n", "CSC 7-8 from the CSC list is already out of service"),
    (False, "4-5\n7-8\n5-4\n", "CSC 5-4 from the CSC list repeats 4-5"),
], ids=["out-of-service", "repeated"])
def test_gen_dataset_bad_csc_list_exit_1(tmp_path, capsys, out_of_service, cscs, message):
    """A CSC that the case has out of service, or one listed twice in either
    orientation, is one error line naming it, with no TC list and before
    any sample is drawn."""
    text = Path(CASE9).read_text(encoding="utf-8")
    if out_of_service:
        text = text.replace("7 8 0.0085 0.072  0.149 1.0 250.0 1",
                            "7 8 0.0085 0.072  0.149 1.0 250.0 0")
    case = tmp_path / "case9.case"
    case.write_text(text)
    csc = tmp_path / "csc.txt"
    csc.write_text(cscs)
    code, _, err = run_cli(capsys, "gen-dataset", "--case", str(case), "--n", "4",
                           "--csc-list", str(csc), "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, message", [
    (["gen-dataset", "--tc-mix", "0.5"], "TC 7-8 from the TC list is already out of service"),
    (["screen"], "branch 7-8 is already out of service"),
    (["pv-curve", "--bus", "5", "--outage", "7-8"], "branch 7-8 is already out of service"),
], ids=["gen-dataset", "screen", "pv-curve"])
def test_branch_already_out_exit_1(tmp_path, capsys, command, message):
    """A branch the case has out of service, given as a TC, a configuration
    or an outage, is one error line naming it; a TC is rejected before any
    sample is drawn."""
    case = tmp_path / "case9.case"
    case.write_text(Path(CASE9).read_text(encoding="utf-8").replace(
        "7 8 0.0085 0.072  0.149 1.0 250.0 1", "7 8 0.0085 0.072  0.149 1.0 250.0 0"))
    csc = tmp_path / "csc.txt"
    csc.write_text("4-5\n6-9\n")
    tc = tmp_path / "tc.txt"
    tc.write_text("7-8\n")
    configs = tmp_path / "configs.txt"
    configs.write_text("4-5\n7-8\n")
    args = {"gen-dataset": ["--n", "4", "--csc-list", str(csc), "--tc-list", str(tc)],
            "pv-curve": [], "screen": ["--configs", str(configs)]}[command[0]]
    code, _, err = run_cli(capsys, *command, "--case", str(case), *args,
                           "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_train_dataset_without_features_exit_1(tmp_path, capsys):
    """A dataset whose header holds only the label column is one error line
    naming it, before any training."""
    bare = tmp_path / "bare.csv"
    bare.write_text("label\n1\n0\n1\n0\n1\n")
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\ninit_dataset = {bare}\nupdate_dataset = {bare}\n")
    code, _, err = run_cli(capsys, "train", "--config", str(ini),
                           "--out-dir", str(tmp_path / "train"))
    assert code == 1
    assert err == f"error: {bare}: no feature columns\n"


def test_readme_cli_block_runs(tmp_path):
    """The README's CLI walk-through runs as written under ``bash -e``, in a
    fresh directory, with ``gridsec`` as ``python -m gridsec.cli`` and the
    case paths read from the repository root."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    env = unpinned_env(GRIDSEC_DATA_DIR=str(root))
    script = f'gridsec() {{ {shlex.quote(sys.executable)} -m gridsec.cli "$@"; }}\n' + block
    done = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    for name in ("curve.csv", "screen.csv", "init.csv", "update.csv",
                 "runs/summary_train.csv", "runs/summary_test.csv"):
        assert (tmp_path / name).is_file(), name


def test_parser_prog_name():
    assert build_parser().prog == "gridsec"


@pytest.mark.parametrize("bad_file", ["case", "csc", "tc", "configs", "config", "dataset", "log"])
def test_non_utf8_input_exit_1(tmp_path, capsys, bad_file):
    """An input file that is not UTF-8 text is one error line naming it."""
    csc = tmp_path / "csc.txt"
    _write_csc_list(csc)
    ds = tmp_path / "ds.csv"
    assert run_cli(capsys, "gen-dataset", "--case", CASE9, "--n", "4", "--seed", "0",
                   "--csc-list", str(csc), "--out", str(ds))[0] == 0
    (tmp_path / "logs").mkdir()
    bad = tmp_path / ("logs/sgd_seed0.log.csv" if bad_file == "log" else "latin1.txt")
    bad.write_bytes(b"# caf\xe9\n")
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\ninit_dataset = {ds}\nupdate_dataset = {bad}\n")
    gen = ["gen-dataset", "--n", "2", "--out", tmp_path / "out.csv"]
    argv = {
        "case": gen + ["--case", bad, "--csc-list", csc],
        "csc": gen + ["--case", CASE9, "--csc-list", bad],
        "tc": gen + ["--case", CASE9, "--csc-list", csc, "--tc-list", bad],
        "configs": ["screen", "--case", CASE9, "--configs", bad, "--out", tmp_path / "out.csv"],
        "config": ["train", "--config", bad, "--out-dir", tmp_path / "train"],
        "dataset": ["train", "--config", ini, "--out-dir", tmp_path / "train"],
        "log": ["report", "--log-dir", bad.parent],
    }[bad_file]
    code, _, err = run_cli(capsys, *map(str, argv))
    assert code == 1
    assert err.startswith(f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("row, message", [
    ("1 2 0.0 0.1 0.0 0.0 600.0 1", "branch 1-2: tap must be positive"),
    ("1 2 0.0 0.1 0.0 1.0 600.0 7", "line 11: bad in_service flag '7'"),
    ("1 2 0.0 0.1 0.0 1.0 600.0 1\n2 1 0.0 0.1 0.0 1.0 600.0 1",
     "branch 2-1: same ends and circuit as branch 1-2"),
], ids=["tap-0", "flag-7", "duplicate-branch"])
def test_bad_case_value_exit_1(tmp_path, capsys, row, message):
    """A zero tap, an in_service flag other than 0 or 1, or a second branch
    on the same ends and circuit is one error line."""
    case = tmp_path / "bad.case"
    case.write_text(Path(CASE2).read_text(encoding="utf-8").replace(
        "1 2 0.0 0.1 0.0 1.0 600.0 1", row))
    code, _, err = run_cli(capsys, "case-validate", "--case", str(case))
    assert code == 1
    assert err == f"error: {message}\n"
