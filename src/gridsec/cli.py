"""Command-line entry point.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error
(argparse's convention).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import data, train
from .errors import ExperimentError, GridSecError, SettingError, open_text
from .model import apply_outage, load_case
from .powerflow import trace_pv_curve
from .security import parse_contingency_list, screen_configurations

DATA_DIR_ENV = "GRIDSEC_DATA_DIR"


def _resolve(path):
    """Paths resolve against GRIDSEC_DATA_DIR unless absolute or existing."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get(DATA_DIR_ENV)
    if base and os.path.exists(os.path.join(base, path)):
        return os.path.join(base, path)
    return path


def cmd_case_validate(args):
    case = load_case(_resolve(args.case))
    p, q = case.total_load()
    in_service = len(case.branch_table.pos)
    print(f"buses: {len(case.buses)}")
    print(f"branches: {len(case.branches)} ({in_service} in service)")
    print(f"generators: {len(case.generators)}")
    print(f"loads: {len(case.loads)}")
    print(f"total_load_mw: {p:.6g}")
    print(f"total_load_mvar: {q:.6g}")
    return 0


def cmd_pv_curve(args):
    case = load_case(_resolve(args.case))
    if args.outage:
        case = apply_outage(case, case.find_branch(args.outage))
    curve = trace_pv_curve(case, args.bus, args.step)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("load_scale,v_mag\n")
        for scale, vm in curve.points:
            fh.write(f"{scale:.6f},{vm:.10f}\n")
    print(f"nose_scale: {curve.nose_scale:.6f}")
    return 0


def cmd_screen(args):
    case = load_case(_resolve(args.case))
    specs = _read_list(args.configs)
    if not specs:
        raise SettingError(f"no configurations to screen in {_resolve(args.configs)}")
    assessments = screen_configurations(case, specs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("configuration,pi_v,max_flow_delta_mw,category\n")
        for a in assessments:
            fh.write(
                f"{a.configuration},{a.pi_v:.6e},{a.max_flow_delta_mw:.3f},"
                f"{a.category.value}\n"
            )
    print(f"assessed {len(assessments)} configurations -> {args.out}")
    return 0


def _read_list(path):
    if not path:
        return ()
    with open_text(_resolve(path)) as fh:
        return tuple(parse_contingency_list(fh.read()))


def cmd_gen_dataset(args):
    case = load_case(_resolve(args.case))
    config = data.GenerationConfig(
        n_samples=args.n,
        scale_range=(args.scale_lo, args.scale_hi),
        tc_mix=args.tc_mix,
        tc_list=_read_list(args.tc_list),
        csc_list=_read_list(args.csc_list),
        seed=args.seed,
    )
    ds = data.build_dataset(case, config)
    data.save_dataset(ds, args.out, config)
    print(f"wrote {len(ds)} samples to {args.out} "
          f"(secure {int((ds.y == 0).sum())}, insecure {int((ds.y == 1).sum())}, "
          f"rejections {ds.rejections})")
    return 0


def _write_summaries(results, epochs, out_dir):
    """summary_train.csv and summary_test.csv at the checkpoint ``epochs`` in
    ``out_dir``; returns their paths."""
    paths = []
    for split in ("train", "test"):
        header, rows = train.summarize(results, epochs, split)
        paths.append(os.path.join(out_dir, f"summary_{split}.csv"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    return paths


def cmd_train(args):
    with open_text(_resolve(args.config)) as fh:
        cfg = train.parse_experiment_config(fh.read())
    os.makedirs(args.out_dir, exist_ok=True)
    results = train.run_experiment(cfg)
    for algorithm, runs in results.items():
        for run in runs:
            path = os.path.join(args.out_dir, f"{algorithm}_seed{run.seed}.log.csv")
            train.write_log(path, run)
    _write_summaries(results, train.checkpoints(cfg.init_epochs, cfg.update_epochs),
                     args.out_dir)
    print(f"wrote logs and summaries to {args.out_dir}")
    return 0


def cmd_report(args):
    logs = sorted(
        f for f in os.listdir(args.log_dir) if f.endswith(".log.csv")
    )
    if not logs:
        raise ExperimentError(f"no .log.csv files in {args.log_dir}")
    runs, seen, by_alg = [], {}, {}
    for f in logs:
        path = os.path.join(args.log_dir, f)
        run = train.read_log(path)
        first = seen.setdefault((run.algorithm, run.seed), path)
        if first != path:
            raise ExperimentError(f"{first} and {path} both log {run.algorithm} seed {run.seed}")
        runs.append(run)
        by_alg.setdefault(run.algorithm, []).append(run)
    # infer checkpoint epochs from the logs themselves
    last = {}
    for phase in (train.PHASE_INIT, train.PHASE_UPDATE):
        epochs = [r.epoch for run in runs for r in run.rows if r.phase == phase]
        if not epochs:
            raise ExperimentError(f"{args.log_dir}: no {phase} rows in the training logs")
        last[phase] = max(epochs)
    epochs = train.checkpoints(last[train.PHASE_INIT], last[train.PHASE_UPDATE])
    # a run that never diverged logged every checkpoint: lacking one, its log is cut short
    for run in runs:
        if run.rows[-1].diverged:  # a diverged row is a log's last
            continue
        logged = {(r.phase, r.epoch) for r in run.rows}
        for phase, checkpoint_epochs in zip((train.PHASE_INIT, train.PHASE_UPDATE), epochs):
            missing = [e for e in checkpoint_epochs if (phase, e) not in logged]
            if missing:
                raise ExperimentError(f"{seen[run.algorithm, run.seed]}: no {phase} row at "
                                      f"checkpoint epoch {missing[0]}")
    out_dir = args.out or args.log_dir
    os.makedirs(out_dir, exist_ok=True)
    for path in _write_summaries(by_alg, epochs, out_dir):
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridsec",
        description="Contingency-labeled dataset generation and online-trained "
                    "neural security classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("case-validate", help="parse and validate a case file")
    p.add_argument("--case", required=True, help="case file path")
    p.set_defaults(func=cmd_case_validate)

    p = sub.add_parser("pv-curve", help="trace a load-scaling PV curve")
    p.add_argument("--case", required=True, help="case file path")
    p.add_argument("--bus", required=True, type=int, help="monitored bus id")
    p.add_argument("--step", type=float, default=0.05, help="load-scale increment")
    p.add_argument("--outage", help="branch label to switch out first (from-to[:circuit])")
    p.add_argument("--out", required=True, help="output CSV of (load_scale, v_mag)")
    p.set_defaults(func=cmd_pv_curve)

    p = sub.add_parser("screen", help="categorize candidate configurations by PI_V")
    p.add_argument("--case", required=True, help="case file path")
    p.add_argument("--configs", required=True, help="file with one branch label per line")
    p.add_argument("--out", required=True, help="output report CSV")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("gen-dataset", help="generate a labeled OC dataset")
    p.add_argument("--case", required=True, help="case file path")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    defaults = data.GenerationConfig
    lo, hi = defaults.scale_range
    p.add_argument("--seed", type=int, default=defaults.seed, help="generation seed")
    p.add_argument("--scale-lo", type=float, default=lo, help="lower load-scale bound")
    p.add_argument("--scale-hi", type=float, default=hi, help="upper load-scale bound")
    p.add_argument("--tc-mix", type=float, default=defaults.tc_mix,
                   help="fraction of samples with a TC")
    p.add_argument("--tc-list", help="file listing TC branch labels")
    p.add_argument("--csc-list", required=True, help="file listing CSC branch labels")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", help="run the two-phase online-learning experiment")
    p.add_argument("--config", required=True, help="experiment INI file")
    p.add_argument("--out-dir", required=True, help="directory for logs and summaries")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="rebuild summary tables from training logs")
    p.add_argument("--log-dir", required=True, help="directory containing .log.csv files")
    p.add_argument("--out", help="directory for summaries (default: log dir)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GridSecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
