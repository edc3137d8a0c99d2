"""Command-line front end: single runs, ablation grids, suites, stream export.

Reports are JSON with sorted keys and no timing by default, so a repeated
run with the same config writes an identical file. Wall time goes to the
console (or into the file with --timing).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .baselines import BASELINES
from .errors import ConfigError, DivergenceError
from .harness import NETWORK_LEARNERS, MetricsReport, RunConfig, prequential_run
from .streams import parse_stream_spec, write_stream_csv

ABLATION_LEARNERS = NETWORK_LEARNERS[::-1]     # bodl-base, bodl-1, bodl-2


def _add_run_options(p: argparse.ArgumentParser, with_learner: bool = True) -> None:
    """RunConfig-backed flags; a flag left out is suppressed, so RunConfig's default applies."""
    p.add_argument("--stream", required=True,
                   help="stream spec: csv:<path> | sea:... | hyperplane:...")
    if with_learner:
        p.add_argument("--learner", help=" | ".join([*NETWORK_LEARNERS, *BASELINES]))
    p.add_argument("--eta", type=float, help="head reweighting rate, in (0, 14]")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="similarity penalty weight (default per learner)")
    p.add_argument("--lr", type=float, help="optimizer step size")
    p.add_argument("--layers", dest="hidden_layers", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--mem", dest="memory_capacity", type=int, help="episodic memory capacity")
    p.add_argument("--mu", dest="inner_rate", type=float, help="adaptation step size on drift")
    p.add_argument("--gamma", dest="outer_rate", type=float,
                   help="interpolation rate toward the replay-refined copy")
    p.add_argument("--inner", dest="inner_steps", type=int,
                   help="adaptation steps over the recent window")
    p.add_argument("--batch", dest="memory_batch", type=int,
                   help="memory batch size for the replay step")
    p.add_argument("--window", dest="recent_window", type=int,
                   help="how many of the latest rows the drift response adapts on")
    p.add_argument("--detector-min", dest="detector_min_instances", type=int)
    p.add_argument("--detector-k", dest="detector_sensitivity", type=float)
    p.add_argument("--no-standardize", dest="standardize", action="store_false")


def _config_from_args(args: argparse.Namespace, **overrides) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    kw = {k: v for k, v in vars(args).items() if k in names}
    kw.update(overrides)
    return RunConfig(**kw)


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split("..", 1))
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--seeds {text!r} is neither a range like 1..5 "
                          "nor a list like 3,7,11") from None
    if ".." in text and not seeds:
        raise ConfigError(f"--seeds {text!r} is an empty range")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"--seeds {text!r} has a negative seed; seeds must be >= 0")
    return seeds


def _write_report(report: MetricsReport, path: str, timing: bool) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    data = report.as_dict()
    if timing:
        data["wall_time_s"] = float(report.wall_time)
    text = json.dumps(data, sort_keys=True, indent=2)
    target.write_text(text + "\n")


def _summary_line(report: MetricsReport, metrics: dict) -> str:
    return (f"accuracy {metrics['accuracy']:.4f}  macro_f1 {metrics['macro_f1']:.4f}  "
            f"drift_events {len(report.drift_events)}  "
            f"instances {metrics['total']}  [{report.wall_time:.2f}s]")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    report = prequential_run(cfg)
    print(f"{cfg.learner} on {report.stream_info['provenance']}: "
          f"{_summary_line(report, report.metrics())}")
    if args.out:
        _write_report(report, args.out, args.timing)
        print(f"report written to {args.out}")
    return 0


TABLE_COLUMNS = ["learner", "stream", "seed", "accuracy", "macro_precision",
                 "macro_recall", "macro_f1", "drift_events", "error"]


def _run_table(runs: list[tuple[RunConfig, str | None]], writer,
               timing: bool) -> list[MetricsReport | None]:
    """Run the (config, report path) pairs in order, one table row each, past
    any failed run. Returns the reports, with None where a run failed."""
    writer.writerow(TABLE_COLUMNS)
    reports = []
    for cfg, out in runs:
        tag = f"{cfg.learner} on {cfg.stream} seed {cfg.seed}"
        try:
            rep = prequential_run(cfg)
            if out:
                _write_report(rep, out, timing)
        except Exception as exc:  # noqa: BLE001 - one failed run must not stop the suite
            error = f"{type(exc).__name__}: {exc}"
            writer.writerow([cfg.learner, cfg.stream, cfg.seed, "", "", "", "", "", error])
            print(f"{tag}: FAILED ({error})", file=sys.stderr)
            reports.append(None)
            continue
        m = rep.metrics()
        writer.writerow([cfg.learner, cfg.stream, cfg.seed,
                         f"{m['accuracy']:.6f}", f"{m['macro_precision']:.6f}",
                         f"{m['macro_recall']:.6f}", f"{m['macro_f1']:.6f}",
                         len(rep.drift_events), ""])
        print(f"{tag}: {_summary_line(rep, m)}")
        reports.append(rep)
    return reports


def cmd_ablate(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ConfigError("at least one seed is required")
    configs = [
        _config_from_args(args, learner=learner, seed=seed,
                          # an explicit lambda applies to the variants that use it
                          **({"lam": None} if learner == "bodl-base" else {}))
        for learner in ABLATION_LEARNERS for seed in seeds
    ]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        reports = _run_table([(cfg, None) for cfg in configs], writer, timing=False)
        for learner in ABLATION_LEARNERS:
            accs = [rep.accuracy for cfg, rep in zip(configs, reports)
                    if rep is not None and cfg.learner == learner]
            if accs:
                med = statistics.median(accs)
                writer.writerow([learner, args.stream, "median", f"{med:.6f}",
                                 "", "", "", "", ""])
                print(f"{learner}: median accuracy {med:.4f} over {len(accs)} seeds")
    print(f"table written to {args.out}")
    return 1 if None in reports else 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        entries = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config} line {exc.lineno}: {exc.msg}") from None
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{args.config}: expected a non-empty list of run entries")
    names = {f.name for f in fields(RunConfig)}
    runs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "stream" not in entry:
            raise ConfigError(f"{args.config}: entry {i} needs at least a 'stream' key")
        out = entry.pop("out", None)   # the entry's report path, not a run setting
        unknown = set(entry) - names
        if unknown:
            raise ConfigError(f"{args.config}: entry {i} has unknown keys {sorted(unknown)}")
        if not (out is None or isinstance(out, str)):
            raise ConfigError(f"{args.config}: entry {i} out must be a string or null, "
                              f"got {out!r}")
        runs.append((RunConfig(**entry), out))

    out_csv = args.out or str(Path(args.config).with_suffix(".results.csv"))
    with open(out_csv, "w", newline="") as fh:
        reports = _run_table(runs, csv.writer(fh), args.timing)
    print(f"results written to {out_csv}")
    return 1 if None in reports else 0


def cmd_gen(args: argparse.Namespace) -> int:
    source = parse_stream_spec(args.spec, default_seed=args.seed)
    write_stream_csv(source, args.out)
    print(f"{len(source)} instances ({source.input_dim} features, "
          f"{source.classes} classes) written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bodl",
        description="Streaming classification: hedged multi-depth network with "
                    "drift-triggered adaptation, plus linear online baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate one learner on one stream",
                           argument_default=argparse.SUPPRESS)
    _add_run_options(p_run)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default=None, help="write the JSON report here")
    p_run.add_argument("--timing", action="store_true", default=False,
                       help="include wall time in the report file")
    p_run.set_defaults(func=cmd_run)

    p_abl = sub.add_parser("ablate", help="run the bodl-base/bodl-1/bodl-2 grid",
                           argument_default=argparse.SUPPRESS)
    _add_run_options(p_abl, with_learner=False)
    p_abl.add_argument("--seeds", default="1..5", help="e.g. 1..5 or 3,7,11")
    p_abl.add_argument("--out", required=True, help="CSV table path")
    p_abl.set_defaults(func=cmd_ablate)

    p_bench = sub.add_parser("bench", help="run a declarative suite file")
    p_bench.add_argument("--config", required=True,
                         help="JSON file: list of run entries (RunConfig fields)")
    p_bench.add_argument("--out", default=None, help="flat CSV path "
                         "(default: alongside the suite file)")
    p_bench.add_argument("--timing", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="materialize a generator spec as CSV")
    p_gen.add_argument("--spec", required=True, help="e.g. sea:seg=2000,2000;noise=0.1")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run ends in DivergenceError; numpy's warnings would precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, DivergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
