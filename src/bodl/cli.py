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

from .errors import ConfigError, DivergenceError
from .harness import MetricsReport, RunConfig, prequential_run, run_suite
from .streams import parse_stream_spec, write_stream_csv

ABLATION_LEARNERS = ("bodl-base", "bodl-1", "bodl-2")


def _add_run_options(p: argparse.ArgumentParser, with_learner: bool = True) -> None:
    p.add_argument("--stream", required=True,
                   help="stream spec: csv:<path|name>[;opts] | sea:... | hyperplane:...")
    if with_learner:
        p.add_argument("--learner", default="bodl-2",
                       help="bodl-2 | bodl-1 | bodl-base | perceptron | romma | "
                            "ogd | pa | cw | arow | scw")
    p.add_argument("--eta", type=float, default=0.01, help="head reweighting rate")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="similarity penalty weight (default per learner)")
    p.add_argument("--lr", type=float, default=0.01, help="optimizer step size")
    p.add_argument("--layers", dest="hidden_layers", type=int, default=15)
    p.add_argument("--width", type=int, default=30)
    p.add_argument("--optimizer", default="adam", choices=("adam", "sgd"))
    p.add_argument("--mem", dest="memory_capacity", type=int, default=256,
                   help="episodic memory capacity")
    p.add_argument("--mu", dest="inner_rate", type=float, default=0.01,
                   help="adaptation step size on drift")
    p.add_argument("--gamma", dest="outer_rate", type=float, default=0.5,
                   help="interpolation rate toward the replay-refined copy")
    p.add_argument("--inner", dest="inner_steps", type=int, default=5,
                   help="adaptation steps over the recent window")
    p.add_argument("--batch", dest="memory_batch", type=int, default=32,
                   help="memory batch size for the replay step")
    p.add_argument("--window", dest="recent_window", type=int, default=16,
                   help="recent-instance buffer length")
    p.add_argument("--detector-min", dest="detector_min_instances", type=int, default=30)
    p.add_argument("--detector-k", dest="detector_sensitivity", type=float, default=3.0)
    p.add_argument("--no-standardize", dest="standardize", action="store_false")


def _config_from_args(args: argparse.Namespace, **overrides) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    kw = {k: v for k, v in vars(args).items() if k in names}
    kw.update(overrides)
    return RunConfig(**kw)


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _write_report(report: MetricsReport, path: str, timing: bool) -> None:
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report.as_dict(include_timing=timing), sort_keys=True, indent=2)
    target.write_text(text + "\n")


def _summary_line(report: MetricsReport) -> str:
    return (f"accuracy {report.accuracy:.4f}  macro_f1 {report.macro_f1:.4f}  "
            f"drift_events {len(report.drift_events)}  "
            f"instances {report.total}  [{report.wall_time:.2f}s]")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    report = prequential_run(cfg)
    print(f"{cfg.learner} on {report.stream_info['provenance']}: {_summary_line(report)}")
    if args.out:
        _write_report(report, args.out, args.timing)
        print(f"report written to {args.out}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ConfigError("at least one seed is required")
    configs = [
        _config_from_args(args, learner=learner, seed=seed, out=None,
                          # an explicit lambda applies to the variants that use it
                          **({"lam": None} if learner == "bodl-base" else {}))
        for learner in ABLATION_LEARNERS for seed in seeds
    ]
    results = run_suite(configs, workers=args.workers)

    rows = []
    by_learner: dict[str, list[float]] = {name: [] for name in ABLATION_LEARNERS}
    failed = 0
    for res in results:
        learner, seed = res.config["learner"], res.config["seed"]
        if not res.ok:
            failed += 1
            print(f"{learner} seed {seed}: FAILED ({res.error})", file=sys.stderr)
            rows.append([learner, seed, "", "", "", "", "", res.error])
            continue
        rep = res.report
        by_learner[learner].append(rep.accuracy)
        rows.append([learner, seed, f"{rep.accuracy:.6f}", f"{rep.macro_precision:.6f}",
                     f"{rep.macro_recall:.6f}", f"{rep.macro_f1:.6f}",
                     len(rep.drift_events), ""])
    for learner in ABLATION_LEARNERS:
        accs = by_learner[learner]
        if accs:
            med = statistics.median(accs)
            rows.append([learner, "median", f"{med:.6f}", "", "", "", "", ""])
            print(f"{learner}: median accuracy {med:.4f} over {len(accs)} seeds")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["learner", "seed", "accuracy", "macro_precision",
                         "macro_recall", "macro_f1", "drift_events", "error"])
        writer.writerows(rows)
    print(f"table written to {args.out}")
    return 1 if failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    raw = json.loads(Path(args.config).read_text())
    entries = raw["runs"] if isinstance(raw, dict) else raw
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{args.config}: expected a non-empty list of run entries")
    names = {f.name for f in fields(RunConfig)}
    configs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "stream" not in entry:
            raise ConfigError(f"{args.config}: entry {i} needs at least a 'stream' key")
        unknown = set(entry) - names
        if unknown:
            raise ConfigError(f"{args.config}: entry {i} has unknown keys {sorted(unknown)}")
        configs.append(RunConfig(**entry))
    results = run_suite(configs, workers=args.workers)

    out_csv = args.out or str(Path(args.config).with_suffix(".results.csv"))
    failed = 0
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["learner", "stream", "seed", "accuracy", "macro_precision",
                         "macro_recall", "macro_f1", "drift_events", "error"])
        for cfg, res in zip(configs, results):
            tag = f"{cfg.learner} on {cfg.stream} seed {cfg.seed}"
            if res.ok:
                rep = res.report
                writer.writerow([cfg.learner, cfg.stream, cfg.seed,
                                 f"{rep.accuracy:.6f}", f"{rep.macro_precision:.6f}",
                                 f"{rep.macro_recall:.6f}", f"{rep.macro_f1:.6f}",
                                 len(rep.drift_events), ""])
                print(f"{tag}: {_summary_line(rep)}")
                if cfg.out:
                    _write_report(rep, cfg.out, args.timing)
            else:
                failed += 1
                writer.writerow([cfg.learner, cfg.stream, cfg.seed,
                                 "", "", "", "", "", res.error])
                print(f"{tag}: FAILED ({res.error})", file=sys.stderr)
    print(f"results written to {out_csv}")
    return 1 if failed else 0


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

    p_run = sub.add_parser("run", help="evaluate one learner on one stream")
    _add_run_options(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="write the JSON report here")
    p_run.add_argument("--timing", action="store_true",
                       help="include wall time in the report file")
    p_run.set_defaults(func=cmd_run)

    p_abl = sub.add_parser("ablate", help="run the bodl-base/bodl-1/bodl-2 grid")
    _add_run_options(p_abl, with_learner=False)
    p_abl.add_argument("--seeds", default="1..5", help="e.g. 1..5 or 3,7,11")
    p_abl.add_argument("--out", required=True, help="CSV table path")
    p_abl.add_argument("--workers", type=int, default=1)
    p_abl.set_defaults(func=cmd_ablate)

    p_bench = sub.add_parser("bench", help="run a declarative suite file")
    p_bench.add_argument("--config", required=True,
                         help="JSON file: list of run entries (RunConfig fields)")
    p_bench.add_argument("--workers", type=int, default=1)
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
        return args.func(args)
    except (ConfigError, DivergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
