"""Record the golden reports, check steadiness over seeds, log a baseline.

    python3 perfbench/record.py golden --seeds 0..49
    python3 perfbench/record.py sweep --seeds 1..10 [--trace 1] [--workloads deep-flip]
    python3 perfbench/record.py sweep --seeds 1..10 --record "note"

``golden`` runs every workload once per seed (untimed) and writes
``golden.json``: the report's SHA-256, accuracy, drift-event and adaptation
counts. ``sweep`` runs ``run.py`` once per workload and seed, one process at
a time, and prints each metric's median, quartiles and quartile spread
against the bound in BENCHMARK.json; runs are ``run_seconds`` long, as the
benchmark is. ``--record`` appends the sweep, with the environment it ran
in and the raw wall-clock medians beside the rescaled ones, to
``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GOLDEN, REPO, WORKLOADS, import_bodl, prepare_inputs

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",") if v.strip()]


def cmd_golden(args) -> int:
    import_bodl()
    from run import run_pass

    recorded: dict[str, dict] = {}
    status = 0
    for name in args.workloads:
        wl = WORKLOADS[name]
        table = recorded.setdefault(name, {})
        for seed in args.seeds:
            prepare_inputs(wl, seed)
            p = run_pass(wl, seed)
            if p.error:
                print(f"{name} seed {seed}: FAILED\n{p.error}", file=sys.stderr)
                status = 1
                continue
            table[str(seed)] = p.summary
            print(f"{name} seed {seed}: {p.summary}", flush=True)
    # merge into the file as it is now, so runs over other workloads can overlap
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name, table in recorded.items():
        merged = {**golden.get(name, {}), **table}
        golden[name] = dict(sorted(merged.items(), key=lambda kv: int(kv[0])))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return status


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(Q1, median, Q3, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "machine": platform.machine(),
    }


def cmd_sweep(args) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    seconds = spec["run_seconds"]
    results: dict[str, list[dict]] = {}
    status = 0
    for name in args.workloads:
        rows = results.setdefault(name, [])
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                                  timeout=180)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            out = json.loads(lines[-1])
            context = [ln for ln in lines if ln.startswith("# calibration")]
            wall = [json.loads(ln[len("# wall "):]) for ln in lines if ln.startswith("# wall ")]
            rows.append({"seed": seed, "seconds": took, "wall": wall[0] if wall else {}, **out})
            ok = out["correct"] and out["failed"] == 0
            status |= 0 if ok else 1
            print(f"{name} seed {seed}: correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {took:.1f}s "
                  f"{context[0][2:] if context else ''}", flush=True)
            print("   " + "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                    for k, m in out["metrics"].items()), flush=True)

        print(f"\n{name}: {len(rows)} runs")
        for metric in bounds:
            vals = [r["metrics"][metric]["value"] for r in rows if metric in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3, sp = spread(vals)
            bound = bounds[metric]
            verdict = "" if bound is None else (
                f"bound {bound:.2f} {'ok' if sp <= bound else 'WIDE'}"
                f"{'' if sp <= bound / 3 else ' (above a third)'}")
            print(f"  {metric:32s} median {med:12.5f}  Q1 {q1:12.5f}  Q3 {q3:12.5f}  "
                  f"spread {sp:6.3f}  {verdict}")
            walls = [r["wall"][metric] for r in rows if metric in r["wall"]]
            if len(walls) >= 2:
                _, wmed, _, wsp = spread(walls)
                print(f"  {'  (raw wall)':32s} median {wmed:12.5f}  spread {wsp:6.3f}")

    if args.record:
        import_bodl()
        summary = {}
        for name, rows in results.items():
            summary[name] = {}
            for metric in bounds:
                vals = [r["metrics"][metric]["value"] for r in rows]
                if len(vals) >= 2:
                    q1, med, q3, _ = spread(vals)
                    summary[name][metric] = {"median": med, "q1": q1, "q3": q3}
                    walls = [r["wall"][metric] for r in rows if metric in r["wall"]]
                    if walls:
                        summary[name][metric]["wall_median"] = statistics.median(walls)
        point = {
            "note": args.record,
            "date": time.strftime("%Y-%m-%d"),
            "seeds": args.seeds,
            "run_seconds": seconds,
            "trace": args.trace,
            "environment": environment(),
            "workloads": summary,
        }
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended to {TRAJECTORY.relative_to(REPO)}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd in ("golden", "sweep"):
        p = sub.add_parser(cmd)
        p.add_argument("--seeds", type=parse_seeds, required=True)
        p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                       default=list(WORKLOADS))
    sweep = sub.choices["sweep"]
    sweep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sweep.add_argument("--record", metavar="NOTE", default=None)
    args = ap.parse_args(argv)
    os.chdir(REPO)
    return cmd_golden(args) if args.cmd == "golden" else cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
