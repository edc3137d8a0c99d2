#!/usr/bin/env python3
"""Benchmark a change against its parent commit and write BENCH_<pr>.json.

    python3 scripts/bench_pair.py PARENT --pr N              # sweep, write BENCH_N.json
    python3 scripts/bench_pair.py --compare BENCH_N.json     # print its table

The sweep exports PARENT's tree into a temporary .bench_work/parent-*/
directory, removed when the sweep ends or fails, and runs perfbench/run.py
there and in this checkout (the change), one process at a time. On each of
seeds 1-10 both sides run back to back, the parent first on odd seeds, at
--trace 0; then seed 1 runs once more on each side at --trace 1 for the
per-layer spans. Workloads, metric directions and the run length come from
BENCHMARK.json. Progress goes to stderr.

The file holds, per workload: each end-to-end metric's medians, the
parent's quartiles and the change's wins out of the pairs, the same from
the raw `# wall` line, the traced per-layer metrics of both sides, the
failed and attempted pass counts of both sides, and every run's figures.
It also holds the lines of src/ added and deleted against the parent, and
each end-to-end metric's gate verdict (see `verdict`) with a mark where the
raw and rescaled medians move in opposite directions. Both modes print the
parent/change table, each side's probe speed factor (see `speed_factors`)
and those line counts, and exit 1 if any pass failed
its golden check (or a run gave no result line). `--compare` works out the
verdicts afresh, with the bounds in BENCHMARK.json, so a file written
before they were recorded prints them too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORK = REPO / ".bench_work"
SIDES = ("parent", "change")
SEEDS = list(range(1, 11))
TRACE_SEED = 1
STDERR_TAIL = 20     # stderr lines shown of a run that fails or writes there


def export_tree(commit: str, dest: Path) -> str:
    """Extract the commit's files into `dest` and return its full sha. An
    exported tree, unlike a git worktree, leaves no record in .git to prune."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"], cwd=REPO,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=REPO, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def src_lines(parent: str) -> dict:
    """Lines of src/ added and deleted in this checkout against `parent`,
    summed from `git diff --numstat` (a binary file's "-" counts 0)."""
    text = subprocess.run(["git", "diff", "--numstat", parent, "--", "src"], cwd=REPO,
                          check=True, capture_output=True, text=True).stdout
    counts = [line.split("\t")[:2] for line in text.splitlines()]
    return {"added": sum(int(a) for a, _ in counts if a != "-"),
            "deleted": sum(int(d) for _, d in counts if d != "-")}


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    """stdout of one perfbench/run.py process in `tree`. A run that exits
    non-zero or writes to stderr has its exit code and the tail of its stderr
    printed to stderr, so a run with no result line says why."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode or done.stderr.strip():
        tail = "\n".join(done.stderr.strip().splitlines()[-STDERR_TAIL:])
        print(f"{workload} seed {seed} trace {trace} in {tree}: exit {done.returncode}\n{tail}",
              file=sys.stderr, flush=True)
    return done.stdout


def parse_output(text: str) -> dict:
    """The result line's counts and metric values, and the `# wall` figures."""
    lines = text.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failed": 1, "attempted": 0, "metrics": {}, "wall": {}}
    wall = next((json.loads(ln[len("# wall "):]) for ln in lines if ln.startswith("# wall ")), {})
    return {"failed": last["failed"], "attempted": last["attempted"],
            "metrics": {k: m["value"] for k, m in last["metrics"].items()}, "wall": wall}


def sweep(trees: dict, workloads: list, seeds: list, seconds: float,
          runner=run_perfbench) -> dict:
    """Every run of the sweep, per workload: `paired` runs at --trace 0 and
    one `traced` run per side."""
    runs = {}
    for wl in workloads:
        paired = []
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                paired.append({"seed": seed, "side": side,
                               **parse_output(runner(trees[side], wl, seed, seconds, 0))})
                print(f"{wl} seed {seed} {side}: failed {paired[-1]['failed']}",
                      file=sys.stderr, flush=True)
        traced = {side: parse_output(runner(trees[side], wl, TRACE_SEED, seconds, 1))
                  for side in SIDES}
        print(f"{wl} traced seed {TRACE_SEED}: failed "
              f"{traced['parent']['failed']} / {traced['change']['failed']}",
              file=sys.stderr, flush=True)
        runs[wl] = {"paired": paired, "traced": traced}
    return runs


def pair_stats(paired: list, key: str, name: str, better: str) -> dict | None:
    """Medians, the parent's quartiles and the change's wins for one metric."""
    by_seed = {}
    for r in paired:
        if name in r[key]:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r[key][name]
    pairs = [v for v in by_seed.values() if len(v) == 2]
    if not pairs:
        return None
    parent = [v["parent"] for v in pairs]
    change = [v["change"] for v in pairs]
    sign = 1.0 if better == "higher" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"parent_median": p_med, "parent_q1": q1, "parent_q3": q3, "change_median": c_med,
            "delta_pct": 100.0 * (c_med / p_med - 1.0) if p_med else 0.0,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs)}


def verdict(stats: dict, bound: float) -> str:
    """The benchmark gate's reading of one end-to-end metric's pair statistics.

    `worse`: the change's median is worse than the parent's by more than
    `bound`, a fraction of the parent's median. Else `unresolved`: the
    parent's quartile spread is wider than that bound. Else `gain`: the
    change wins at least 9 of 10 pairs, and its median is better than the
    parent's by more than the parent's quartile spread. Else `ok`.
    """
    parent = stats["parent_median"]
    better_by = (stats["change_median"] - parent) * (1.0 if stats["better"] == "higher" else -1.0)
    spread = stats["parent_q3"] - stats["parent_q1"]
    if better_by < -bound * parent:
        return "worse"
    if spread > bound * parent:
        return "unresolved"
    if 10 * stats["wins"] >= 9 * stats["pairs"] and better_by > spread:
        return "gain"
    return "ok"


def raw_disagrees(stats: dict, raw: dict | None) -> bool:
    """The raw wall median moves against the rescaled one, by more than the
    parent's raw quartile spread: a move inside that spread is noise."""
    if raw is None or raw["delta_pct"] * stats["delta_pct"] >= 0:
        return False
    return abs(raw["change_median"] - raw["parent_median"]) > raw["parent_q3"] - raw["parent_q1"]


def add_verdicts(doc: dict, bench: dict) -> dict:
    """Set `verdict` and `raw_disagrees` (see `raw_disagrees`) on every
    end-to-end metric of `doc`, and return it."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in doc["workloads"].values():
        for name, s in w["end_to_end"].items():
            s["verdict"] = verdict(s, bounds[name])
            s["raw_disagrees"] = raw_disagrees(s, w["wall"].get(name))
    return doc


def summarize(runs: dict, bench: dict, meta: dict) -> dict:
    """The BENCH_<pr>.json document for the runs of one sweep."""
    out = {**meta, "workloads": {}}
    for wl, r in runs.items():
        paired, traced = r["paired"], r["traced"]
        end, wall = {}, {}
        for m in bench["end_to_end"]:
            stats = pair_stats(paired, "metrics", m["name"], m["better"])
            if stats:
                end[m["name"]] = {"unit": m["unit"], "better": m["better"], **stats}
            stats = pair_stats(paired, "wall", m["name"], m["better"])
            if stats:
                wall[m["name"]] = stats
        layers = {m["name"]: {"unit": m["unit"], "better": m["better"],
                              **{side: traced[side]["metrics"].get(m["name"]) for side in SIDES}}
                  for m in bench["per_layer"]
                  if any(m["name"] in traced[side]["metrics"] for side in SIDES)}
        failed = {side: sum(x["failed"] for x in paired if x["side"] == side)
                  + traced[side]["failed"] for side in SIDES}
        attempted = {side: sum(x["attempted"] for x in paired if x["side"] == side)
                     + traced[side]["attempted"] for side in SIDES}
        out["workloads"][wl] = {"end_to_end": end, "wall": wall, "per_layer": layers,
                                "failed": failed, "attempted": attempted, "runs": r}
    return add_verdicts(out, bench)


def speed_factors(workload: dict) -> dict:
    """Each side's median of rescaled over raw `throughput_ips` across the
    paired runs: the speed factor perfbench's in-process probe measured,
    its probe time over the reference one (higher is a slower host). A run
    without both figures (a failed one) is left out; a side with none
    reads None."""
    ratios = {side: [] for side in SIDES}
    for r in workload["runs"]["paired"]:
        rescaled, raw = r["metrics"].get("throughput_ips"), r["wall"].get("throughput_ips")
        if rescaled and raw:
            ratios[r["side"]].append(rescaled / raw)
    return {side: statistics.median(v) if v else None for side, v in ratios.items()}


def table(doc: dict) -> str:
    """The parent/change table: rescaled medians with the parent's quartiles,
    the change's wins, the raw wall medians with their wins, and the verdict;
    then the traced spans and each side's probe speed factor per workload."""
    rows = ["| workload | metric | parent [q1, q3] | change | Δ | wins "
            "| raw wall parent -> change | verdict |",
            "|---|---|---|---|---|---|---|---|"]
    for wl, w in doc["workloads"].items():
        for name, s in w["end_to_end"].items():
            raw = w["wall"].get(name)
            raw_text = (f"{raw['parent_median']:.4g} -> {raw['change_median']:.4g} "
                        f"({raw['delta_pct']:+.1f}%, {raw['wins']}/{raw['pairs']})" if raw else "")
            mark = ", raw disagrees" if s["raw_disagrees"] else ""
            rows.append(f"| {wl} | {name} | {s['parent_median']:.4g} [{s['parent_q1']:.4g}, "
                        f"{s['parent_q3']:.4g}] | {s['change_median']:.4g} | "
                        f"{s['delta_pct']:+.1f}% | {s['wins']}/{s['pairs']} | {raw_text} | "
                        f"{s['verdict']}{mark} |")
    rows += ["", f"Per-layer, --trace 1 at seed {doc.get('trace_seed', TRACE_SEED)} "
             "(parent -> change):", ""]
    for wl, w in doc["workloads"].items():
        spans = ", ".join(f"`{name}` {s['parent']:.4g} -> {s['change']:.4g}"
                          for name, s in w["per_layer"].items()
                          if s["parent"] is not None and s["change"] is not None)
        rows.append(f"- {wl}: {spans}")
    rows += ["", "Probe speed factor, rescaled / raw `throughput_ips` "
             "(median of the paired runs, parent -> change):", ""]
    for wl, w in doc["workloads"].items():
        rows.append(f"- {wl}: " + " -> ".join(
            "n/a" if f is None else f"{f:.3f}" for f in speed_factors(w).values()))
    failed = {wl: w["failed"] for wl, w in doc["workloads"].items()}
    rows += ["", "failed passes (parent / change): " + ", ".join(
        f"{wl} {f['parent']} / {f['change']}" for wl, f in failed.items())]
    if "src_lines" in doc:      # files written before the counts were recorded lack them
        lines = doc["src_lines"]
        rows.append(f"src/ lines against the parent: +{lines['added']} -{lines['deleted']} "
                    f"(net {lines['added'] - lines['deleted']:+d})")
    return "\n".join(rows)


def any_failed(doc: dict) -> bool:
    return any(n > 0 for w in doc["workloads"].values() for n in w["failed"].values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="commit to compare this checkout against")
    ap.add_argument("--pr", help="writes BENCH_<pr>.json at the repo root")
    ap.add_argument("--compare", type=Path, help="print the table of a BENCH_<pr>.json")
    args = ap.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.compare:
        doc = add_verdicts(json.loads(args.compare.read_text()), bench)
    else:
        if not args.parent or not args.pr:
            ap.error("a sweep needs PARENT and --pr")
        workloads = [w["name"] for w in bench["workloads"]]
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="parent-", dir=WORK) as tree:
            parent = export_tree(args.parent, Path(tree))
            runs = sweep({"parent": Path(tree), "change": REPO}, workloads, SEEDS,
                         bench["run_seconds"])
        change = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                                cwd=REPO, capture_output=True, text=True).stdout.strip()
        meta = {"parent": parent, "change": change, "src_lines": src_lines(parent), "seeds": SEEDS,
                "seconds": bench["run_seconds"], "trace_seed": TRACE_SEED,
                "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                         "python": platform.python_version()}}
        doc = summarize(runs, bench, meta)
        (REPO / f"BENCH_{args.pr}.json").write_text(json.dumps(doc, indent=1, sort_keys=True)
                                                    + "\n")
    print(table(doc))
    if any_failed(doc):
        print("bench_pair: some passes failed their golden check", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
