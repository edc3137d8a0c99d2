"""scripts/bench_pair.py on canned perfbench/run.py output: the BENCH file's
schema, the pairing and the exit code. Nothing is timed."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))
import bench_pair  # noqa: E402

BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
END = [m["name"] for m in BENCH["end_to_end"]]


def canned(tree, workload, seed, seconds, trace, failed=0):
    """Text shaped like run.py's stdout. The change is 10% faster on every
    metric except on seed 4, and the parent's throughput is 100 * seed."""
    speed = 1.0 if tree == "parent" else (0.9 if seed != 4 else 1.1)
    lines = [f"# workload {workload} seed {seed}: 3 passes (0 traced), golden checked"]
    if trace:
        metrics = {"hedge_net.hedge_update_us": (20.0 * speed, "us"),
                   "trace.missing_hooks": (0.0, "count")}
    else:
        metrics = {"throughput_ips": (100.0 * seed / speed, "1/s"),
                   "step_ms_p50": (0.4 * speed, "ms"), "step_ms_p99": (0.5 * speed, "ms"),
                   "setup_s": (0.02 * speed, "s"), "peak_rss_mb": (40.0 * speed, "MB")}
        wall = {k: 2.0 * v for k, (v, _) in metrics.items() if k != "peak_rss_mb"}
        lines.append("# wall " + json.dumps(wall))
    lines.append(json.dumps({"correct": failed == 0, "attempted": 3, "failed": failed,
                             "metrics": {k: {"value": v, "unit": u}
                                         for k, (v, u) in metrics.items()}}))
    return "\n".join(lines) + "\n"


def run_sweep(tmp_path, runner, seeds=bench_pair.SEEDS):
    order = []

    def recording(tree, workload, seed, seconds, trace):
        order.append((workload, seed, tree, trace))
        return runner(tree, workload, seed, seconds, trace)

    runs = bench_pair.sweep({"parent": "parent", "change": "change"}, ["deep-flip"],
                            list(seeds), 30, recording)
    doc = bench_pair.summarize(runs, BENCH, {"parent": "abc", "seeds": list(seeds)})
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(doc))
    return doc, path, order


def test_sweep_alternates_sides_and_traces_seed_one(tmp_path):
    _, _, order = run_sweep(tmp_path, canned, seeds=[1, 2, 3])
    assert order == [
        ("deep-flip", 1, "parent", 0), ("deep-flip", 1, "change", 0),
        ("deep-flip", 2, "change", 0), ("deep-flip", 2, "parent", 0),
        ("deep-flip", 3, "parent", 0), ("deep-flip", 3, "change", 0),
        ("deep-flip", 1, "parent", 1), ("deep-flip", 1, "change", 1),
    ]


def test_bench_file_schema_and_figures(tmp_path):
    doc, _, _ = run_sweep(tmp_path, canned)
    w = doc["workloads"]["deep-flip"]
    assert set(w) == {"end_to_end", "wall", "per_layer", "failed", "attempted", "runs"}
    assert set(w["end_to_end"]) == set(END)
    assert set(w["wall"]) == set(END) - {"peak_rss_mb"}
    for stats in [*w["end_to_end"].values(), *w["wall"].values()]:
        assert {"parent_median", "parent_q1", "parent_q3", "change_median", "delta_pct",
                "wins", "pairs"} <= set(stats)
        assert stats["pairs"] == 10
        assert stats["wins"] == 9                   # every seed but 4
    tput = w["end_to_end"]["throughput_ips"]
    assert tput["parent_median"] == pytest.approx(550.0)
    assert tput["parent_q1"] <= tput["parent_median"] <= tput["parent_q3"]
    assert tput["unit"] == "1/s" and tput["better"] == "higher"
    assert w["wall"]["step_ms_p50"]["parent_median"] == pytest.approx(0.8)
    assert w["per_layer"]["hedge_net.hedge_update_us"]["parent"] == 20.0
    assert w["per_layer"]["hedge_net.hedge_update_us"]["change"] == pytest.approx(18.0)
    assert w["failed"] == {"parent": 0, "change": 0}
    assert w["attempted"] == {"parent": 33, "change": 33}
    # throughput's parent runs spread from 100 to 1000; every other metric
    # wins 9/10 pairs with no spread at all
    assert {name: s["verdict"] for name, s in w["end_to_end"].items()} == {
        **{name: "gain" for name in END}, "throughput_ips": "unresolved"}
    assert not any(s["raw_disagrees"] for s in w["end_to_end"].values())
    assert len(w["runs"]["paired"]) == 20


def test_compare_prints_table_and_exits_zero(tmp_path, capsys):
    _, path, _ = run_sweep(tmp_path, canned)
    assert bench_pair.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "| deep-flip | throughput_ips | 550 [" in out
    assert "9/10" in out and "hedge_net.hedge_update_us" in out


def test_compare_prints_each_sides_probe_speed_factor(tmp_path, capsys):
    # a canned run's rescaled throughput is half its raw one; give the
    # change's runs factors 0.8, 0.6 and 0.7, and let one parent run fail
    doc, path, _ = run_sweep(tmp_path, canned, seeds=[1, 2, 3])
    w = doc["workloads"]["deep-flip"]
    change = [r for r in w["runs"]["paired"] if r["side"] == "change"]
    for r, factor in zip(change, (0.8, 0.6, 0.7)):
        r["wall"]["throughput_ips"] = r["metrics"]["throughput_ips"] / factor
    w["runs"]["paired"].append({"seed": 4, "side": "parent", "failed": 1, "attempted": 0,
                                "metrics": {}, "wall": {}})
    assert bench_pair.speed_factors(w) == {"parent": 0.5, "change": pytest.approx(0.7)}
    path.write_text(json.dumps(doc))
    assert bench_pair.main(["--compare", str(path)]) == 0
    assert "\n- deep-flip: 0.500 -> 0.700\n" in capsys.readouterr().out
    w["runs"]["paired"] = [r for r in w["runs"]["paired"] if r["side"] == "parent"]
    assert bench_pair.speed_factors(w) == {"parent": 0.5, "change": None}


def stats(parent, q1, q3, change, wins, better="higher"):
    return {"parent_median": parent, "parent_q1": q1, "parent_q3": q3,
            "change_median": change, "wins": wins, "pairs": 10, "better": better}


@pytest.mark.parametrize("figures, want", [
    (stats(100, 99, 101, 103, 9), "gain"),
    (stats(100, 99, 101, 103, 8), "ok"),                   # 8 of 10 pairs won
    (stats(100, 98, 102, 103, 10), "ok"),                  # 3 better, inside the spread of 4
    (stats(100, 99, 101, 97, 0), "ok"),
    (stats(100, 99, 101, 86, 0), "ok"),                    # 14% worse, inside the bound
    (stats(100, 99, 101, 84, 0), "worse"),                 # 16% worse
    (stats(1.0, 0.99, 1.01, 0.9, 10, "lower"), "gain"),
    (stats(1.0, 0.99, 1.01, 1.2, 0, "lower"), "worse"),
    (stats(100, 90, 110, 100, 5), "unresolved"),           # a spread of 20%
    (stats(100, 90, 110, 140, 10), "unresolved"),          # before a gain
    (stats(100, 90, 110, 80, 0), "worse"),                 # before unresolved
])
def test_verdict_reads_the_gate(figures, want):
    assert bench_pair.verdict(figures, 0.15) == want


def test_compare_marks_verdicts_in_a_file_without_them(tmp_path, capsys):
    # a file written before verdicts were recorded, with the raw and rescaled
    # step_ms_p50 medians moving in opposite directions
    doc, path, _ = run_sweep(tmp_path, canned)
    w = doc["workloads"]["deep-flip"]
    for s in w["end_to_end"].values():
        del s["verdict"], s["raw_disagrees"]
    w["wall"]["step_ms_p50"]["delta_pct"] = 5.0
    path.write_text(json.dumps(doc))
    assert bench_pair.main(["--compare", str(path)]) == 0
    rows = {line.split(" | ")[1]: line for line in capsys.readouterr().out.splitlines()
            if line.startswith("| deep-flip |")}
    assert rows["step_ms_p50"].endswith("| gain, raw disagrees |")
    assert rows["throughput_ips"].endswith("| unresolved |")
    assert rows["peak_rss_mb"].endswith("|  | gain |")          # no raw figure to disagree
    assert "verdict" not in json.loads(path.read_text())["workloads"]["deep-flip"][
        "end_to_end"]["step_ms_p50"]                               # --compare writes nothing


def raw(parent, q1, q3, change):
    return {"parent_median": parent, "parent_q1": q1, "parent_q3": q3,
            "change_median": change, "delta_pct": 100.0 * (change / parent - 1.0)}


@pytest.mark.parametrize("rescaled_delta, figures, want", [
    (-5.0, raw(100, 95, 105, 111), True),      # opposite, 11 against a spread of 10
    (-5.0, raw(100, 95, 105, 108), False),     # opposite, inside the spread
    (-5.0, raw(100, 95, 105, 110), False),     # opposite, exactly the spread
    (5.0, raw(100, 95, 105, 80), True),
    (5.0, raw(100, 100, 100, 99.9), True),     # no spread: any opposite move
    (5.0, raw(100, 95, 105, 120), False),      # the same direction
    (0.0, raw(100, 95, 105, 120), False),      # the rescaled median did not move
    (5.0, None, False),                        # no raw figure
])
def test_raw_disagrees_needs_a_move_beyond_the_parents_raw_spread(rescaled_delta, figures,
                                                                  want):
    assert bench_pair.raw_disagrees({"delta_pct": rescaled_delta}, figures) is want


def test_compare_leaves_a_raw_move_inside_the_parents_spread_unmarked(tmp_path, capsys):
    # both moves oppose their rescaled medians (-10%); step_ms_p50's raw move
    # of 0.04 lies inside its parent's raw quartiles, setup_s's does not
    doc, path, _ = run_sweep(tmp_path, canned)
    w = doc["workloads"]["deep-flip"]
    w["wall"]["step_ms_p50"].update(raw(0.8, 0.7, 0.9, 0.84))
    w["wall"]["setup_s"].update(raw(0.04, 0.039, 0.041, 0.045))
    path.write_text(json.dumps(doc))
    assert bench_pair.main(["--compare", str(path)]) == 0
    rows = {line.split(" | ")[1]: line for line in capsys.readouterr().out.splitlines()
            if line.startswith("| deep-flip |")}
    assert rows["step_ms_p50"].endswith("| gain |")
    assert rows["setup_s"].endswith("| gain, raw disagrees |")


def test_committed_bench_files_mark_only_moves_beyond_the_raw_spread(capsys):
    # opposite signs alone marked 7 rows of BENCH_19.json and 9 of BENCH_24.json
    marked = {}
    for name in ("BENCH_19.json", "BENCH_24.json"):
        bench_pair.main(["--compare", str(REPO / name)])
        marked[name] = [line.split(" | ")[:2] for line in capsys.readouterr().out.splitlines()
                        if line.endswith("raw disagrees |")]
    assert marked == {"BENCH_19.json": [["| linear-csv", "step_ms_p50"]], "BENCH_24.json": []}


def test_compare_exits_nonzero_on_a_failed_pass(tmp_path):
    def one_failure(tree, workload, seed, seconds, trace):
        return canned(tree, workload, seed, seconds, trace,
                      failed=int(tree == "change" and seed == 7))
    doc, path, _ = run_sweep(tmp_path, one_failure)
    assert doc["workloads"]["deep-flip"]["failed"] == {"parent": 0, "change": 1}
    assert bench_pair.main(["--compare", str(path)]) == 1


def test_run_without_result_line_counts_as_failed(tmp_path):
    def crashed_trace(tree, workload, seed, seconds, trace):
        return "Traceback (most recent call last):\n" if trace and tree == "parent" else \
            canned(tree, workload, seed, seconds, trace)
    doc, path, _ = run_sweep(tmp_path, crashed_trace)
    w = doc["workloads"]["deep-flip"]
    assert w["failed"]["parent"] == 1
    assert w["per_layer"]["hedge_net.hedge_update_us"]["parent"] is None
    assert bench_pair.main(["--compare", str(path)]) == 1


def test_run_perfbench_reports_exit_code_and_stderr_tail(monkeypatch, capsys):
    runs = {"crashed": subprocess.CompletedProcess(
                [], 1, stdout="", stderr="".join(f"line {i}\n" for i in range(30))),
            "clean": subprocess.CompletedProcess([], 0, stdout=canned("change", "deep-flip",
                                                                      3, 30, 0), stderr="")}

    def fake_run(cmd, cwd, **kwargs):
        assert cmd[1:3] == ["perfbench/run.py", "--workload"]
        return runs[cwd]

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    out = bench_pair.run_perfbench("crashed", "deep-flip", 3, 30, 1)
    assert bench_pair.parse_output(out)["failed"] == 1
    err = capsys.readouterr().err
    assert "deep-flip seed 3 trace 1 in crashed: exit 1" in err
    shown = [f"line {i}" for i in range(30) if f"line {i}\n" in err]
    assert shown == [f"line {i}" for i in range(30 - bench_pair.STDERR_TAIL, 30)]

    out = bench_pair.run_perfbench("clean", "deep-flip", 3, 30, 0)
    assert bench_pair.parse_output(out)["failed"] == 0
    assert capsys.readouterr().err == ""


def test_src_line_counts_from_numstat(tmp_path, monkeypatch, capsys):
    numstat = ("113\t133\tsrc/bodl/baselines.py\n0\t2\tsrc/bodl/harness.py\n"
               "-\t-\tsrc/bodl/blob.bin\n7\t0\tsrc/bodl/new.py\n")

    def fake_run(cmd, cwd, **kwargs):
        assert cmd == ["git", "diff", "--numstat", "abc123", "--", "src"]
        assert cwd == bench_pair.REPO
        return subprocess.CompletedProcess(cmd, 0, stdout=numstat, stderr="")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    counts = bench_pair.src_lines("abc123")
    assert counts == {"added": 120, "deleted": 135}
    doc, _, _ = run_sweep(tmp_path, canned, seeds=[1, 2])
    assert "src/ lines" not in bench_pair.table(doc)     # a file from before the counts
    path = tmp_path / "BENCH_y.json"
    path.write_text(json.dumps({**doc, "src_lines": counts}))
    assert bench_pair.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(
        "src/ lines against the parent: +120 -135 (net -15)")


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
@pytest.mark.parametrize("crash", [False, True], ids=["ends", "fails"])
def test_sweep_leaves_no_exported_parent(tmp_path, monkeypatch, crash):
    # a sweep in a temporary repo root, with the export stubbed and canned runs
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    monkeypatch.setattr(bench_pair, "REPO", tmp_path)
    monkeypatch.setattr(bench_pair, "WORK", tmp_path / ".bench_work")

    def fake_export(commit, dest):
        (dest / "exported").write_text(commit)
        return "abc"

    real_sweep = bench_pair.sweep

    def canned_sweep(trees, workloads, seeds, seconds):
        assert (trees["parent"] / "exported").read_text() == "PARENT"
        if crash:
            raise RuntimeError("sweep died")
        return real_sweep({"parent": "parent", "change": "change"}, workloads[:1],
                          seeds[:2], seconds, canned)

    monkeypatch.setattr(bench_pair, "export_tree", fake_export)
    monkeypatch.setattr(bench_pair, "sweep", canned_sweep)
    monkeypatch.setattr(bench_pair, "src_lines", lambda parent: {"added": 3, "deleted": 5})
    if crash:
        with pytest.raises(RuntimeError):
            bench_pair.main(["PARENT", "--pr", "x"])
    else:
        assert bench_pair.main(["PARENT", "--pr", "x"]) == 0
        doc = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert doc["src_lines"] == {"added": 3, "deleted": 5}
    assert list((tmp_path / ".bench_work").iterdir()) == []
