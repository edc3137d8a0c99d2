"""Command-line behavior: exit codes, report files, grids, suite files."""

import argparse
import csv
import json
from dataclasses import fields

import pytest

from bodl import cli
from bodl.cli import ABLATION_LEARNERS, _parse_seeds, build_parser, main
from bodl.errors import ConfigError
from bodl.harness import MetricsReport, RunConfig

FAST = ["--layers", "1", "--width", "4", "--optimizer", "sgd"]


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- seeds

def test_parse_seeds_range():
    assert _parse_seeds("1..5") == [1, 2, 3, 4, 5]
    assert _parse_seeds("3..3") == [3]


def test_parse_seeds_list():
    assert _parse_seeds("3,7,11") == [3, 7, 11]
    assert _parse_seeds(" 4 ") == [4]
    assert _parse_seeds("") == []


def test_parse_seeds_empty_range_rejected():
    with pytest.raises(ConfigError):
        _parse_seeds("5..3")


@pytest.mark.parametrize("text", ["a", "1..x", "3,seven", ".."])
def test_parse_seeds_bad_text_names_the_option(text):
    with pytest.raises(ConfigError, match=r"--seeds .* range like 1\.\.5 .* list like 3,7,11"):
        _parse_seeds(text)


def test_ablate_bad_seeds_exits_2(tmp_path, capsys):
    # refused before any run: the table file is never opened
    for text in ["a", "-2..-1"]:
        assert run_cli("ablate", "--stream", "sea:seg=20", f"--seeds={text}",
                       "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert f"--seeds {text!r}" in err and "invalid literal" not in err
        assert not (tmp_path / "x.csv").exists()


def test_run_flags_reach_every_runconfig_field():
    # a RunConfig field without a `bodl run` flag could only be set from Python
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["run"]._actions}
    assert {f.name for f in fields(RunConfig)} <= dests


# ---------------------------------------------------------------- defaults

def test_flags_left_out_take_runconfig_defaults(monkeypatch, tmp_path):
    # the CLI restates no default: a bare run or ablate builds exactly the
    # RunConfig that names only the stream (and, for ablate, learner and seed)
    stream = "sea:seg=20;noise=0"
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return MetricsReport(classes=2, stream_info={"provenance": stream})

    monkeypatch.setattr(cli, "prequential_run", fake_run)
    assert run_cli("run", "--stream", stream) == 0
    assert seen == [RunConfig(stream=stream)]

    seen.clear()
    assert run_cli("ablate", "--stream", stream, "--out", str(tmp_path / "t.csv")) == 0
    assert seen == [RunConfig(stream=stream, learner=learner, seed=seed)
                    for learner in ABLATION_LEARNERS for seed in range(1, 6)]


# ---------------------------------------------------------------- run

def test_run_prints_summary(capsys):
    assert run_cli("run", "--stream", "sea:seg=60;noise=0", *FAST) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "instances 60" in out


def test_run_report_files_are_byte_identical(tmp_path):
    args = ["run", "--stream", "sea:seg=50;noise=0", *FAST, "--seed", "3"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(p1)) == 0
    assert run_cli(*args, "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes()

    text = p1.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert "wall_time_s" not in data
    assert data["config"]["seed"] == 3
    assert "out" not in data["config"]


def test_run_timing_flag_adds_wall_time(tmp_path):
    p = tmp_path / "timed.json"
    assert run_cli("run", "--stream", "sea:seg=40;noise=0", *FAST,
                   "--out", str(p), "--timing") == 0
    assert json.loads(p.read_text())["wall_time_s"] >= 0.0


def test_run_forwards_hyperparameters(tmp_path):
    p = tmp_path / "r.json"
    assert run_cli("run", "--stream", "sea:seg=40;noise=0", *FAST,
                   "--lambda", "0.05", "--mem", "64", "--gamma", "0.25",
                   "--out", str(p)) == 0
    cfg = json.loads(p.read_text())["config"]
    assert cfg["lam"] == 0.05
    assert cfg["memory_capacity"] == 64
    assert cfg["outer_rate"] == 0.25


def test_run_bad_stream_exits_2(capsys):
    # a csv spec names a file; `pima` is not one
    for spec, message in [("nope:whatever", "unknown stream kind 'nope'"),
                          ("csv:pima", "no such file: pima")]:
        assert run_cli("run", "--stream", spec, *FAST) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_run_diverging_network_exits_2(capsys):
    code = run_cli("run", "--stream", "hyperplane:seg=300,300;mode=flip;d=8",
                   "--seed", "1", "--optimizer", "sgd", "--lr", "50")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err


def test_run_eta_that_underflows_exits_2(capsys):
    # refused before the run: at eta 2000 the head importances would turn
    # to 0 / 0 on the first step and the run stop as if training diverged
    code = run_cli("run", "--learner", "bodl-2", "--layers", "2", "--width", "8",
                   "--eta", "2000", "--stream",
                   "hyperplane:seg=500,500;noise=0.1;mode=flip;d=5", "--seed", "0")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: eta must be at most 14, got 2000.0")


def test_run_diverging_baseline_exits_2(capsys):
    # ROMMA assumes separable data; on this noisy stream its weights reach inf.
    # No errstate here: the command itself keeps numpy's overflow warnings
    # off stderr, so the typed error is the one line printed.
    code = run_cli("run", "--learner", "romma", "--stream",
                   "sea:seg=3000,3000,3000;noise=0.2", "--seed", "0")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert err.endswith("not finite at stream position 4508\n")


def test_run_unknown_learner_exits_2(capsys):
    assert run_cli("run", "--stream", "sea:seg=20", "--learner", "bodl-9") == 2
    assert "error:" in capsys.readouterr().err


def test_run_baseline_learner(capsys):
    assert run_cli("run", "--stream", "sea:seg=60;noise=0",
                   "--learner", "arow") == 0
    assert "arow" in capsys.readouterr().out


# ---------------------------------------------------------------- gen

def test_gen_then_run_round_trip(tmp_path, capsys):
    out = tmp_path / "stream.csv"
    assert run_cli("gen", "--spec", "hyperplane:seg=30,30;mode=flip;d=3;noise=0",
                   "--seed", "4", "--out", str(out)) == 0
    assert "60 instances" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 60
    assert run_cli("run", "--stream", f"csv:{out}", *FAST) == 0


def test_gen_bad_spec_exits_2(tmp_path, capsys):
    assert run_cli("gen", "--spec", "sea:", "--out", str(tmp_path / "x.csv")) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_oversized_spec_exits_2(tmp_path, capsys):
    # refused up front, not a MemoryError from the draw
    out = tmp_path / "x.csv"
    assert run_cli("gen", "--spec", "hyperplane:seg=10000000000", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 10000000000 rows of 8 features exceed the generator's limit")
    assert not out.exists()


def test_gen_negative_seed_is_named(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli("gen", "--spec", "sea:seg=10", "--seed", "-1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"
    assert "non-negative integer" not in err
    assert not out.exists()


# ---------------------------------------------------------------- ablate

def test_ablate_grid_and_medians(tmp_path, capsys):
    table = tmp_path / "ablation.csv"
    assert run_cli("ablate", "--stream", "sea:seg=80;noise=0", *FAST,
                   "--seeds", "1,2", "--out", str(table)) == 0
    rows = read_rows(table)
    assert rows[0] == cli.TABLE_COLUMNS
    body = rows[1:]
    assert len(body) == 9    # 3 learners x 2 seeds + 3 median lines
    medians = [r for r in body if r[2] == "median"]
    assert [r[0] for r in medians] == ["bodl-base", "bodl-1", "bodl-2"]
    for r in medians:
        assert 0.0 <= float(r[3]) <= 1.0
    assert "median accuracy" in capsys.readouterr().out


def test_ablate_explicit_lambda_spares_the_plain_variant(tmp_path):
    # --lambda applies to the penalized variants; the plain one must not
    # be rejected for carrying it
    table = tmp_path / "t.csv"
    assert run_cli("ablate", "--stream", "sea:seg=40;noise=0", *FAST,
                   "--lambda", "0.2", "--seeds", "1", "--out", str(table)) == 0
    rows = read_rows(table)
    assert all(r[-1] == "" for r in rows[1:])


def test_ablate_failing_stream_exits_1(tmp_path, capsys):
    table = tmp_path / "fail.csv"
    assert run_cli("ablate", "--stream", "csv:/no/such/file.csv", *FAST,
                   "--seeds", "1", "--out", str(table)) == 1
    assert "FAILED" in capsys.readouterr().err
    rows = read_rows(table)
    assert len(rows) == 4    # header + one failure row per learner
    assert all(r[-1] != "" for r in rows[1:])


def test_ablate_no_seeds_exits_2(tmp_path, capsys):
    assert run_cli("ablate", "--stream", "sea:seg=20", "--seeds", ",",
                   "--out", str(tmp_path / "x.csv")) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- bench

def bench_entries():
    return [
        {"stream": "sea:seg=40;noise=0", "learner": "pa"},
        {"stream": "sea:seg=40;noise=0", "learner": "bodl-base",
         "hidden_layers": 1, "width": 4, "optimizer": "sgd"},
    ]


def test_bench_list_form(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(bench_entries()))
    assert run_cli("bench", "--config", str(suite)) == 0
    default_csv = tmp_path / "suite.results.csv"
    rows = read_rows(default_csv)
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["pa", "bodl-base"]
    assert "results written" in capsys.readouterr().out
    out = tmp_path / "flat.csv"
    assert run_cli("bench", "--config", str(suite), "--out", str(out)) == 0
    assert read_rows(out) == rows


def test_bench_dict_form_with_explicit_out(tmp_path, capsys):
    # a suite is a list; an object holding one is refused before any run
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": bench_entries()}))
    out = tmp_path / "flat.csv"
    assert run_cli("bench", "--config", str(suite), "--out", str(out)) == 2
    assert "expected a non-empty list of run entries" in capsys.readouterr().err
    assert not out.exists()


def test_bench_per_entry_report_files(tmp_path):
    report = tmp_path / "pa.json"
    entries = [{"stream": "sea:seg=40;noise=0", "learner": "pa",
                "out": str(report)}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 0
    assert json.loads(report.read_text())["config"]["learner"] == "pa"


def test_bench_non_string_out_refused_before_any_run(tmp_path, capsys):
    # a bad report path would otherwise fail only after its run had finished
    first = tmp_path / "first.json"
    entries = [{"stream": "sea:seg=40;noise=0", "learner": "pa", "out": str(first)},
               {"stream": "sea:seg=40;noise=0", "learner": "arow", "out": 5}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 2
    captured = capsys.readouterr()
    assert "entry 1 out must be a string or null, got 5" in captured.err
    assert captured.out == ""
    assert not first.exists()
    assert not (tmp_path / "suite.results.csv").exists()


def test_bench_bad_learner_is_captured_not_fatal(tmp_path, capsys):
    entries = bench_entries() + [{"stream": "sea:seg=40", "learner": "hal9000"}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 1
    assert "FAILED" in capsys.readouterr().err
    rows = read_rows(tmp_path / "suite.results.csv")
    assert rows[3][-1] != ""     # the bad entry carries its error
    assert rows[1][-1] == ""     # the good ones do not


def test_bench_rows_keep_input_order_and_capture_errors(tmp_path):
    entries = [
        {"stream": "sea:seg=40;noise=0", "learner": "bodl-base",
         "hidden_layers": 1, "width": 8, "optimizer": "sgd", "lr": 0.05},
        {"stream": "sea:seg=40;noise=0", "learner": "not-a-learner"},
        {"stream": "sea:seg=40;noise=0", "learner": "pa"},
    ]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 1
    rows = read_rows(tmp_path / "suite.results.csv")
    assert [r[0] for r in rows[1:]] == ["bodl-base", "not-a-learner", "pa"]
    assert rows[1][-1] == "" and rows[3][-1] == ""
    assert "ConfigError" in rows[2][-1]
    assert rows[2][3:-1] == ["", "", "", "", ""]


def test_bench_records_divergence(tmp_path):
    entries = [{"stream": "hyperplane:seg=300,300;noise=0.05;mode=flip;d=8",
                "seed": 1, "optimizer": "sgd", "lr": 50.0}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 1
    [row] = read_rows(tmp_path / "suite.results.csv")[1:]
    assert row[3:-1] == ["", "", "", "", ""]
    assert "DivergenceError" in row[-1] and "position 5" in row[-1]


def test_bench_unwritable_report_fails_only_its_run(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    later = tmp_path / "later.json"
    entries = [{"stream": "sea:seg=40;noise=0", "learner": "pa",
                "out": str(blocker / "pa.json")},
               {"stream": "sea:seg=40;noise=0", "learner": "arow", "out": str(later)}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 1
    assert "pa on sea:seg=40;noise=0 seed 0: FAILED (" in capsys.readouterr().err
    first, second = read_rows(tmp_path / "suite.results.csv")[1:]
    assert first[3:-1] == ["", "", "", "", ""]
    assert first[-1].startswith("FileExistsError")
    assert second[0] == "arow" and second[-1] == ""
    assert json.loads(later.read_text())["config"]["learner"] == "arow"


def test_bench_unknown_key_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"stream": "sea:seg=20", "optimiser": "sgd"}]))
    assert run_cli("bench", "--config", str(suite)) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_bench_missing_stream_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"learner": "pa"}]))
    assert run_cli("bench", "--config", str(suite)) == 2
    assert "stream" in capsys.readouterr().err


def test_bench_empty_suite_exits_2(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text("[]")
    assert run_cli("bench", "--config", str(suite)) == 2


def test_bench_json_syntax_error_names_the_file(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text('[{"stream": "sea:seg=10",}]')
    assert run_cli("bench", "--config", str(suite)) == 2
    assert capsys.readouterr().err == (f"error: {suite} line 1: Expecting property name "
                                       "enclosed in double quotes\n")
    assert not (tmp_path / "suite.results.csv").exists()


def test_bench_object_without_runs_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"run": bench_entries()}))
    assert run_cli("bench", "--config", str(suite)) == 2
    assert "expected a non-empty list of run entries" in capsys.readouterr().err
