"""Command-line behavior: exit codes, report files, grids, suite files."""

import csv
import json

import numpy as np
import pytest

from bodl.cli import _parse_seeds, main
from bodl.errors import ConfigError

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
    assert run_cli("run", "--stream", "nope:whatever", *FAST) == 2
    assert "error:" in capsys.readouterr().err


def test_run_diverging_network_exits_2(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("run", "--stream", "hyperplane:seg=300,300;mode=flip;d=8",
                       "--seed", "1", "--optimizer", "sgd", "--lr", "50")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err


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


# ---------------------------------------------------------------- ablate

def test_ablate_grid_and_medians(tmp_path, capsys):
    table = tmp_path / "ablation.csv"
    assert run_cli("ablate", "--stream", "sea:seg=80;noise=0", *FAST,
                   "--seeds", "1,2", "--out", str(table)) == 0
    rows = read_rows(table)
    assert rows[0][:3] == ["learner", "seed", "accuracy"]
    body = rows[1:]
    assert len(body) == 9    # 3 learners x 2 seeds + 3 median lines
    medians = [r for r in body if r[1] == "median"]
    assert [r[0] for r in medians] == ["bodl-base", "bodl-1", "bodl-2"]
    for r in medians:
        assert 0.0 <= float(r[2]) <= 1.0
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


def test_bench_dict_form_with_explicit_out(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": bench_entries()}))
    out = tmp_path / "flat.csv"
    assert run_cli("bench", "--config", str(suite), "--out", str(out)) == 0
    assert len(read_rows(out)) == 3


def test_bench_per_entry_report_files(tmp_path):
    report = tmp_path / "pa.json"
    entries = [{"stream": "sea:seg=40;noise=0", "learner": "pa",
                "out": str(report)}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 0
    assert json.loads(report.read_text())["config"]["learner"] == "pa"


def test_bench_bad_learner_is_captured_not_fatal(tmp_path, capsys):
    entries = bench_entries() + [{"stream": "sea:seg=40", "learner": "hal9000"}]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    assert run_cli("bench", "--config", str(suite)) == 1
    assert "FAILED" in capsys.readouterr().err
    rows = read_rows(tmp_path / "suite.results.csv")
    assert rows[3][-1] != ""     # the bad entry carries its error
    assert rows[1][-1] == ""     # the good ones do not


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
