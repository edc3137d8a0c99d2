"""Golden reports: seed 0 of every benchmark workload must reproduce the
report recorded in perfbench/golden.json bit for bit.

The workload table and the report digest are read from perfbench/ as they
are; nothing there is written. A change that moves the last bit of any
prediction, loss or parameter changes the report hash and fails here.
"""

import sys
from pathlib import Path

import pytest

from bodl.harness import RunConfig, prequential_run
from bodl.streams import parse_stream_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, load_golden, prepare_inputs, report_summary  # noqa: E402


@pytest.mark.parametrize("name", ["deep-flip", "drift-storm", "linear-csv"])
def test_seed_zero_report_matches_golden(name, tmp_path, monkeypatch):
    # the CSV workload writes its input under the working directory and the
    # report echoes that relative path, as in a benchmark run
    monkeypatch.chdir(tmp_path)
    wl, seed = WORKLOADS[name], 0
    prepare_inputs(wl, seed)
    source = parse_stream_spec(wl.stream_spec(seed), default_seed=seed)
    report = prequential_run(RunConfig(stream=source, learner=wl.learner, seed=seed,
                                       **wl.knobs))
    assert report_summary(report) == load_golden()[name][str(seed)]
