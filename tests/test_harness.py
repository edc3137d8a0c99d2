"""Prequential harness: learner resolution, metrics, loop ordering, suites."""

import json

import numpy as np
import pytest

from bodl.errors import ConfigError, DivergenceError, InputError
from bodl.harness import (
    MetricsReport,
    NetworkLearner,
    RunConfig,
    prequential_run,
    run_suite,
    update_metrics,
)
from bodl.memory import StreamInstance
from bodl.streams import StreamSource, gen_drift_stream, parse_stream_spec

# fast two-concept stream that reliably trips the detector (flip drift is
# maximally abrupt), paired with a small one-layer network
FAST_DRIFT = "hyperplane:seg=300,300;noise=0.05;mode=flip;d=8"


def fast_config(learner, seed=3, **over):
    base = dict(stream=FAST_DRIFT, learner=learner, seed=seed, hidden_layers=1,
                width=8, optimizer="sgd", lr=0.05)
    base.update(over)
    return RunConfig(**base)


def tiny_source(labels, dim=2, classes=2):
    insts = [StreamInstance(np.full(dim, float(i)), y, i)
             for i, y in enumerate(labels)]
    return StreamSource(insts, dim, classes, "toy")


# ---------------------------------------------------------------- resolve

def test_resolve_learner_variants():
    stream = "sea:seg=10"
    assert RunConfig(stream, learner="bodl-2").resolve_learner() == ("network", 0.1, True)
    assert RunConfig(stream, learner="bodl-1").resolve_learner() == ("network", 0.1, False)
    assert RunConfig(stream, learner="bodl-base").resolve_learner() == ("network", 0.0, False)
    assert RunConfig(stream, learner="bodl-2", lam=0.7).resolve_learner() == ("network", 0.7, True)
    assert RunConfig(stream, learner="pa").resolve_learner() == ("baseline", 0.0, False)


def test_resolve_learner_rejects_contradictions():
    stream = "sea:seg=10"
    with pytest.raises(ConfigError):
        RunConfig(stream, learner="bodl-base", lam=0.3).resolve_learner()
    with pytest.raises(ConfigError):
        RunConfig(stream, learner="bodl-2", lam=0.0).resolve_learner()
    with pytest.raises(ConfigError):
        RunConfig(stream, learner="bodl-1", lam=-0.5).resolve_learner()
    with pytest.raises(ConfigError, match="unknown learner"):
        RunConfig(stream, learner="bodl-3").resolve_learner()


def test_base_learner_accepts_explicit_zero_lam():
    assert RunConfig("sea:seg=10", learner="bodl-base", lam=0.0).resolve_learner() \
        == ("network", 0.0, False)


def test_validate_runs_before_stream_parsing():
    # the config is checked first, so a bad learning rate surfaces even
    # though the stream spec is also nonsense
    cfg = RunConfig(stream="definitely:not-valid", lr=-1.0)
    with pytest.raises(ConfigError, match="learning rate"):
        prequential_run(cfg)


def test_validate_covers_detector_and_memory_knobs():
    with pytest.raises(ConfigError):
        RunConfig("sea:seg=10", detector_min_instances=0).validate()
    with pytest.raises(ConfigError):
        RunConfig("sea:seg=10", detector_sensitivity=0.0).validate()
    with pytest.raises(ConfigError):
        RunConfig("sea:seg=10", memory_capacity=0).validate()
    with pytest.raises(ConfigError):
        RunConfig("sea:seg=10", inner_steps=0).validate()


def test_echo_drops_output_path_and_flattens_stream():
    src = gen_drift_stream("sea", [10], seed=1)
    echoed = RunConfig(stream=src, out="/tmp/report.json").echo()
    assert "out" not in echoed
    assert echoed["stream"] == src.provenance
    assert echoed["learner"] == "bodl-2"


# ---------------------------------------------------------------- metrics

def test_update_metrics_balanced_confusion():
    report = MetricsReport(classes=2)
    for pred, actual in [(1, 1), (1, 0), (0, 1), (0, 0)]:
        update_metrics(report, pred, actual)
    assert report.total == 4
    assert report.accuracy == 0.5
    assert report.macro_precision == 0.5
    assert report.macro_recall == 0.5
    assert report.macro_f1 == 0.5


def test_update_metrics_all_correct():
    report = MetricsReport(classes=3)
    for c in [0, 1, 2, 1, 0]:
        update_metrics(report, c, c)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert list(report.true_pos) == [2, 2, 1]


def test_update_metrics_rejects_bad_indices():
    report = MetricsReport(classes=2)
    with pytest.raises(InputError):
        update_metrics(report, 2, 0)
    with pytest.raises(InputError):
        update_metrics(report, 0, -1)


def test_metrics_zero_division_guard():
    report = MetricsReport(classes=2)
    assert report.accuracy == 0.0
    assert report.macro_precision == 0.0
    assert report.macro_f1 == 0.0


def test_report_dict_is_json_serializable():
    cfg = RunConfig("sea:seg=40;noise=0", hidden_layers=1, width=4,
                    optimizer="sgd")
    report = prequential_run(cfg)
    plain = report.as_dict()
    json.dumps(plain)
    assert "wall_time_s" not in plain
    timed = report.as_dict(include_timing=True)
    assert timed["wall_time_s"] >= 0.0


# ---------------------------------------------------------------- runs

def test_empty_stream_yields_empty_report():
    report = prequential_run(RunConfig(stream=StreamSource([], 3, 2, "empty")))
    assert report.total == 0
    assert report.accuracy == 0.0
    assert report.drift_events == []


def test_prediction_happens_before_learning():
    # identical single-instance streams that differ only in the label must
    # produce the same prediction: the learner cannot peek
    a = prequential_run(RunConfig(stream=tiny_source([0]), seed=5))
    b = prequential_run(RunConfig(stream=tiny_source([1]), seed=5))
    got_a = int(np.argmax(a.true_pos + a.false_pos))
    got_b = int(np.argmax(b.true_pos + b.false_pos))
    assert got_a == got_b


def test_network_run_covers_stream():
    cfg = RunConfig("sea:seg=80;noise=0", hidden_layers=2, width=4, seed=1)
    report = prequential_run(cfg)
    assert report.total == 80
    assert 0.0 <= report.accuracy <= 1.0
    assert report.stream_info["instances"] == 80
    assert report.stream_info["classes"] == 2


def test_baseline_run_through_harness():
    cfg = RunConfig("sea:seg=120;noise=0", learner="ogd", lr=0.5, seed=2)
    report = prequential_run(cfg)
    assert report.total == 120
    assert report.accuracy > 0.5
    assert report.config["learner"] == "ogd"
    assert report.drift_events == []


def test_flip_drift_trips_detector_without_adaptation():
    report = prequential_run(fast_config("bodl-base"))
    assert len(report.drift_events) >= 1
    assert report.adaptations == []
    first = report.drift_events[0]
    assert 300 <= first["position"] < 600
    # before any reset the detector has seen position+1 instances, so the
    # firing inequality rate + std > threshold can be rebuilt exactly
    p, n = first["error_rate"], first["position"] + 1
    assert p + np.sqrt(p * (1.0 - p) / n) > first["threshold"]


def test_adaptations_follow_drift_events_one_to_one():
    report = prequential_run(fast_config("bodl-2"))
    assert len(report.drift_events) >= 1
    assert [a["position"] for a in report.adaptations] \
        == [d["position"] for d in report.drift_events]
    for a in report.adaptations:
        assert a["memory_batch"] > 0
        assert a["shift_norm"] >= 0.0


def test_one_layer_ensemble_ignores_similarity_weight():
    # with a single hidden layer there is no representation pair, so the
    # penalized and unpenalized learners walk identical trajectories
    base = prequential_run(fast_config("bodl-base")).as_dict()
    mid = prequential_run(fast_config("bodl-1")).as_dict()
    assert mid["metrics"] == base["metrics"]
    assert mid["drift_events"] == base["drift_events"]
    assert mid["per_class"] == base["per_class"]


def test_detector_rearm_gap_between_drifts():
    cfg = fast_config("bodl-2", stream="hyperplane:seg=300,300,300;noise=0.05;mode=flip;d=8")
    report = prequential_run(cfg)
    positions = [d["position"] for d in report.drift_events]
    assert len(positions) >= 2
    gaps = np.diff(positions)
    assert np.all(gaps >= cfg.detector_min_instances)


def test_event_positions_come_from_the_stream():
    # positions start at 1000, so a learner-side counter would not match
    src = parse_stream_spec(FAST_DRIFT, default_seed=3)
    shifted = StreamSource([StreamInstance(i.features, i.label, i.position + 1000)
                            for i in src], src.input_dim, src.classes, "shifted")
    report = prequential_run(fast_config("bodl-2", stream=shifted))
    positions = {inst.position for inst in shifted}
    assert report.drift_events and report.adaptations
    for event in report.drift_events + report.adaptations:
        assert event["position"] in positions


def test_divergence_is_caught_before_the_importances_update():
    # SGD at lr=50 overflows within a few instances on the default shape
    source = parse_stream_spec(FAST_DRIFT, default_seed=1)
    cfg = RunConfig(source, seed=1, optimizer="sgd", lr=50.0, standardize=False)
    learner = NetworkLearner(cfg, source, MetricsReport(classes=source.classes))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            for inst in source:
                learner.step(inst.features, inst.label, inst.position)
    assert info.value.position == inst.position
    assert np.all(np.isfinite(learner.weights))
    assert abs(float(learner.weights.sum()) - 1.0) <= 1e-12


def test_run_is_deterministic():
    a = prequential_run(fast_config("bodl-2")).as_dict()
    b = prequential_run(fast_config("bodl-2")).as_dict()
    assert a == b


def test_seed_changes_the_run():
    a = prequential_run(fast_config("bodl-2", seed=3))
    b = prequential_run(fast_config("bodl-2", seed=4))
    assert a.as_dict() != b.as_dict()


def test_standardization_flag_is_honored():
    on = prequential_run(fast_config("bodl-2"))
    off = prequential_run(fast_config("bodl-2", standardize=False))
    assert on.config["standardize"] is True
    assert off.config["standardize"] is False
    assert on.total == off.total == 600


# ---------------------------------------------------------------- suites

def test_run_suite_preserves_order_and_captures_errors():
    configs = [
        fast_config("bodl-base", stream="sea:seg=40;noise=0"),
        RunConfig("sea:seg=40;noise=0", learner="not-a-learner"),
        fast_config("pa", stream="sea:seg=40;noise=0"),
    ]
    results = run_suite(configs)
    assert [r.config["learner"] for r in results] \
        == ["bodl-base", "not-a-learner", "pa"]
    assert results[0].ok and results[2].ok
    assert not results[1].ok
    assert "ConfigError" in results[1].error
    assert results[1].report is None


def test_run_suite_records_divergence():
    cfg = RunConfig(FAST_DRIFT, seed=1, optimizer="sgd", lr=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        [result] = run_suite([cfg])
    assert not result.ok
    assert result.report is None
    assert "DivergenceError" in result.error and "position 5" in result.error


def test_run_suite_parallel_matches_sequential():
    configs = [fast_config("bodl-base", stream="sea:seg=50;noise=0", seed=s)
               for s in (1, 2)]
    seq = run_suite(configs, workers=1)
    par = run_suite(configs, workers=2)
    for a, b in zip(seq, par):
        assert a.report.as_dict() == b.report.as_dict()


def test_run_suite_rejects_zero_workers():
    with pytest.raises(ConfigError):
        run_suite([fast_config("pa")], workers=0)
