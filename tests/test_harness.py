"""Prequential harness: learner resolution, metrics, loop ordering."""

import copy
import json
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from bodl import harness
from bodl.bilevel import adapt_on_drift
from bodl.errors import ConfigError, DivergenceError, InputError
from bodl.harness import (
    STANDARDIZE_BLOCK,
    MetricsReport,
    NetworkLearner,
    RunConfig,
    prequential_run,
    update_metrics,
)
from bodl.hedge_net import WEIGHT_FLOOR, hedge_update
from bodl.streams import StreamInstance, StreamSource, gen_drift_stream, parse_stream_spec

from oracles import ReferenceStandardizer

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
    assert RunConfig(stream, learner="bodl-2").resolve_learner() == (0.1, True)
    assert RunConfig(stream, learner="bodl-1").resolve_learner() == (0.1, False)
    assert RunConfig(stream, learner="bodl-base").resolve_learner() == (0.0, False)
    assert RunConfig(stream, learner="bodl-2", lam=0.7).resolve_learner() == (0.7, True)
    assert RunConfig(stream, learner="pa").resolve_learner() == (0.0, False)


def test_resolve_learner_rejects_contradictions():
    stream = "sea:seg=10"
    with pytest.raises(ConfigError):
        RunConfig(stream, learner="bodl-base", lam=0.3).resolve_learner()
    with pytest.raises(ConfigError):
        RunConfig(stream, learner="bodl-2", lam=0.0).resolve_learner()
    with pytest.raises(ConfigError):
        RunConfig(stream, learner="bodl-1", lam=-0.5).resolve_learner()
    with pytest.raises(ConfigError, match="^learner must be one of"):
        RunConfig(stream, learner="bodl-3").resolve_learner()


def test_base_learner_accepts_explicit_zero_lam():
    assert RunConfig("sea:seg=10", learner="bodl-base", lam=0.0).resolve_learner() \
        == (0.0, False)


def test_validate_runs_before_stream_parsing():
    # the config is checked first, so a bad learning rate surfaces even
    # though the stream spec is also nonsense
    cfg = RunConfig(stream="definitely:not-valid", lr=-1.0)
    with pytest.raises(ConfigError, match="^lr must be"):
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
    with pytest.raises(ConfigError, match="memory_batch"):
        RunConfig("sea:seg=10", memory_batch=0).validate()
    with pytest.raises(ConfigError, match="recent_window"):
        RunConfig("sea:seg=10", recent_window=0).validate()
    with pytest.raises(ConfigError, match="eta"):
        RunConfig("sea:seg=10", eta=0.0).validate()
    with pytest.raises(ConfigError, match="optimizer"):
        RunConfig("sea:seg=10", optimizer="adagrad").validate()
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        RunConfig("sea:seg=10", seed=-1).validate()


def test_eta_that_underflows_every_head_rejected():
    # above eta = 14 a capped loss takes exp(-eta * loss) under exp(-700); at
    # eta = 2000 every head's factor is 0 and the importances become 0 / 0
    for eta in (14.000001, 20.0, 2000.0):
        with pytest.raises(ConfigError, match=r"eta must be at most 14, got"):
            RunConfig("sea:seg=10", eta=eta).validate()
    for eta in (0.01, 5.0, 14.0):
        RunConfig("sea:seg=10", eta=eta).validate()
    # at the largest accepted eta, every loss at the cap still renormalizes
    weights = np.r_[np.full(15, WEIGHT_FLOOR / 16), 1.0 - 15 * WEIGHT_FLOOR / 16]
    for w in (weights, np.full(16, 1.0 / 16)):
        out = hedge_update(w, np.full(16, 1e9), 14.0)
        assert np.isfinite(out).all() and out.sum() == pytest.approx(1.0)


# Wrongly typed or non-finite values. Without the type checks each one
# either fails deep inside a run (a float batch size or window reaches numpy
# indexing, a nan or inf rate diverges), runs to the end and echoes the bad
# value into the report, or raises a bare TypeError (a list as learner). A
# suite entry's non-string report path is refused by `bodl bench` itself
# (tests/test_cli.py).
BAD_VALUES = [
    ("memory_batch", 2.0),
    ("recent_window", 3.5),
    ("inner_rate", float("nan")),
    ("eta", float("inf")),
    ("detector_min_instances", 2.5),
    ("memory_capacity", 3.5),
    ("standardize", "no"),
    ("hidden_layers", True),
    ("lam", float("nan")),
    ("learner", ["pa"]),
]


@pytest.mark.parametrize("name, value", BAD_VALUES, ids=[name for name, _ in BAD_VALUES])
def test_validate_rejects_wrongly_typed_values(name, value):
    # the stream spec is nonsense too: the field must be named before any
    # stream is built
    cfg = RunConfig(stream="definitely:not-valid", **{name: value})
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        prequential_run(cfg)


# Out-of-range values, each with any other fields it needs. Each message
# starts with the field's name, and each is raised before the (nonsense)
# stream is built: a network shape of 0 used to surface only after the whole
# stream was generated.
OUT_OF_RANGE = [
    ("inner_rate", -0.1, {}),
    ("outer_rate", 1.5, {}),
    ("outer_rate", -0.1, {}),
    ("inner_steps", 0, {}),
    ("hidden_layers", 0, {}),
    ("width", 0, {}),
    ("lr", -1.0, {}),
    ("optimizer", "adagrad", {}),
    ("lam", -0.5, {}),
    ("lam", 0.3, {"learner": "bodl-base"}),   # the plain ablation takes no weight
    ("learner", "nope", {}),
]


@pytest.mark.parametrize("name, value, others", OUT_OF_RANGE,
                         ids=[f"{name}={value}" for name, value, _ in OUT_OF_RANGE])
def test_validate_names_out_of_range_fields(name, value, others):
    cfg = RunConfig(stream="definitely:not-valid", **others, **{name: value})
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        prequential_run(cfg)


def test_validate_accepts_ints_for_floats_and_none_for_lam():
    RunConfig("sea:seg=10", eta=1, lr=1, outer_rate=1, lam=None).validate()
    RunConfig("sea:seg=10", lam=1, detector_sensitivity=3).validate()


def test_every_field_is_type_checked_but_the_stream():
    # validate() looks each check up by its annotation, so a field whose
    # annotation has no entry in _FIELD_TYPES would go unchecked silently
    unchecked = {f.name for f in fields(RunConfig) if f.type not in harness._FIELD_TYPES}
    assert unchecked == {"stream"}


def test_echo_holds_every_field_and_flattens_stream():
    src = gen_drift_stream("sea", [10], seed=1)
    echoed = RunConfig(stream=src).echo()
    assert list(echoed) == [f.name for f in fields(RunConfig)]
    assert echoed["stream"] == src.provenance
    assert echoed["learner"] == "bodl-2"


# ---------------------------------------------------------------- metrics

def test_update_metrics_balanced_confusion():
    report = MetricsReport(classes=2)
    for pred, actual in [(1, 1), (1, 0), (0, 1), (0, 0)]:
        update_metrics(report, pred, actual)
    assert report.metrics() == {"total": 4, "correct": 2, "accuracy": 0.5,
                                "macro_precision": 0.5, "macro_recall": 0.5,
                                "macro_f1": 0.5}
    assert report.accuracy == 0.5


def test_update_metrics_all_correct():
    report = MetricsReport(classes=3)
    for c in [0, 1, 2, 1, 0]:
        update_metrics(report, c, c)
    assert report.accuracy == 1.0
    assert report.metrics()["macro_f1"] == 1.0
    assert list(np.diag(report.confusion)) == [2, 2, 1]


def test_update_metrics_rejects_bad_indices():
    report = MetricsReport(classes=2)
    with pytest.raises(InputError):
        update_metrics(report, 2, 0)
    with pytest.raises(InputError):
        update_metrics(report, 0, -1)


def loop_per_class(confusion):
    """Precision, recall and F1 per class, one class at a time in Python scalars."""
    prec, rec, f1 = [], [], []
    for c in range(len(confusion)):
        tp = confusion[c, c]
        fp, fn = confusion[:, c].sum() - tp, confusion[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        prec.append(p)
        rec.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    return prec, rec, f1


def test_per_class_metrics_match_a_class_by_class_loop():
    rng = np.random.default_rng(4)
    for _ in range(300):
        classes = int(rng.integers(2, 6))
        report = MetricsReport(classes=classes)
        # sparse counts, so some classes are never predicted or never seen
        for actual, predicted in rng.integers(classes, size=(int(rng.integers(0, 12)), 2)):
            update_metrics(report, int(predicted), int(actual))
        prec, rec, f1 = loop_per_class(report.confusion)
        data = report.as_dict()
        metrics = data["metrics"]
        assert metrics == report.metrics()
        assert metrics["macro_precision"] == float(np.mean(prec))
        assert metrics["macro_recall"] == float(np.mean(rec))
        assert metrics["macro_f1"] == float(np.mean(f1))
        counts = data["per_class"]
        assert sum(counts["true_pos"]) == metrics["correct"]
        assert sum(counts["true_pos"]) + sum(counts["false_neg"]) == metrics["total"]
        assert sum(counts["false_pos"]) == sum(counts["false_neg"])


def test_metrics_zero_division_guard():
    report = MetricsReport(classes=2)
    assert report.accuracy == 0.0
    assert report.metrics()["macro_precision"] == 0.0
    assert report.metrics()["macro_recall"] == 0.0
    assert report.metrics()["macro_f1"] == 0.0


def test_report_dict_is_json_serializable():
    cfg = RunConfig("sea:seg=40;noise=0", hidden_layers=1, width=4,
                    optimizer="sgd")
    report = prequential_run(cfg)
    plain = report.as_dict()
    json.dumps(plain)
    assert "wall_time_s" not in plain
    assert report.wall_time >= 0.0


# ---------------------------------------------------------------- runs

def test_empty_stream_yields_empty_report():
    report = prequential_run(RunConfig(stream=StreamSource([], 3, 2, "empty")))
    assert report.metrics()["total"] == 0
    assert report.accuracy == 0.0
    assert report.drift_events == []


@pytest.mark.parametrize("learner", ["bodl-base", "arow"])
@pytest.mark.parametrize("standardize", [True, False])
def test_mis_shaped_instance_rejected(learner, standardize):
    # a (1,) row in a 3-feature stream must not broadcast against the
    # standardizer's running mean into a (3,) row the learner accepts; in
    # the second block, it stops the run when that block is gathered
    for bad in (1, STANDARDIZE_BLOCK + 5):
        insts = [StreamInstance(np.ones(1) if i == bad else np.full(3, i % 7), i % 2, i)
                 for i in range(bad + 2)]
        cfg = RunConfig(stream=StreamSource(insts, 3, 2, "ragged"), learner=learner,
                        standardize=standardize, hidden_layers=1, width=8)
        with pytest.raises(InputError, match=r"shape \(1,\), expected \(3,\) at stream "
                                             r"position %d$" % bad):
            prequential_run(cfg)


@pytest.mark.parametrize("bad", [1, STANDARDIZE_BLOCK + 5])
@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("learner", ["bodl-base", "arow"])
@pytest.mark.parametrize("row", [np.array([0.0, np.nan, 1.0]), np.array([np.inf, 0.0, 1.0])],
                         ids=["nan", "inf"])
def test_non_finite_row_names_its_stream_position(row, learner, standardize, bad):
    # as a mis-shaped row does (above), a non-finite one stops the run with
    # an InputError that says where in the stream it is, in either mode
    insts = [StreamInstance(row if i == bad else np.full(3, i % 7), i % 2, i)
             for i in range(bad + 2)]
    cfg = RunConfig(stream=StreamSource(insts, 3, 2, "bad"), learner=learner,
                    standardize=standardize, hidden_layers=1, width=8)
    with pytest.raises(InputError, match=r"at stream position %d$" % bad):
        prequential_run(cfg)


@pytest.mark.parametrize("rows", [511, 512, 513, 1027])
@pytest.mark.parametrize("learner", ["arow", "bodl-2"])
def test_block_standardized_run_matches_row_by_row(rows, learner):
    # runs across block edges: standardizing in blocks inside the loop gives
    # the report of a run on the stream standardized row by row beforehand
    source = gen_drift_stream("hyperplane", [rows // 2, rows - rows // 2], noise=0.05,
                              dim=8, seed=4, mode="flip")
    ref = ReferenceStandardizer(source.input_dim)
    scored = StreamSource([StreamInstance(ref.standardize(inst.features), inst.label,
                                          inst.position) for inst in source],
                          source.input_dim, source.classes, source.provenance)
    knobs = dict(learner=learner, seed=2, hidden_layers=1, width=8, optimizer="sgd", lr=0.05)
    blocks = prequential_run(RunConfig(stream=source, **knobs)).as_dict()
    before = prequential_run(RunConfig(stream=scored, standardize=False, **knobs)).as_dict()
    for key in ("metrics", "per_class", "drift_events", "adaptations"):
        assert blocks[key] == before[key]
    assert blocks["metrics"]["total"] == rows


def test_prediction_happens_before_learning():
    # identical single-instance streams that differ only in the label must
    # produce the same prediction: the learner cannot peek
    a = prequential_run(RunConfig(stream=tiny_source([0]), seed=5))
    b = prequential_run(RunConfig(stream=tiny_source([1]), seed=5))
    got_a = int(np.argmax(a.confusion.sum(axis=0)))   # the predicted class's column
    got_b = int(np.argmax(b.confusion.sum(axis=0)))
    assert got_a == got_b


def test_network_run_covers_stream():
    cfg = RunConfig("sea:seg=80;noise=0", hidden_layers=2, width=4, seed=1)
    report = prequential_run(cfg)
    assert report.metrics()["total"] == 80
    assert 0.0 <= report.accuracy <= 1.0
    assert report.stream_info["instances"] == 80
    assert report.stream_info["classes"] == 2


def test_baseline_run_through_harness():
    cfg = RunConfig("sea:seg=120;noise=0", learner="ogd", lr=0.5, seed=2)
    report = prequential_run(cfg)
    assert report.metrics()["total"] == 120
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


def test_earliest_drifts_replay_a_full_batch():
    # a fresh detector cannot fire on its first observation, so the memory
    # holds row 0 whenever a drift fires, even at position 1
    cfg = fast_config("bodl-2", detector_min_instances=1, detector_sensitivity=0.5)
    report = prequential_run(cfg)
    assert len(report.adaptations) > 10
    assert report.adaptations[0]["position"] == 1
    assert all(a["memory_batch"] == cfg.memory_batch for a in report.adaptations)


def test_drift_response_gets_the_window_and_replayed_rows(monkeypatch):
    # the learner's history arrays and its row-number memory hand the drift
    # response exactly the stream's last rows and rows the memory kept
    cfg = fast_config("bodl-2", standardize=False, recent_window=8)
    source = parse_stream_spec(FAST_DRIFT, default_seed=cfg.seed)
    learner = NetworkLearner(cfg, source, MetricsReport(classes=source.classes))
    calls = []

    def recording(params, recent, replay, weights, lam, position, **rates):
        calls.append((recent, replay, position, list(learner.memory.items)))
        return adapt_on_drift(params, recent, replay, weights, lam, position, **rates)

    monkeypatch.setattr(harness, "adapt_on_drift", recording)
    for inst in source:
        learner.step(inst.features, inst.label, inst.position)

    X = np.stack([inst.features for inst in source])
    y = np.array([inst.label for inst in source])
    row_of = {x.tobytes(): i for i, x in enumerate(X)}
    assert calls
    for (win_x, win_y), (rep_x, rep_y), position, kept in calls:
        lo = max(0, position + 1 - 8)
        assert np.array_equal(win_x, X[lo:position + 1])
        assert np.array_equal(win_y, y[lo:position + 1])
        assert len(rep_x) == len(rep_y) == cfg.memory_batch
        for x, label in zip(rep_x, rep_y):
            i = row_of[x.tobytes()]
            assert i in kept and label == y[i]
    assert [c[2] for c in calls] == [a["position"] for a in learner.report.adaptations]


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


@pytest.mark.parametrize("rows", [436, 800])
def test_diverging_drift_response_stops_with_its_position(rows):
    # an inner rate of 1e200 overflows the first drift response, at position
    # 435: the run stops there, whether the stream ends after it or goes on,
    # and no report with a NaN adaptation record is returned
    full = parse_stream_spec("hyperplane:seg=400,400;noise=0.05;mode=flip;d=10",
                             default_seed=1)
    source = StreamSource(list(full)[:rows], full.input_dim, full.classes, "cut")
    cfg = RunConfig(source, learner="bodl-2", seed=1, hidden_layers=1, width=8,
                    optimizer="sgd", lr=0.02, recent_window=64, inner_steps=50,
                    inner_rate=1e200, outer_rate=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            prequential_run(cfg)
    assert info.value.position == 435


def test_diverging_baseline_stops_with_its_position():
    # ROMMA's weights reach inf on this noisy stream; the first non-finite
    # scores come at position 4508
    cfg = RunConfig("sea:seg=3000,3000,3000;noise=0.2", learner="romma", seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            prequential_run(cfg)
    assert info.value.position == 4508


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
    assert on.metrics()["total"] == off.metrics()["total"] == 600


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_online_steps_update_the_learners_own_vector(optimizer, monkeypatch):
    # every optimizer step writes the one parameter vector the learner holds;
    # only a drift response replaces it. Adam's state and its moments are
    # likewise stepped in place, and its step count counts the online steps.
    # Every step's forward and backward go into the learner's one workspace,
    # whose one record and gradient vector they return
    calls = []

    def recording(fn):
        def wrapper(*args, out=None, **kwargs):
            result = fn(*args, out=out, **kwargs)
            calls.append((out, result))
            return result
        return wrapper

    monkeypatch.setattr(harness, "forward", recording(harness.forward))
    monkeypatch.setattr(harness, "backward", recording(harness.backward))
    cfg = fast_config("bodl-2", optimizer=optimizer)
    source = parse_stream_spec(FAST_DRIFT, default_seed=cfg.seed)
    learner = NetworkLearner(cfg, source, MetricsReport(classes=source.classes))
    flat, state = learner.params.flat, learner.opt_state
    moments = (state.m, state.v) if state else None
    ws = learner.workspace
    record, grad = ws.acts, ws.grad.flat
    online = 0
    for inst in source:
        before = flat.copy()
        adaptations = len(learner.report.adaptations)
        calls.clear()
        learner.step(inst.features, inst.label, inst.position)
        assert learner.workspace is ws and ws.acts is record and ws.grad.flat is grad
        assert [out for out, _ in calls] == [ws] * len(calls)
        assert calls[0][1] is record
        if len(learner.report.adaptations) > adaptations:
            assert learner.params.flat is not flat
            flat = learner.params.flat
        else:
            online += 1
            assert learner.params.flat is flat
            assert not np.array_equal(flat, before)
            assert len(calls) == 2 and calls[1][1] is grad
        assert learner.opt_state is state
        if state:
            assert state.m is moments[0] and state.v is moments[1]
            assert state.step == online
    assert learner.report.adaptations


# ---------------------------------------------------------------- copies

def drifting_source(rows, dim, classes, seed):
    """`rows` Gaussian instances labelled by a random linear rule, whose labels
    rotate by one class halfway, so the detector fires."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, dim))
    y = (X @ rng.standard_normal((dim, classes))).argmax(axis=1)
    y[rows // 2:] = (y[rows // 2:] + 1) % classes
    return StreamSource([StreamInstance(x, int(label), i) for i, (x, label) in
                         enumerate(zip(X, y))], dim, classes, "drifting")


def continue_learner(learner, instances):
    """Step `learner` over `instances`, scoring each prediction into its report."""
    for inst in instances:
        update_metrics(learner.report, learner.step(inst.features, inst.label, inst.position),
                       inst.label)
    return learner


def learner_bytes(learner):
    opt = learner.opt_state
    return (json.dumps(learner.report.as_dict()), learner.params.flat.tobytes(),
            learner.weights.tobytes(), None if opt is None else (opt.m.tobytes(),
                                                                 opt.v.tobytes(), opt.step))


def test_hypothesis_profile_is_active():
    # the properties' @settings give only max_examples; the rest is the
    # profile that conftest.py loads
    active = settings(max_examples=1)
    assert (active.derandomize, active.database, active.deadline) == (True, None, None)


# Without shrinking, a failing case is reported as found, not minimized:
# shrinking a broken copy took minutes.
@settings(max_examples=60, phases=[p for p in Phase if p is not Phase.shrink])
@given(dims=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(2, 3),
                      st.integers(1, 3)),
       learner=st.sampled_from(["bodl-2", "bodl-1", "bodl-base"]),
       optimizer=st.sampled_from(["adam", "sgd"]), seed=st.integers(0, 2**16),
       data=st.data())
def test_copied_learner_continues_byte_for_byte(dims, learner, optimizer, seed, data):
    # a deepcopy and a pickle round trip, taken at any step (the step at
    # which an adaptation fires, and the one after, included), continue on
    # the same rows exactly as the original and as a run never copied
    d, width, classes, layers = dims
    source = drifting_source(120, d, classes, seed)
    cfg = RunConfig(stream=source, learner=learner, seed=seed, width=width,
                    hidden_layers=layers, optimizer=optimizer, lr=0.05, inner_steps=3,
                    detector_min_instances=5, detector_sensitivity=0.5, standardize=False)

    def fresh():
        return NetworkLearner(cfg, source, MetricsReport(classes=classes, config=cfg.echo()))

    whole = continue_learner(fresh(), source)
    fired = {a["position"] + k for a in whole.report.adaptations for k in (0, 1)}
    positions = st.integers(0, len(source))
    fork = data.draw(st.sampled_from(sorted(fired)) | positions if fired else positions,
                     label="fork")
    original = continue_learner(fresh(), source.instances[:fork])
    forks = [original, copy.deepcopy(original), pickle.loads(pickle.dumps(original))]
    want = learner_bytes(whole)
    for fork_learner in forks:
        assert learner_bytes(continue_learner(fork_learner, source.instances[fork:])) == want
