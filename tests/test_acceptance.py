"""End-to-end checks of the package's headline guarantees.

Every test prints one ``[acceptance] PASS/FAIL`` line with the measured
value, so ``pytest tests/test_acceptance.py -v -s`` doubles as a checklist.
The dataset-bound checks skip with fetch instructions when the CSVs are
absent; everything else is self-contained.
"""

import math
import statistics
import time

import numpy as np
from scipy import stats

from bodl.baselines import AROW, PA
from bodl.bilevel import (
    adapt_on_drift,
    inner_adapt,
    lookahead,
)
from bodl.cli import main as cli_main
from bodl.drift import DriftState, observe, reset
from bodl.harness import RunConfig, prequential_run
from bodl.hedge_net import (
    NetworkParams,
    backward,
    forward,
    init_network,
    total_loss,
)
from bodl.memory import EpisodicMemory
from bodl.streams import StreamInstance

from conftest import dataset_path, requires_dataset
from oracles import (
    finite_difference_grads,
    max_relative_error,
    reservoir_final_positions,
    scalar_arow,
    tiny_net_adaptation,
)

SYNTH_DRIFT = "hyperplane:seg=2000,2000;noise=0.1;mode=flip;d=20"

# small-network hyperparameters that recover quickly from an abrupt flip;
# one hidden layer also pins the mid ablation variant to the plain one,
# isolating the drift adaptation as the only remaining difference
SYNTH_KNOBS = dict(hidden_layers=1, width=32, optimizer="sgd", lr=0.02,
                   recent_window=64, inner_steps=300, inner_rate=0.15,
                   outer_rate=1.0)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _median_accuracy(stream, learner, seeds, **knobs) -> float:
    accs = [prequential_run(RunConfig(stream=stream, learner=learner,
                                      seed=s, **knobs)).accuracy
            for s in seeds]
    return statistics.median(accs)


# ---------------------------------------------------------------- gradients

def _kink_distance(params: NetworkParams, x: np.ndarray) -> float:
    """Smallest |pre-activation| at the point: a central difference is only
    valid where no rectifier sits within the perturbation of its corner."""
    h, nearest = x, math.inf
    for mat in params.layers:
        z = mat @ np.append(h, 1.0)
        nearest = min(nearest, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return nearest


def test_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(20240816)
    dims = (4, 5, 3, 3)    # (input_dim, width, classes, N)
    worst = 0.0
    for _ in range(50):
        while True:
            params, _ = init_network(dims, seed=int(rng.integers(2 ** 31)))
            weights = rng.uniform(0.1, 1.0, size=4)
            weights = weights / weights.sum()
            x = rng.normal(size=4)
            y = int(rng.integers(3))
            if _kink_distance(params, x) >= 1e-4:
                break
        analytic = backward(params, forward(params, x), weights, y, 0.1)
        numeric = finite_difference_grads(
            lambda: total_loss(forward(params, x), weights, y, 0.1)[0],
            params.matrices())
        worst = max(worst, max_relative_error(params.with_flat(analytic).matrices(), numeric))
    elapsed = time.perf_counter() - started
    _report("gradient-check", worst <= 1e-4 and elapsed < 10.0,
            f"max relative error {worst:.2e} over 50 random nets "
            f"(tolerance 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------- datasets

@requires_dataset("pima.csv")
def test_pima_accuracy_band():
    started = time.perf_counter()
    stream = f"csv:{dataset_path('pima.csv')}"
    med = _median_accuracy(stream, "bodl-2", range(1, 6)) * 100
    elapsed = time.perf_counter() - started
    _report("pima-accuracy", abs(med - 74.36) <= 3.0 and elapsed < 60.0,
            f"median accuracy {med:.2f}% over 5 seeds "
            f"(band 74.36 +/- 3.0) in {elapsed:.1f}s")


@requires_dataset("magic.csv")
def test_magic_accuracy_band():
    started = time.perf_counter()
    stream = f"csv:{dataset_path('magic.csv')}"
    med = _median_accuracy(stream, "bodl-2", range(1, 6)) * 100
    elapsed = time.perf_counter() - started
    _report("magic-accuracy", abs(med - 78.73) <= 2.5 and elapsed < 300.0,
            f"median accuracy {med:.2f}% over 5 seeds "
            f"(band 78.73 +/- 2.5) in {elapsed:.1f}s")


# ---------------------------------------------------------------- ablation

def test_ablation_ordering_on_synthetic_drift():
    med = {learner: _median_accuracy(SYNTH_DRIFT, learner, range(1, 6),
                                     **SYNTH_KNOBS) * 100
           for learner in ("bodl-base", "bodl-1", "bodl-2")}
    ordered = med["bodl-2"] >= med["bodl-1"] >= med["bodl-base"]
    gap = med["bodl-2"] - med["bodl-base"]
    _report("ablation-synthetic", ordered and gap >= 1.0,
            f"medians base {med['bodl-base']:.2f} <= mid {med['bodl-1']:.2f} "
            f"<= full {med['bodl-2']:.2f}, gap {gap:.2f} points (need >= 1.0)")


@requires_dataset("pima.csv")
def test_ablation_ordering_on_pima():
    stream = f"csv:{dataset_path('pima.csv')}"
    med = {learner: _median_accuracy(stream, learner, range(1, 6)) * 100
           for learner in ("bodl-base", "bodl-1", "bodl-2")}
    ordered = med["bodl-2"] >= med["bodl-1"] >= med["bodl-base"]
    _report("ablation-pima", ordered,
            f"medians base {med['bodl-base']:.2f} <= mid {med['bodl-1']:.2f} "
            f"<= full {med['bodl-2']:.2f}")


# ---------------------------------------------------------------- detector

def test_error_rate_step_is_detected_quickly():
    started = time.perf_counter()
    detected = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        bits = np.concatenate([rng.random(500) < 0.1,
                               rng.random(800) < 0.6]).astype(np.int64)
        state = DriftState()
        for pos, bit in enumerate(bits):
            state, drifted = observe(state, int(bit))
            if drifted:
                if pos >= 500:
                    if pos < 800:
                        detected += 1
                    break
                state = reset(state)   # rare pre-change alarm: rearm
    elapsed = time.perf_counter() - started
    _report("drift-detection", detected >= 95 and elapsed < 10.0,
            f"{detected}/100 step changes flagged within 300 instances "
            f"(need >= 95) in {elapsed:.1f}s")


def test_false_alarm_rate_is_low():
    started = time.perf_counter()
    total = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        bits = (rng.random(10_000) < 0.2).astype(np.int64)
        state = DriftState()
        for bit in bits:
            state, drifted = observe(state, int(bit))
            if drifted:
                total += 1
                state = reset(state)
    mean_fa = total / 100.0
    elapsed = time.perf_counter() - started
    _report("drift-false-alarms", mean_fa <= 1.0 and elapsed < 10.0,
            f"mean {mean_fa:.2f} alarms per 10,000 stationary instances "
            f"(need <= 1.0) in {elapsed:.1f}s")


# ---------------------------------------------------------------- reservoir

def test_reservoir_inclusion_is_uniform():
    started = time.perf_counter()
    capacity, offers = 64, 10_000
    # pin the vectorized replay to the real implementation, bit for bit
    features = np.zeros(1)
    for seed in range(25):
        mem = EpisodicMemory(capacity)
        rng = np.random.default_rng(seed)
        for pos in range(offers):
            mem.maybe_insert(StreamInstance(features, 0, pos), rng)
        kept = np.sort([inst.position for inst in mem.items])
        assert np.array_equal(kept, reservoir_final_positions(seed, capacity, offers))
    # then measure inclusion frequencies over many repetitions of the replay
    counts = np.zeros(offers, dtype=np.int64)
    reps = 10_000
    for rep in range(reps):
        counts[reservoir_final_positions(1000 + rep, capacity, offers)] += 1
    _, p_value = stats.chisquare(counts)
    elapsed = time.perf_counter() - started
    _report("reservoir-uniformity", p_value > 0.01 and elapsed < 30.0,
            f"chi-square p {p_value:.4f} over {reps} repetitions "
            f"(need > 0.01), replay verified on 25 seeds, in {elapsed:.1f}s")


# ---------------------------------------------------------------- adaptation

def test_drift_adaptation_is_exact():
    params, weights = init_network((2, 3, 2, 2), 5)
    recent = (np.array([[0.4, -0.7]]), np.array([1]))
    # the batch a single-item memory yields: that item, memory_batch times
    replay = (np.tile([0.2, 0.9], (32, 1)), np.zeros(32, dtype=np.int64))

    # interpolation endpoints are bitwise: 0 keeps the originals, 1 adopts
    # the look-ahead copy computed on the memory batch
    at_zero, _ = adapt_on_drift(params, recent, replay, weights, 0.1,
                                inner_rate=0.1, outer_rate=0.0, inner_steps=5)
    zero_ok = all(np.array_equal(a, b) for a, b in
                  zip(at_zero.matrices(), params.matrices()))

    at_one, _ = adapt_on_drift(params, recent, replay, weights, 0.1,
                               inner_rate=0.1, outer_rate=1.0, inner_steps=5)
    inner = inner_adapt(params, *recent, weights, 0.1, inner_rate=0.1, inner_steps=5)
    target = lookahead(inner, *replay, weights, 0.1, inner_rate=0.1)
    one_ok = all(np.array_equal(a, b) for a, b in
                 zip(at_one.matrices(), target.matrices()))

    # a zero inner rate makes the whole response the identity
    frozen, _ = adapt_on_drift(params, recent, replay, weights, 0.1,
                               inner_rate=0.0, outer_rate=0.5, inner_steps=5)
    mu_ok = all(np.array_equal(a, b) for a, b in
                zip(frozen.matrices(), params.matrices()))

    # full response on the tiny scalar network against the hand trace
    tiny = NetworkParams(
        layers=[np.array([[0.9, 0.7]])],
        heads=[np.array([[0.2, -0.1], [-0.3, 0.4]]),
               np.array([[0.5, 0.1], [-0.2, 0.3]])])
    got, _ = adapt_on_drift(
        tiny, (np.array([[0.8], [-0.5]]), np.array([1, 0])),
        (np.tile([0.3], (32, 1)), np.ones(32, dtype=np.int64)), np.array([0.6, 0.4]),
        0.0, inner_rate=0.05, outer_rate=0.25, inner_steps=3)
    want, _ = tiny_net_adaptation(
        [0.9, 0.7], [[0.2, -0.1], [-0.3, 0.4]], [[0.5, 0.1], [-0.2, 0.3]],
        [0.6, 0.4], recent=[(0.8, 1), (-0.5, 0)], memory=[(0.3, 1)] * 32,
        mu=0.05, gamma=0.25, inner_steps=3)
    deviation = max(
        float(np.max(np.abs(got.layers[0] - np.array(want[0])))),
        float(np.max(np.abs(got.heads[0] - np.array(want[1])))),
        float(np.max(np.abs(got.heads[1] - np.array(want[2])))))
    trace_ok = deviation <= 1e-12

    _report("adaptation-exactness",
            zero_ok and one_ok and mu_ok and trace_ok,
            f"endpoint 0 bitwise {zero_ok}, endpoint 1 bitwise {one_ok}, "
            f"zero-rate identity {mu_ok}, hand-trace deviation {deviation:.2e}")


# ---------------------------------------------------------------- baselines

@requires_dataset("pima.csv")
def test_ogd_pima_band():
    stream = f"csv:{dataset_path('pima.csv')}"
    acc = prequential_run(RunConfig(stream=stream, learner="ogd")).accuracy * 100
    _report("ogd-pima", abs(acc - 72.78) <= 3.0,
            f"accuracy {acc:.2f}% (band 72.78 +/- 3.0)")


def test_pa_makes_no_update_at_satisfied_margins():
    model = PA(2, 2)
    x = np.array([1.0, 0.0])
    model.step(x, 0)
    frozen = model.w.copy()
    preds = [model.step(x, 0) for _ in range(10)]
    ok = np.array_equal(model.w, frozen) and preds == [0] * 10
    _report("pa-passivity", ok,
            "weights frozen across 10 margin-satisfied repeats")


def test_arow_matches_scalar_reference_trajectory():
    rng = np.random.default_rng(9)
    stream = [(rng.uniform(-2.0, 2.0, size=3), int(rng.integers(0, 2)))
              for _ in range(20)]
    want_preds, trajectory = scalar_arow(
        [(list(x), y) for x, y in stream], dim=3, classes=2)
    model = AROW(3, 2)
    worst = 0.0
    preds_ok = True
    for step, (x, y) in enumerate(stream):
        preds_ok &= model.step(x, y) == want_preds[step]
        want_w, want_sig = trajectory[step]
        worst = max(worst,
                    float(np.max(np.abs(model.w - np.array(want_w)))),
                    float(np.max(np.abs(model.sigma - np.array(want_sig)))))
    _report("arow-oracle", preds_ok and worst <= 1e-10,
            f"20-step trajectory max |delta| {worst:.2e} (tolerance 1e-10), "
            f"predictions {'match' if preds_ok else 'diverge'}")


# ---------------------------------------------------------------- reports

def test_identical_configs_write_identical_reports(tmp_path):
    argv = ["run", "--stream", "hyperplane:seg=120,120;d=4;noise=0.1;seed=7",
            "--layers", "2", "--width", "6", "--optimizer", "sgd",
            "--lr", "0.05", "--seed", "11"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report("report-determinism", identical,
            f"two runs wrote {len(first.read_bytes())} identical bytes")
