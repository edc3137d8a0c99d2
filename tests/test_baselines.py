"""Linear one-vs-rest baselines: hand-checked updates and shared contracts."""

import math

import numpy as np
import pytest

from bodl.baselines import (
    AROW,
    BASELINES,
    CW,
    OGD,
    PA,
    ROMMA,
    SCW,
    Perceptron,
    make_baseline,
)
from bodl.errors import ConfigError, InputError

from oracles import scalar_arow


def random_stream(seed, n, dim, classes):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-2.0, 2.0, size=dim), int(rng.integers(0, classes)))
            for _ in range(n)]


# ---------------------------------------------------------------- contracts

def test_all_baselines_registered():
    assert sorted(BASELINES) == ["arow", "cw", "ogd", "pa", "perceptron",
                                 "romma", "scw"]


def test_make_baseline_unknown_name():
    with pytest.raises(ConfigError):
        make_baseline("svm", 3, 2)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        Perceptron(0, 2)
    with pytest.raises(ConfigError):
        Perceptron(3, 1)
    with pytest.raises(ConfigError):
        CW(3, 2, confidence=0.5)
    with pytest.raises(ConfigError):
        SCW(3, 2, confidence=1.0)
    with pytest.raises(ConfigError):
        AROW(3, 2, r=0.0)


def test_input_validation():
    model = make_baseline("pa", 3, 2)
    with pytest.raises(InputError):
        model.step(np.zeros(4), 0)
    with pytest.raises(InputError):
        model.step(np.zeros(3), 2)
    with pytest.raises(InputError):
        model.step(np.zeros(3), -1)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_first_prediction_ignores_label(name):
    # prediction must come from the pre-update weights: all-zero scores tie
    # to class 0 no matter which label arrives with the instance
    model = make_baseline(name, 4, 3)
    assert model.step(np.array([1.0, -2.0, 0.5, 3.0]), 2) == 0


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_learning_changes_later_predictions(name):
    model = make_baseline(name, 2, 2)
    x = np.array([1.0, 0.5])
    model.step(x, 1)
    assert model.predict(x) == 1


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_deterministic_replay(name):
    stream = random_stream(31, 40, 3, 3)
    a = make_baseline(name, 3, 3)
    b = make_baseline(name, 3, 3)
    preds_a = [a.step(x, y) for x, y in stream]
    preds_b = [b.step(x, y) for x, y in stream]
    assert preds_a == preds_b
    assert np.array_equal(a.w, b.w)


def test_scores_use_trailing_bias():
    model = Perceptron(2, 2)
    model.w = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, -1.0]])
    scores = model.scores(np.array([10.0, -1.0]))
    assert scores[0] == pytest.approx(10.0 - 2.0 + 3.0, abs=1e-15)
    assert scores[1] == pytest.approx(-1.0, abs=1e-15)


# ---------------------------------------------------------------- perceptron

def test_perceptron_first_update_by_hand():
    model = Perceptron(2, 2)
    pred = model.step(np.array([1.0, 0.0]), 0)
    assert pred == 0
    assert np.array_equal(model.w[0], np.array([1.0, 0.0, 1.0]))
    assert np.array_equal(model.w[1], np.array([-1.0, 0.0, -1.0]))


def test_perceptron_passive_on_correct_margin():
    model = Perceptron(2, 2)
    x = np.array([1.0, 0.0])
    model.step(x, 0)
    before = model.w.copy()
    assert model.step(x, 0) == 0
    assert np.array_equal(model.w, before)


# ---------------------------------------------------------------- ogd

def test_ogd_two_steps_by_hand():
    model = OGD(2, 2, lr=0.5)
    model.step(np.array([1.0, 0.0]), 0)
    assert np.allclose(model.w[0], [0.5, 0.0, 0.5], atol=1e-15)
    assert np.allclose(model.w[1], [-0.5, 0.0, -0.5], atol=1e-15)

    model.step(np.array([0.0, 1.0]), 1)
    r2 = 0.5 / math.sqrt(2.0)
    assert model.t == 2
    assert np.allclose(model.w[0], [0.5, -r2, 0.5 - r2], atol=1e-15)
    assert np.allclose(model.w[1], [-0.5, r2, -0.5 + r2], atol=1e-15)


def test_ogd_passive_once_margin_reached():
    model = OGD(2, 2, lr=1.0)
    x = np.array([2.0, 0.0])
    model.step(x, 0)                      # both rows now at margin 5
    frozen = model.w.copy()
    for _ in range(3):
        model.step(x, 0)
    assert np.array_equal(model.w, frozen)
    assert model.t == 4                   # the clock still advances


# ---------------------------------------------------------------- pa

def test_pa_jumps_exactly_to_unit_margin():
    model = PA(2, 2)
    x = np.array([3.0, 0.0])
    model.step(x, 0)
    xa = np.array([3.0, 0.0, 1.0])
    assert float(model.w[0] @ xa) == pytest.approx(1.0, abs=1e-12)
    assert float(model.w[1] @ xa) == pytest.approx(-1.0, abs=1e-12)


def test_pa_passive_after_margin_satisfied():
    model = PA(2, 2)
    x = np.array([1.0, 0.0])
    model.step(x, 0)
    before = model.w.copy()
    for _ in range(5):
        assert model.step(x, 0) == 0
    assert np.array_equal(model.w, before)


def test_pa_step_capped_at_aggressiveness():
    model = PA(2, 2, C=1.0)
    model.w[0] = np.array([-5.0, 0.0, 0.0])
    # loss 6 over squared norm 2 wants tau 3; the cap clips it to 1
    model._update_binary(0, np.array([1.0, 0.0, 1.0]), 1.0)
    assert np.allclose(model.w[0], [-4.0, 0.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------- romma

def test_romma_degenerate_first_step_is_plain_update():
    model = ROMMA(2, 2)
    model.step(np.array([1.0, 0.0]), 0)
    assert np.array_equal(model.w[0], np.array([1.0, 0.0, 1.0]))
    assert np.array_equal(model.w[1], np.array([-1.0, 0.0, -1.0]))


def test_romma_projects_onto_unit_margin():
    model = ROMMA(2, 2)
    model.step(np.array([1.0, 0.0]), 0)
    model.step(np.array([0.0, 2.0]), 1)
    xa = np.array([0.0, 2.0, 1.0])
    # mistaken on both rows; the relaxed projection lands on margin one
    assert np.allclose(model.w[0], [11.0 / 9.0, -8.0 / 9.0, 7.0 / 9.0], atol=1e-12)
    assert -float(model.w[0] @ xa) == pytest.approx(1.0, abs=1e-12)
    assert float(model.w[1] @ xa) == pytest.approx(1.0, abs=1e-12)


def test_romma_unit_margin_on_random_mistakes():
    rng = np.random.default_rng(77)
    model = ROMMA(4, 3)
    for pos in range(120):
        x = rng.uniform(-1.0, 1.0, size=4)
        y = int(rng.integers(0, 3))
        snapshot = model.w.copy()
        model.step(x, y)
        xa = np.append(x, 1.0)
        for c in range(3):
            yc = 1.0 if c == y else -1.0
            margin_before = yc * float(snapshot[c] @ xa)
            changed = not np.array_equal(model.w[c], snapshot[c])
            if margin_before > 0.0:
                assert not changed
            elif changed and float(snapshot[c] @ snapshot[c]) > 0.0:
                after = yc * float(model.w[c] @ xa)
                assert after == pytest.approx(1.0, abs=1e-9)


def test_romma_parallel_input_falls_back():
    model = ROMMA(2, 2)
    model.step(np.array([1.0, 0.0]), 0)
    # same direction, flipped label: the projection denominator vanishes
    model._update_binary(0, np.array([1.0, 0.0, 1.0]), -1.0)
    assert np.array_equal(model.w[0], np.zeros(3))


# ---------------------------------------------------------------- arow

def test_arow_matches_scalar_reference():
    stream = random_stream(9, 20, 3, 2)
    want_preds, trajectory = scalar_arow(
        [(list(x), y) for x, y in stream], dim=3, classes=2, r=1.0)
    model = AROW(3, 2, r=1.0)
    for step, (x, y) in enumerate(stream):
        assert model.step(x, y) == want_preds[step]
        want_w, want_sig = trajectory[step]
        assert np.allclose(model.w, np.array(want_w), atol=1e-10)
        assert np.allclose(model.sigma, np.array(want_sig), atol=1e-10)


def test_arow_passive_beyond_unit_margin():
    model = AROW(2, 2)
    model.w[0] = np.array([2.0, 0.0, 0.0])
    w1_before = model.w[1].copy()
    model.step(np.array([1.0, 0.0]), 0)
    assert np.array_equal(model.w[0], np.array([2.0, 0.0, 0.0]))
    assert np.array_equal(model.sigma[0], np.ones(3))
    assert not np.array_equal(model.w[1], w1_before)


# ---------------------------------------------------------------- variance

@pytest.mark.parametrize("name", ["cw", "arow", "scw"])
def test_variance_shrinks_and_stays_positive(name):
    model = make_baseline(name, 3, 2)
    prev = model.sigma.copy()
    for x, y in random_stream(55, 60, 3, 2):
        model.step(x, y)
        assert np.all(model.sigma <= prev + 1e-15)
        assert np.all(model.sigma > 0.0)
        prev = model.sigma.copy()


def test_cw_updates_from_zero_weights():
    model = CW(2, 2)
    model.step(np.array([1.0, -1.0]), 1)
    assert not np.array_equal(model.w, np.zeros((2, 3)))
    assert np.all(model.sigma < 1.0)


def test_scw_step_size_respects_cap():
    model = SCW(2, 2, C=0.01)
    sigma_before = model.sigma.copy()
    model.step(np.array([1.0, 2.0]), 0)
    xa = np.array([1.0, 2.0, 1.0])
    ratios = np.abs(model.w[0]) / (sigma_before[0] * np.abs(xa))
    assert np.all(ratios <= 0.01 + 1e-12)


def test_scw_passive_when_confident_and_correct():
    model = SCW(2, 2)
    model.w[0] = np.array([50.0, 0.0, 0.0])
    model.sigma[0] = np.full(3, 1e-4)
    w_before = model.w[0].copy()
    model._update_binary(0, np.array([1.0, 0.0, 1.0]), 1.0)
    assert np.array_equal(model.w[0], w_before)
