"""Linear one-vs-rest baselines: hand-checked updates and shared contracts."""

import math

import numpy as np
import pytest

from bodl.baselines import (
    AROW,
    BASELINES,
    C,
    CW,
    OGD,
    PA,
    ROMMA,
    SCW,
    Perceptron,
)
from bodl.errors import ConfigError, DivergenceError, InputError

from oracles import LOOP_BASELINES, scalar_arow


def random_stream(seed, n, dim, classes):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-2.0, 2.0, size=dim), int(rng.integers(0, classes)))
            for _ in range(n)]


# ---------------------------------------------------------------- contracts

def test_all_baselines_registered():
    assert sorted(BASELINES) == ["arow", "cw", "ogd", "pa", "perceptron",
                                 "romma", "scw"]


def test_constructor_validation():
    with pytest.raises(ConfigError):
        Perceptron(0, 2)
    with pytest.raises(ConfigError):
        Perceptron(3, 1)


def test_input_validation():
    model = BASELINES["pa"](3, 2)
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
    model = BASELINES[name](4, 3)
    assert model.step(np.array([1.0, -2.0, 0.5, 3.0]), 2) == 0


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_learning_changes_later_predictions(name):
    model = BASELINES[name](2, 2)
    x = np.array([1.0, 0.5])
    model.step(x, 1)
    assert model.step(x, 1) == 1


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_deterministic_replay(name):
    stream = random_stream(31, 40, 3, 3)
    a = BASELINES[name](3, 3)
    b = BASELINES[name](3, 3)
    preds_a = [a.step(x, y) for x, y in stream]
    preds_b = [b.step(x, y) for x, y in stream]
    assert preds_a == preds_b
    assert np.array_equal(a.w, b.w)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_non_finite_feature_is_an_input_error(name):
    # the learner did not diverge: the input is at fault, and nothing is learned
    model = BASELINES[name](3, 2)
    model.step(np.array([1.0, -0.5, 2.0]), 1)
    before = model.w.copy()
    sigma = getattr(model, "sigma", None)    # CW, AROW and SCW
    sigma_before = None if sigma is None else sigma.copy()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="non-finite feature at stream position 7"):
            model.step(np.array([1.0, bad, 0.0]), 0, 7)
    assert np.array_equal(model.w, before)
    if sigma is not None:
        assert np.array_equal(model.sigma, sigma_before)
    # on zero weights an infinite feature scores 0 * inf, whose NaN numpy
    # warns of before the check: under numpy's ignore the step still refuses
    # the feature and learns nothing
    fresh = BASELINES[name](3, 2)
    assert not fresh.w.any()
    fresh_sigma = getattr(fresh, "sigma", None)
    fresh_sigma_before = None if fresh_sigma is None else fresh_sigma.copy()
    with np.errstate(invalid="ignore"):
        with pytest.raises(InputError, match="non-finite feature at stream position 1"):
            fresh.step(np.array([np.inf, 0.0, 1.0]), 1, 1)
    assert not fresh.w.any()
    if fresh_sigma is not None:
        assert np.array_equal(fresh.sigma, fresh_sigma_before)
    # finite features on non-finite weights still name the diverged position
    model.w[0, 0] = np.inf
    with pytest.raises(DivergenceError) as err:
        model.step(np.array([1.0, 0.0, 0.0]), 0, 9)
    assert err.value.position == 9


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_finite_scores_whose_sum_overflows_are_not_divergence(name):
    # each score is finite, only their sum overflows: the step predicts and
    # learns as the per-class loop does, and raises nothing (numpy's overflow
    # warnings, from ROMMA's w @ w, are silenced as the CLI silences them)
    model, loop = BASELINES[name](1, 2), LOOP_BASELINES[name](1, 2)
    model.w[:] = loop.w[:] = [[1e308, 0.0], [1e308, 0.0]]
    x = np.array([1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert model.step(x, 0, 5) == loop.step(x, 0, 5) == 0
    assert model.w.tobytes() == loop.w.tobytes()


def batched_loop_stream(seed, n, dim, classes):
    """Rows that reach every branch of the binary rules: random rows, all-zero
    rows, a row repeated with either label (ROMMA's degenerate projection) and
    repeats of a learned row that leave classes passive."""
    rng = np.random.default_rng(seed)
    fixed = rng.uniform(-2.0, 2.0, size=dim)
    rows = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        x = (rng.uniform(-2.0, 2.0, size=dim) if kind == 0 else
             np.zeros(dim) if kind == 1 else
             rows[-1][0].copy() if kind == 2 and rows else fixed.copy())
        rows.append((x, int(rng.integers(0, classes))))
    return rows


# input dims 1, 4 and 7 on one axis with the start; dim 4's cases keep the
# ids they had when it was the only dim
@pytest.mark.parametrize("start, dim", [
    pytest.param(start, dim, id=start if dim == 4 else f"{start}-dim{dim}")
    for dim in (4, 1, 7) for start in ("fresh", "seeded")])
@pytest.mark.parametrize("classes", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(BASELINES))
def test_class_batched_step_matches_per_class_loop(name, classes, start, dim):
    model, loop = BASELINES[name](dim, classes), LOOP_BASELINES[name](dim, classes)
    if start == "seeded":
        # the same start for both, with negative zeros that a passive row must keep
        rng = np.random.default_rng(classes)
        model.w[:] = rng.uniform(-1.0, 1.0, size=(classes, dim + 1))
        model.w[:, ::2] = -0.0
        loop.w[:] = model.w
        if hasattr(loop, "sigma"):
            model.sigma[:] = rng.uniform(0.1, 1.0, size=(classes, dim + 1))
            loop.sigma[:] = model.sigma
    partial = 0
    for pos, (x, y) in enumerate(batched_loop_stream(7 * classes, 300, dim, classes)):
        before = loop.w.copy()
        assert model.step(x, y, pos) == loop.step(x, y, pos), pos
        assert model.w.tobytes() == loop.w.tobytes(), pos
        if hasattr(loop, "sigma"):
            assert model.sigma.tobytes() == loop.sigma.tobytes(), pos
        moved = sum(not np.array_equal(a, b) for a, b in zip(before, loop.w))
        partial += 0 < moved < classes
    # from the seeded start, some steps update some classes and not others
    # (from a fresh one, a binary model's rows stay each other's negatives;
    # at dim 1 the seeded zeros take the one feature weight, and the hinge
    # rules, OGD's and AROW's, may keep every class updating for all 300 rows)
    assert partial > 0 or start == "fresh" or dim == 1


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_state_views_are_read_only_and_written_in_place(name):
    # the prediction reads w, the update the stacked state behind it: a
    # rebound w (or sigma) would split the two, so rebinding is refused, and
    # an in-place write mid-stream reaches both the prediction and the update
    dim, classes = 4, 3
    model, loop = BASELINES[name](dim, classes), LOOP_BASELINES[name](dim, classes)
    views = {"w": (-1.0, 1.0)}
    if hasattr(loop, "sigma"):
        views["sigma"] = (0.1, 1.0)
    for attr in views:
        with pytest.raises(AttributeError):
            setattr(model, attr, np.ones((classes, dim + 1)))
    rng = np.random.default_rng(11)
    for pos, (x, y) in enumerate(batched_loop_stream(5, 120, dim, classes)):
        if pos % 40 == 20:
            for attr, (low, high) in views.items():
                fresh = rng.uniform(low, high, size=(classes, dim + 1))
                getattr(model, attr)[:] = fresh
                getattr(loop, attr)[:] = fresh
        assert model.step(x, y, pos) == loop.step(x, y, pos), pos
        for attr in views:
            assert getattr(model, attr).tobytes() == getattr(loop, attr).tobytes(), pos


def test_scores_use_trailing_bias():
    # the bias column decides the prediction: without it class 1 would win
    model = Perceptron(2, 2)
    model.w[:] = [[0.0, 0.0, 3.0], [1.0, 0.0, 0.0]]     # w is a view: write in place
    assert model.step(np.array([2.0, 5.0]), 0) == 0
    # class 1's wrong sign is corrected with the augmented vector [x; 1]
    assert np.array_equal(model.w[1], np.array([-1.0, -5.0, -1.0]))


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
    model = PA(2, 2)
    model.w[0] = np.array([-5.0, 0.0, 0.0])
    # loss 6 over squared norm 2 of [x; 1] wants tau 3; the cap clips it to 1
    model.step(np.array([1.0, 0.0]), 0)
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
    model.step(np.array([1.0, 0.0]), 1)
    assert np.array_equal(model.w[0], np.zeros(3))


# ---------------------------------------------------------------- arow

def test_arow_matches_scalar_reference():
    stream = random_stream(9, 20, 3, 2)
    want_preds, trajectory = scalar_arow(
        [(list(x), y) for x, y in stream], dim=3, classes=2, r=1.0)
    model = AROW(3, 2)
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
    model = BASELINES[name](3, 2)
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
    model = SCW(2, 2)
    model.w[0] = np.array([-5.0, 0.0, 0.0])
    # margin -5 at variance 2 wants a step near 2.7; the cap clips it to C
    model.step(np.array([1.0, 0.0]), 0)
    assert np.allclose(model.w[0], [-5.0 + C, 0.0, C], atol=1e-15)


def test_scw_passive_when_confident_and_correct():
    model = SCW(2, 2)
    model.w[0] = np.array([50.0, 0.0, 0.0])
    model.sigma[0] = np.full(3, 1e-4)
    w_before = model.w[0].copy()
    model.step(np.array([1.0, 0.0]), 0)
    assert np.array_equal(model.w[0], w_before)
