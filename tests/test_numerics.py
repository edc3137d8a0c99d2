"""Kernel checks: softmax, loss clipping, Adam against a scalar oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodl.errors import InputError
from bodl.numerics import (
    ADAM_BETA1,
    PROB_CLIP,
    AdamState,
    adam_step,
    cross_entropy,
    softmax,
    softmax_pair,
)

from oracles import list_adam_step, scalar_adam_step, scalar_softmax


def test_softmax_symmetry():
    assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)


def test_softmax_shift_invariance():
    for c in (-7.0, 0.0, 3.25, 1e3):
        out = softmax(np.full(3, c))
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_large_magnitude_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    expected = scalar_softmax([1000.0, 0.0])
    assert np.allclose(out, expected, rtol=0, atol=1e-15)
    # exp(-1000) underflows cleanly: all mass lands on the dominant entry
    assert out[0] == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= out[1] < 1e-300


def test_softmax_probability_vector_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.standard_normal(rng.integers(2, 9)) * rng.uniform(0.01, 1e3)
        out = softmax(v)
        assert np.all(out >= 0.0)
        assert abs(float(out.sum()) - 1.0) <= 1e-12
        assert np.allclose(out, scalar_softmax(list(v)), rtol=1e-12)


# scores where the two-column form could slip: both zeros, exp's edges,
# differences that overflow, infinities and NaN
EDGE_SCORES = [0.0, -0.0, 700.0, -700.0, 1e300, -1e300, 1.0, -1.0, np.inf, -np.inf, np.nan]
SCORE = st.sampled_from(EDGE_SCORES) | st.floats(allow_nan=True, allow_infinity=True)
SCORE_PAIR = st.tuples(SCORE, SCORE) | SCORE.map(lambda a: (a, a))


@settings(max_examples=300)
@given(scores=st.lists(SCORE_PAIR, min_size=1, max_size=8))
@example(scores=[(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (700.0, -700.0), (-700.0, 700.0),
                 (1e300, -1e300), (-1e300, 1e300), (-1e300, -1e300), (3.5, 3.5), (2.0, -3.0)])
def test_softmax_pair_matches_softmax_byte_for_byte(scores):
    v = np.array(scores, dtype=np.float64)
    with np.errstate(all="ignore"):
        want = softmax(v)
        got = v.copy()
        softmax_pair(got, got[:, 0], got[:, 1], np.empty(len(got)))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_cross_entropy_perfect_prediction():
    assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0


def test_cross_entropy_uniform_binary():
    assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), rel=1e-12)


def test_cross_entropy_clips_zero_probability():
    loss = cross_entropy(np.array([0.0, 1.0]), 0)
    assert math.isfinite(loss)
    assert loss == pytest.approx(-math.log(PROB_CLIP), rel=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(InputError):
        cross_entropy(np.array([0.5, 0.5]), 2)
    with pytest.raises(InputError):
        cross_entropy(np.array([0.5, 0.5]), -1)


# Row counts and widths of the network's head stacks, plus widths at and past
# 8, where numpy's summation switches from a plain loop to unrolled partial sums.
ROW_SHAPES = [(16, 2), (2, 2), (5, 3), (4, 8), (3, 9), (3, 20)]


@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_softmax_of_rows_equals_softmax_of_each_row(shape):
    rng = np.random.default_rng(shape[1])
    scores = rng.standard_normal(shape) * rng.uniform(0.01, 1e3, size=(shape[0], 1))
    rows = softmax(scores)
    assert rows.shape == shape
    assert np.array_equal(rows, np.stack([softmax(v) for v in scores]))
    in_place = scores.copy()
    assert softmax(in_place, out=in_place) is in_place
    assert np.array_equal(in_place, rows)


@pytest.mark.parametrize("shape", ROW_SHAPES)
def test_cross_entropy_of_rows_equals_each_row(shape):
    rng = np.random.default_rng(shape[1])
    dist = softmax(rng.standard_normal(shape) * 40.0)    # some entries below the clip
    for label in range(shape[1]):
        got = cross_entropy(dist, label)
        assert got.shape == (shape[0],)
        assert np.array_equal(got, [cross_entropy(f, label) for f in dist])
    assert np.min(dist) < PROB_CLIP
    with pytest.raises(InputError):
        cross_entropy(dist, shape[1])
    with pytest.raises(InputError):
        cross_entropy(dist, -1)


def test_adam_zero_gradient_is_identity():
    param = np.array([[1.0, -2.0], [0.5, 3.0]])
    before = param.copy()
    state = AdamState.zeros_like(param)
    adam_step(param, np.zeros_like(param), state, lr=0.01)
    assert np.array_equal(param, before)
    assert state.step == 1


def test_adam_first_step_hand_value():
    # m_hat = v_hat = 1 after one unit-gradient step, so the move is
    # lr / (1 + eps), a shade under the learning rate
    param = np.array([1.0])
    adam_step(param, np.array([1.0]), AdamState.zeros_like(param), lr=0.01)
    expected = 1.0 - 0.01 * (1.0 / (1.0 + 1e-8))
    assert param[0] == pytest.approx(expected, abs=1e-15)
    assert param[0] == pytest.approx(0.99, abs=1e-9)


def test_adam_two_steps_match_scalar_oracle():
    param = np.array([0.7])
    state = AdamState.zeros_like(param)
    ref_p, ref_m, ref_v = 0.7, 0.0, 0.0
    for t in (1, 2):
        adam_step(param, np.array([0.3]), state, lr=0.05)
        ref_p, ref_m, ref_v = scalar_adam_step(ref_p, 0.3, ref_m, ref_v, t, lr=0.05)
        assert param[0] == pytest.approx(ref_p, abs=1e-12)
    assert state.step == 2


def test_adam_random_trajectory_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    param = np.array([rng.standard_normal()])
    state = AdamState.zeros_like(param)
    ref_p, ref_m, ref_v = float(param[0]), 0.0, 0.0
    for t in range(1, 40):
        g = float(rng.standard_normal())
        adam_step(param, np.array([g]), state, lr=0.01)
        ref_p, ref_m, ref_v = scalar_adam_step(ref_p, g, ref_m, ref_v, t, lr=0.01)
        assert param[0] == pytest.approx(ref_p, abs=1e-12)


@pytest.mark.parametrize("t", [0, 354, 355, 356, 400, 40_000])
def test_adam_matches_list_reference_bit_for_bit(t):
    # from step 356 on 1 - beta1**t rounds to exactly 1.0 and the m_hat
    # division is skipped; the steps on both sides of that switch must keep
    # the reference's bits, and the step moves the parameter and the state
    # it is given, in place, and leaves the gradient as it was
    assert 1.0 - ADAM_BETA1 ** 355 != 1.0 and 1.0 - ADAM_BETA1 ** 356 == 1.0
    rng = np.random.default_rng(t)
    for _ in range(50):
        param = rng.standard_normal(64)
        grad = rng.standard_normal(64) * 10.0 ** rng.uniform(-8, 3, size=64)
        m = rng.standard_normal(64) * 10.0 ** rng.uniform(-8, 3, size=64)
        v = m * m * rng.uniform(0.5, 2.0, size=64)
        [want], [(want_m, want_v, want_t)] = list_adam_step([param], [grad], [(m, v, t)], 0.01)
        kept_grad = grad.copy()
        state = AdamState(m, v, t)
        adam_step(param, grad, state, lr=0.01)
        assert np.array_equal(param, want)
        assert state.m is m and state.v is v
        assert np.array_equal(m, want_m) and np.array_equal(v, want_v)
        assert state.step == want_t == t + 1
        assert np.array_equal(grad, kept_grad)


def test_adam_shape_mismatch_rejected():
    param = np.zeros((2, 2))
    state = AdamState.zeros_like(param)
    with pytest.raises(InputError):
        adam_step(param, np.zeros(3), state, lr=0.01)
    assert state.step == 0      # refused before anything moves


def test_adam_deterministic():
    grad = np.array([0.1, -0.2])
    a, b = np.array([1.0, 2.0]), np.array([1.0, 2.0])
    adam_step(a, grad, AdamState.zeros_like(a), lr=0.01)
    adam_step(b, grad, AdamState.zeros_like(b), lr=0.01)
    assert np.array_equal(a, b)
