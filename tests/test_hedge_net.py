"""Ensemble network: init, forward, loss, exact gradients, weight updates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodl.bilevel import lookahead
from bodl.errors import ConfigError, InputError
from bodl.hedge_net import (
    HEDGE_LOSS_CAP,
    WEIGHT_FLOOR,
    LayerActivations,
    _floor_and_renormalize,
    NetworkParams,
    apply_update,
    backward,
    backward_sum,
    forward,
    forward_rows,
    hedge_update,
    init_network,
    init_opt_state,
    predict_ensemble,
    row_losses,
    total_loss,
)
from bodl.numerics import AdamState, adam_step

from oracles import (
    finite_difference_grads,
    max_relative_error,
    reference_hedge_update,
    reference_init_network,
    scalar_softmax,
)


def small_net(seed, n=3, u=5, d=4, c=3):
    dims = (d, u, c, n)
    params, weights = init_network(dims, seed)
    return dims, params, weights


def acts_of(hidden, probs):
    """Activations laid out as `forward` leaves them: hidden[0] is the input,
    hidden[1:] the hidden layers, each given its trailing 1."""
    inputs, *rows = [np.append(h, 1.0) for h in hidden] or [np.ones(1)]
    block = np.array(rows) if rows else np.ones((0, 1))
    return LayerActivations(inputs, block, np.asarray(probs))


# ---------------------------------------------------------------- init

def test_init_uniform_head_importances():
    _, _, weights = small_net(0, n=2)
    assert np.allclose(weights, [1 / 3] * 3, atol=1e-15)
    assert weights.shape == (3,)


def test_init_same_seed_bit_identical():
    _, a, wa = small_net(7)
    _, b, wb = small_net(7)
    for x, y in zip(a.matrices(), b.matrices()):
        assert np.array_equal(x, y)
    assert np.array_equal(wa, wb)


@settings(max_examples=200)
@given(st.tuples(st.integers(1, 22), st.integers(1, 40), st.integers(2, 5), st.integers(1, 15)),
       st.integers(0, 2 ** 32 - 1))
@example((8, 30, 2, 15), 0)
@example((1, 1, 2, 1), 3)
def test_init_matches_list_and_copy_reference_bit_for_bit(dims, seed):
    # the draw order (layers 1..N, head 0, heads 1..N) and each bound are
    # the reference's, so the vector and the importances keep their bits
    params, weights = init_network(dims, seed)
    ref, ref_weights = reference_init_network(dims, seed)
    assert params.dims == ref.dims
    assert np.array_equal(params.flat, ref.flat)
    assert np.array_equal(weights, ref_weights)


def test_init_different_seeds_differ():
    _, a, _ = small_net(7)
    _, b, _ = small_net(8)
    assert not np.array_equal(a.layers[0], b.layers[0])


def test_init_shapes_wide_network():
    params, weights = init_network((8, 30, 2, 15), 0)
    assert params.layers[0].shape == (30, 9)       # first hidden reads the input
    assert all(w.shape == (30, 31) for w in params.layers[1:])
    assert params.heads[0].shape == (2, 9)         # head 0 reads the raw input
    assert params.heads[5].shape == (2, 31)
    assert len(params.heads) == 16
    assert len(weights) == 16


def test_init_biases_zero_and_weights_bounded():
    params, _ = init_network((6, 4, 3, 2), 11)
    for mat, fan_in in zip(params.matrices(), [6, 4, 6, 4, 4]):
        assert np.all(mat[:, -1] == 0.0)
        bound = math.sqrt(6.0 / (fan_in + mat.shape[0]))
        assert np.all(np.abs(mat[:, :-1]) <= bound)


def test_config_validation():
    # dims are (input_dim, width, classes, N)
    with pytest.raises(ConfigError, match="two classes"):
        init_network((4, 30, 1, 15), 0)
    with pytest.raises(ConfigError, match="hidden layer"):
        init_network((4, 30, 2, 0), 0)
    with pytest.raises(ConfigError, match="width"):
        init_network((4, 0, 2, 15), 0)
    with pytest.raises(ConfigError, match="input dimension"):
        init_network((0, 30, 2, 15), 0)


# ---------------------------------------------------------------- forward

def test_forward_zero_network_uniform_heads():
    params, _ = init_network((3, 5, 4, 2), 0)
    for mat in params.matrices():
        mat[:] = 0.0
    acts = forward(params, np.array([0.3, -1.0, 2.0]))
    for h in acts.block[:, :-1]:
        assert np.array_equal(h, np.zeros(5))
    for f in acts.probs:
        assert np.allclose(f, [0.25] * 4, atol=1e-15)


def test_forward_hand_computed_single_layer():
    # W = [[1, -1, 0.5], [2, 0, -1]] on x = [1, -1]: z = [2.5, 1], all positive
    params = NetworkParams(
        layers=[np.array([[1.0, -1.0, 0.5], [2.0, 0.0, -1.0]])],
        heads=[np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
               np.array([[0.5, -0.5, 1.0], [1.0, 1.0, 0.0]])],
    )
    acts = forward(params, np.array([1.0, -1.0]))
    assert np.allclose(acts.block[0, :-1], [2.5, 1.0], atol=1e-15)
    # head 0 scores: [1, -1]; head 1 scores: [0.5*2.5 - 0.5*1 + 1, 2.5 + 1]
    assert np.allclose(acts.probs[0], scalar_softmax([1.0, -1.0]), atol=1e-15)
    assert np.allclose(acts.probs[1], scalar_softmax([1.75, 3.5]), atol=1e-15)


def test_forward_heads_are_probability_vectors():
    _, params, _ = small_net(3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        acts = forward(params, rng.standard_normal(4) * 10)
        for f in acts.probs:
            assert abs(float(np.sum(f)) - 1.0) <= 1e-12
            assert np.all(f >= 0)


def test_forward_rejects_bad_input():
    _, params, _ = small_net(0)
    with pytest.raises(InputError):
        forward(params, np.zeros(5))
    with pytest.raises(InputError):
        forward(params, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(InputError):
        forward_rows(params, np.zeros((3, 5)))
    with pytest.raises(InputError):
        forward_rows(params, np.zeros(4))
    with pytest.raises(InputError):
        forward_rows(params, np.array([[0.0] * 4, [1.0, np.nan, 0.0, 0.0]]))


# ---------------------------------------------------------------- predict

def test_predict_ensemble_fixed_point():
    p = np.array([0.2, 0.5, 0.3])
    acts = acts_of([], [p, p, p])
    out = predict_ensemble(acts, np.array([0.6, 0.3, 0.1]))
    assert np.allclose(out, p, atol=1e-15)


def test_predict_ensemble_two_point_combination():
    acts = acts_of([], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    out = predict_ensemble(acts, np.array([0.25, 0.75]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_predict_ensemble_matches_summation_loop():
    rng = np.random.default_rng(5)
    probs = [np.asarray(scalar_softmax(list(rng.standard_normal(4)))) for _ in range(4)]
    w = rng.random(4)
    w /= w.sum()
    naive = np.zeros(4)
    for wn, f in zip(w, probs):
        naive += wn * f
    out = predict_ensemble(acts_of([], probs), w)
    assert np.allclose(out, naive, atol=1e-12)


def test_predict_ensemble_convex_bounds():
    rng = np.random.default_rng(6)
    for _ in range(20):
        probs = [np.asarray(scalar_softmax(list(rng.standard_normal(3)))) for _ in range(5)]
        w = rng.random(5)
        w /= w.sum()
        out = predict_ensemble(acts_of([], probs), w)
        stacked = np.stack(probs)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)


# ---------------------------------------------------------------- loss

def test_total_loss_perfect_fit_is_zero():
    one_hot = np.array([0.0, 1.0])
    h = np.array([0.5, 0.5, 0.5])
    acts = acts_of([np.zeros(2), h, h], [one_hot] * 3)
    loss, per_head = total_loss(acts, np.array([1 / 3] * 3), 1, lam=0.7)
    assert loss == 0.0
    assert np.array_equal(per_head, np.zeros(3))


def test_total_loss_uniform_heads_ln2():
    uniform = np.array([0.5, 0.5])
    acts = acts_of([np.zeros(2), np.ones(3), np.ones(3)], [uniform] * 3)
    loss, per_head = total_loss(acts, np.array([1 / 3] * 3), 0, lam=0.0)
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    assert np.allclose(per_head, math.log(2), rtol=1e-12)


def test_total_loss_hand_computed_two_layers():
    # two hidden layers, so exactly one representation pair enters the penalty
    f0, f1, f2 = np.array([0.7, 0.3]), np.array([0.4, 0.6]), np.array([0.9, 0.1])
    h1, h2 = np.array([1.0, 2.0]), np.array([0.5, 1.0])
    w = np.array([0.5, 0.25, 0.25])
    lam = 0.1
    acts = acts_of([np.zeros(3), h1, h2], [f0, f1, f2])
    loss, per_head = total_loss(acts, w, 0, lam)
    pair_gap = (1.0 - 0.5) ** 2 + (2.0 - 1.0) ** 2
    expected = (0.5 * -math.log(0.7) + 0.25 * -math.log(0.4)
                + 0.25 * -math.log(0.9) + lam * pair_gap)
    assert loss == pytest.approx(expected, abs=1e-12)
    assert per_head[1] == pytest.approx(-math.log(0.4), abs=1e-12)


def test_total_loss_single_hidden_layer_has_no_penalty():
    # one hidden layer means no consecutive pair; lam must not matter
    uniform = np.array([0.5, 0.5])
    acts = acts_of([np.zeros(2), np.full(3, 9.0)], [uniform] * 2)
    a, _ = total_loss(acts, np.array([0.5, 0.5]), 0, lam=0.0)
    b, _ = total_loss(acts, np.array([0.5, 0.5]), 0, lam=123.0)
    assert a == b


def test_total_loss_invalid_label():
    acts = acts_of([np.zeros(2)], [np.array([0.5, 0.5])])
    with pytest.raises(InputError):
        total_loss(acts, np.array([1.0]), 2, lam=0.0)


@pytest.mark.parametrize("label", [-1, 3])
def test_label_outside_the_classes_rejected(label):
    # -1 used to index the last class and 3 to raise a bare IndexError
    params, w = init_network((5, 6, 3, 2), 0)
    x = np.linspace(-1.0, 1.0, 5)
    X, y = np.stack([x, -x]), np.array([0, label])
    shown = f"label {label} outside distribution of size 3"
    with pytest.raises(InputError, match=shown):
        backward(params, forward(params, x), w, label, 0.1)
    with pytest.raises(InputError, match=shown):
        row_losses(forward_rows(params, X), w, y, 0.1)
    with pytest.raises(InputError, match=shown):
        backward_sum(params, forward_rows(params, X), w, y, 0.1)
    with pytest.raises(InputError, match=shown):
        lookahead(params, X, y, w, 0.1, inner_rate=0.01)


# ---------------------------------------------------------------- backward

def test_backward_zero_weights_zero_lambda_gives_zero():
    _, params, _ = small_net(1)
    acts = forward(params, np.array([0.5, -0.5, 1.0, 2.0]))
    grads = backward(params, acts, np.zeros(4), 0, lam=0.0)
    for g in params.with_flat(grads).matrices():
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    _, params, _ = small_net(12)
    w = rng.random(4)
    w /= w.sum()
    x = rng.standard_normal(4)
    y = 2
    lam = 0.1
    acts = forward(params, x)
    analytic = backward(params, acts, w, y, lam)

    def objective():
        a = forward(params, x)
        return total_loss(a, w, y, lam)[0]

    numeric = finite_difference_grads(objective, params.matrices())
    err = max_relative_error(params.with_flat(analytic).matrices(), numeric)
    assert err <= 1e-4


def test_backward_isolated_similarity_term():
    # zero head importances leave only the representation penalty
    _, params, _ = small_net(13, n=2)
    x = np.random.default_rng(14).standard_normal(4)
    lam = 0.5
    w = np.zeros(3)
    acts = forward(params, x)
    analytic = params.with_flat(backward(params, acts, w, 0, lam))
    for g in analytic.heads:
        assert np.array_equal(g, np.zeros_like(g))

    def objective():
        a = forward(params, x)
        return total_loss(a, w, 0, lam)[0]

    numeric = finite_difference_grads(objective, params.layers)
    err = max_relative_error(analytic.layers, numeric)
    assert err <= 1e-4


def test_backward_deterministic():
    _, params, w = small_net(2)
    x = np.array([1.0, 2.0, -1.0, 0.5])
    acts = forward(params, x)
    g1 = backward(params, acts, w, 1, 0.1)
    g2 = backward(params, acts, w, 1, 0.1)
    for a, b in zip(params.with_flat(g1).matrices(), params.with_flat(g2).matrices()):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- hedge

def test_hedge_equal_losses_leave_weights_unchanged():
    w = np.array([0.2, 0.3, 0.5])
    out = hedge_update(w, np.full(3, 1.7), eta=0.01)
    assert np.allclose(out, w, atol=1e-15)


def test_hedge_zero_losses_leave_weights_unchanged():
    w = np.array([0.25, 0.75])
    out = hedge_update(w, np.zeros(2), eta=0.01)
    assert np.allclose(out, w, atol=1e-15)


def test_hedge_hand_computed_two_heads():
    out = hedge_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]), eta=0.01)
    raw = [0.5 * math.exp(-0.01), 0.5]
    expected = [r / sum(raw) for r in raw]
    assert np.allclose(out, expected, atol=1e-12)
    assert out[0] == pytest.approx(0.497500, abs=5e-7)
    assert out[1] == pytest.approx(0.502500, abs=5e-7)


def test_hedge_weights_stay_on_floored_simplex():
    rng = np.random.default_rng(20)
    n = 5
    floor = WEIGHT_FLOOR / n
    w = np.full(n, 1.0 / n)
    for _ in range(400):
        losses = rng.uniform(0.0, 30.0, size=n)
        w = hedge_update(w, losses, eta=0.05)
        assert abs(float(w.sum()) - 1.0) <= 1e-10
        assert np.all(w >= floor - 1e-15)


def test_hedge_floor_prevents_head_death():
    w = np.array([0.5, 0.5])
    for _ in range(2000):
        w = hedge_update(w, np.array([30.0, 0.0]), eta=0.1)
    assert w[0] >= WEIGHT_FLOOR / 2 - 1e-15
    assert abs(float(w.sum()) - 1.0) <= 1e-10


def test_hedge_monotonicity():
    # the lower-loss head must strictly gain relative to the higher-loss one
    w = np.array([0.4, 0.6])
    out = hedge_update(w, np.array([0.2, 1.4]), eta=0.05)
    assert out[0] / out[1] > w[0] / w[1]


def test_hedge_loss_cap_keeps_weights_positive():
    w = np.array([0.5, 0.5])
    out = hedge_update(w, np.array([1e9, 0.0]), eta=1.0)
    assert np.all(out > 0)
    assert abs(float(out.sum()) - 1.0) <= 1e-10


def test_hedge_scale_invariance_of_prediction():
    rng = np.random.default_rng(21)
    w = rng.random(4)
    w /= w.sum()
    losses = rng.uniform(0, 3, size=4)
    a = hedge_update(w, losses, eta=0.01)
    b = hedge_update(3.7 * w, losses, eta=0.01)
    assert np.allclose(a, b, atol=1e-12)


# Raw masses and a floor below 1/n: the projection's domain. Masses span 24
# orders of magnitude, so some entries land far below the floor.
simplex_inputs = st.integers(2, 20).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-12, 1e12), min_size=n, max_size=n).map(np.array),
    st.floats(1e-9, 0.99).map(lambda frac: frac / n)))


def assert_on_floored_simplex(out, floor):
    assert abs(float(out.sum()) - 1.0) <= 1e-12
    assert np.all(out >= floor)
    again = _floor_and_renormalize(out, floor)
    assert np.allclose(again, out, rtol=1e-12, atol=0.0)


@settings(max_examples=200)
@given(simplex_inputs)
def test_floor_and_renormalize_projects_onto_floored_simplex(case):
    raw, floor = case
    assert_on_floored_simplex(_floor_and_renormalize(raw, floor), floor)


@settings(max_examples=200)
@given(simplex_inputs, st.data(), st.floats(1e-4, 10.0))
def test_hedge_update_stays_on_floored_simplex(case, data, eta):
    raw, _ = case
    floor = WEIGHT_FLOOR / len(raw)
    weights = _floor_and_renormalize(raw, floor)
    losses = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=len(raw),
                                         max_size=len(raw))))
    assert_on_floored_simplex(hedge_update(weights, losses, eta), floor)


# Importances on the simplex, per-head losses and a rate. With `near_cap`
# every head but the first takes a loss close to (or over) HEDGE_LOSS_CAP, so
# with a large rate their normalized importances fall below the floor and the
# projection has to pin them.
hedge_cases = st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-9, 1.0), min_size=n, max_size=n).map(lambda w: np.array(w) / sum(w)),
    st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n).map(np.array),
    st.booleans(),
    st.floats(1e-3, 5.0)))


# Head 1 stays above the floor after the first pass and is pushed below it
# only once heads 2 and 3 are pinned, so the projection takes two pinning
# passes.
CASCADE = (np.full(4, 0.25), np.array([0.0, 10.5966, 50.0, 60.0]), False, 1.0)


@settings(max_examples=300)
@given(hedge_cases)
@example((np.full(4, 0.25), np.array([0.0, 50.0, 49.0, 60.0]), False, 1.0))
@example(CASCADE)
@example((np.array([0.5, 0.5]), np.array([30.0, 0.0]), False, 0.1))
@example((np.full(16, 1 / 16), np.full(16, 0.7), False, 0.01))
def test_hedge_update_matches_full_projection_bit_for_bit(case):
    weights, losses, near_cap, eta = case
    if near_cap:
        losses = np.concatenate([losses[:1], losses[1:] + (HEDGE_LOSS_CAP - 5.0)])
    floor = WEIGHT_FLOOR / len(weights)
    got = hedge_update(weights, losses, eta)
    assert np.array_equal(got, reference_hedge_update(weights, losses, eta, floor,
                                                      HEDGE_LOSS_CAP))


def test_hedge_update_floor_binds_in_the_pinned_examples():
    # the first example above, and the regret bound's second, must pin
    # heads, or those tests would only ever see the unpinned first pass
    out = hedge_update(np.full(4, 0.25), np.array([0.0, 50.0, 49.0, 60.0]), 1.0)
    assert np.count_nonzero(out == WEIGHT_FLOOR / 4) == 3
    # CASCADE: a projection that stops after one pinning pass fails here
    weights, losses, _, eta = CASCADE
    raw = weights * np.exp(-eta * np.minimum(losses, HEDGE_LOSS_CAP))
    assert list(raw * (1.0 / raw.sum()) < WEIGHT_FLOOR / 4) == [False, False, True, True]
    assert list(hedge_update(weights, losses, eta) == WEIGHT_FLOOR / 4) == [False, True, True, True]


@pytest.mark.parametrize("heads", [2, 16])
def test_hedge_floor_is_weight_floor_over_head_count(heads):
    # every head but the first takes a capped loss at a rate that drives it
    # far below any floor, so each is pinned at exactly WEIGHT_FLOOR / K
    losses = np.full(heads, HEDGE_LOSS_CAP)
    losses[0] = 0.0
    out = hedge_update(np.full(heads, 1.0 / heads), losses, 1.0)
    assert np.all(out[1:] == WEIGHT_FLOOR / heads)
    assert out[0] == pytest.approx(1.0 - (heads - 1) * WEIGHT_FLOOR / heads, abs=1e-15)


def loss_rows(runs):
    """A (steps, heads) loss array from (repeats, row) runs, cut at 300 steps."""
    return np.concatenate([np.tile(row, (n, 1)) for n, row in runs])[:300]


# Loss sequences for the regret bound and a rate: up to 300 steps for 1-16
# heads, built from up to 12 runs of one repeated loss row (adversaries that
# switch the best head are piecewise constant), with losses past the cap and
# rates up to 5, where a head that loses by a few units drops to the floor.
regret_cases = st.tuples(
    st.integers(1, 16).flatmap(lambda n: st.lists(
        st.tuples(st.integers(1, 300), st.lists(st.floats(0.0, 60.0), min_size=n, max_size=n)),
        min_size=1, max_size=12)).map(loss_rows),
    st.floats(0.0, 5.0, exclude_min=True))


# Two heads; for 100 steps head 0 loses 60 and head 1 loses 50, equal once
# capped, then head 0 is the better one by 10 per step. An update that
# exponentiates uncapped losses moves importance to head 1 in the first run
# and pays for it in the second.
SWITCH_PAST_CAP = np.concatenate([np.tile([60.0, 50.0], (100, 1)),
                                  np.tile([0.0, 10.0], (200, 1))])


@settings(max_examples=100)
@given(regret_cases)
@example((SWITCH_PAST_CAP, 0.002))
@example((np.tile([0.0, 50.0, 49.0, 60.0], (300, 1)), 1.0))   # pins 3 heads, see below
def test_hedge_regret_bound(case):
    """The hedge's loss is within the exponential-weights bound of the best head.

    With capped losses l_t (T steps, K heads, start uniform, rate eta and
    floor f = WEIGHT_FLOOR / K):

        sum_t w_t.l_t <= min_i sum_t l_ti + ln(K)/eta + (eta/2) sum_t w_t.l_t^2
                         + T * -ln(1 - WEIGHT_FLOOR) / eta

    Derivation. Let u = w_t * exp(-eta l_t) / Z_t with Z_t = sum_j w_tj
    exp(-eta l_tj), and L_i = sum_t l_ti. When no entry of u is below f,
    w_t+1 = u. Otherwise each pass of the projection onto {w >= f, sum w = 1}
    scales the entries still free by c = (1 - f p) / (their sum of u), p the
    entries pinned so far, and c >= 1 - f K = 1 - WEIGHT_FLOOR because that
    sum is at most 1. A free entry ends at c u_i; an entry pinned after a
    pass ends at f > c u_i. So w_t+1,i >= (1 - WEIGHT_FLOOR) u_i for every
    head i, and summing ln w_t+1,i - ln w_ti over the T steps with
    w_1,i = 1/K and w_T+1,i <= 1 gives
        sum_t ln Z_t >= -ln K + T ln(1 - WEIGHT_FLOOR) - eta L_i.
    With exp(-x) <= 1 - x + x^2/2 for x >= 0 and ln(1 + y) <= y,
        ln Z_t <= -eta w_t.l_t + (eta^2/2) w_t.l_t^2;
    combine the two and divide by eta. The inequality is checked with
    1e-9 relative slack for rounding.
    """
    losses, eta = case
    steps, heads = losses.shape
    used = np.empty_like(losses)            # row t: the importances that met step t
    used[0] = 1.0 / heads
    for t in range(1, steps):
        used[t] = hedge_update(used[t - 1], losses[t - 1], eta)
    capped = np.minimum(losses, HEDGE_LOSS_CAP)
    mixed = float(np.sum(used * capped))
    bound = (capped.sum(axis=0).min() + math.log(heads) / eta
             + eta / 2 * float(np.sum(used * capped ** 2))
             + steps * -math.log1p(-WEIGHT_FLOOR) / eta)
    assert mixed <= bound * (1 + 1e-9)


# ---------------------------------------------------------------- updates

def test_apply_update_zero_gradients_identity():
    _, params, _ = small_net(3)
    opt = init_opt_state(params, "adam")
    before = params.copy()
    zero = backward(params, forward(params, np.zeros(4)), np.zeros(4), 0, 0.0)
    apply_update(params, zero, opt, 0.01)
    for a, b in zip(params.matrices(), before.matrices()):
        assert np.array_equal(a, b)
    assert opt.step == 1


def test_apply_update_sgd_hand_value():
    params, _ = init_network((1, 1, 2, 1), 0)
    params.layers[0][:] = 1.0
    grads = params.with_flat(backward(params, forward(params, np.zeros(1)), np.zeros(2), 0, 0.0))
    grads.layers[0][:] = 0.5
    opt = init_opt_state(params, "sgd")
    assert opt is None
    apply_update(params, grads.flat, opt, 0.1)
    assert np.allclose(params.layers[0], 0.95, atol=1e-15)


def test_apply_update_adam_matches_per_matrix_kernel():
    _, params, w = small_net(4)
    x = np.random.default_rng(15).standard_normal(4)
    acts = forward(params, x)
    grads = backward(params, acts, w, 1, 0.1)
    opt = init_opt_state(params, "adam")
    expected = [p.copy() for p in params.matrices()]
    for p, g in zip(expected, params.with_flat(grads).matrices()):
        adam_step(p, g, AdamState.zeros_like(p), 0.01)
    apply_update(params, grads, opt, 0.01)
    for got, want in zip(params.matrices(), expected):
        assert np.allclose(got, want, atol=1e-15)
    assert opt.step == 1


def test_apply_update_shape_mismatch_rejected():
    _, params, _ = small_net(5)
    _, narrow, w = small_net(5, u=4)
    grads = backward(narrow, forward(narrow, np.zeros(4)), w, 0, 0.0)
    with pytest.raises(InputError, match="dims"):
        apply_update(params, grads, init_opt_state(params, "adam"), 0.01)


def test_sgd_update_shape_mismatch_rejected():
    _, params, _ = small_net(5)
    _, narrow, w = small_net(5, u=4)
    grads = backward(narrow, forward(narrow, np.zeros(4)), w, 0, 0.0)
    with pytest.raises(InputError, match="dims"):
        apply_update(params, grads, init_opt_state(params, "sgd"), 0.01)
