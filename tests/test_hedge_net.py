"""Ensemble network: init, forward, loss, exact gradients, weight updates."""

import math

import numpy as np
import pytest

from bodl.errors import ConfigError, InputError
from bodl.hedge_net import (
    LayerActivations,
    NetworkConfig,
    NetworkParams,
    apply_update,
    backward,
    forward,
    hedge_update,
    init_network,
    init_opt_state,
    predict_ensemble,
    total_loss,
)
from bodl.numerics import AdamState, adam_step

from oracles import finite_difference_grads, max_relative_error, scalar_softmax


def small_net(seed, n=3, u=5, d=4, c=3):
    cfg = NetworkConfig(input_dim=d, classes=c, hidden_layers=n, width=u)
    params, weights = init_network(cfg, seed)
    return cfg, params, weights


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


def test_init_different_seeds_differ():
    _, a, _ = small_net(7)
    _, b, _ = small_net(8)
    assert not np.array_equal(a.layers[0], b.layers[0])


def test_init_shapes_wide_network():
    cfg = NetworkConfig(input_dim=8, classes=2, hidden_layers=15, width=30)
    params, weights = init_network(cfg, 0)
    assert params.layers[0].shape == (30, 9)       # first hidden reads the input
    assert all(w.shape == (30, 31) for w in params.layers[1:])
    assert params.heads[0].shape == (2, 9)         # head 0 reads the raw input
    assert params.heads[5].shape == (2, 31)
    assert len(params.heads) == 16
    assert len(weights) == 16


def test_init_biases_zero_and_weights_bounded():
    cfg = NetworkConfig(input_dim=6, classes=3, hidden_layers=2, width=4)
    params, _ = init_network(cfg, 11)
    for mat, fan_in in zip(params.matrices(), [6, 4, 6, 4, 4]):
        assert np.all(mat[:, -1] == 0.0)
        bound = math.sqrt(6.0 / (fan_in + mat.shape[0]))
        assert np.all(np.abs(mat[:, :-1]) <= bound)


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(input_dim=4, classes=1)
    with pytest.raises(ConfigError):
        NetworkConfig(input_dim=4, classes=2, hidden_layers=0)
    with pytest.raises(ConfigError):
        NetworkConfig(input_dim=4, classes=2, eta=0.0)
    with pytest.raises(ConfigError):
        NetworkConfig(input_dim=4, classes=2, lam=-0.1)
    with pytest.raises(ConfigError):
        NetworkConfig(input_dim=4, classes=2, optimizer="adagrad")
    with pytest.raises(ConfigError):
        NetworkConfig(input_dim=4, classes=2, hidden_layers=1, weight_floor=0.6)


def test_default_weight_floor_scales_with_heads():
    cfg = NetworkConfig(input_dim=4, classes=2, hidden_layers=3)
    assert cfg.weight_floor == pytest.approx(1e-4 / 4)


# ---------------------------------------------------------------- forward

def test_forward_zero_network_uniform_heads():
    cfg = NetworkConfig(input_dim=3, classes=4, hidden_layers=2, width=5)
    params, _ = init_network(cfg, 0)
    for mat in params.matrices():
        mat[:] = 0.0
    acts = forward(params, np.array([0.3, -1.0, 2.0]))
    for h in acts.hidden[1:]:
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
    assert np.allclose(acts.hidden[1], [2.5, 1.0], atol=1e-15)
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


# ---------------------------------------------------------------- predict

def test_predict_ensemble_fixed_point():
    p = np.array([0.2, 0.5, 0.3])
    acts = LayerActivations(hidden=[], probs=[p, p, p])
    out = predict_ensemble(acts, np.array([0.6, 0.3, 0.1]))
    assert np.allclose(out, p, atol=1e-15)


def test_predict_ensemble_two_point_combination():
    acts = LayerActivations(hidden=[], probs=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
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
    out = predict_ensemble(LayerActivations(hidden=[], probs=probs), w)
    assert np.allclose(out, naive, atol=1e-12)


def test_predict_ensemble_convex_bounds():
    rng = np.random.default_rng(6)
    for _ in range(20):
        probs = [np.asarray(scalar_softmax(list(rng.standard_normal(3)))) for _ in range(5)]
        w = rng.random(5)
        w /= w.sum()
        out = predict_ensemble(LayerActivations(hidden=[], probs=probs), w)
        stacked = np.stack(probs)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)


# ---------------------------------------------------------------- loss

def test_total_loss_perfect_fit_is_zero():
    one_hot = np.array([0.0, 1.0])
    h = np.array([0.5, 0.5, 0.5])
    acts = LayerActivations(hidden=[np.zeros(2), h, h], probs=[one_hot] * 3)
    loss, per_head = total_loss(acts, np.array([1 / 3] * 3), 1, lam=0.7)
    assert loss == 0.0
    assert np.array_equal(per_head, np.zeros(3))


def test_total_loss_uniform_heads_ln2():
    uniform = np.array([0.5, 0.5])
    acts = LayerActivations(hidden=[np.zeros(2), np.ones(3), np.ones(3)],
                            probs=[uniform] * 3)
    loss, per_head = total_loss(acts, np.array([1 / 3] * 3), 0, lam=0.0)
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    assert np.allclose(per_head, math.log(2), rtol=1e-12)


def test_total_loss_hand_computed_two_layers():
    # two hidden layers, so exactly one representation pair enters the penalty
    f0, f1, f2 = np.array([0.7, 0.3]), np.array([0.4, 0.6]), np.array([0.9, 0.1])
    h1, h2 = np.array([1.0, 2.0]), np.array([0.5, 1.0])
    w = np.array([0.5, 0.25, 0.25])
    lam = 0.1
    acts = LayerActivations(hidden=[np.zeros(3), h1, h2], probs=[f0, f1, f2])
    loss, per_head = total_loss(acts, w, 0, lam)
    pair_gap = (1.0 - 0.5) ** 2 + (2.0 - 1.0) ** 2
    expected = (0.5 * -math.log(0.7) + 0.25 * -math.log(0.4)
                + 0.25 * -math.log(0.9) + lam * pair_gap)
    assert loss == pytest.approx(expected, abs=1e-12)
    assert per_head[1] == pytest.approx(-math.log(0.4), abs=1e-12)


def test_total_loss_single_hidden_layer_has_no_penalty():
    # one hidden layer means no consecutive pair; lam must not matter
    uniform = np.array([0.5, 0.5])
    acts = LayerActivations(hidden=[np.zeros(2), np.full(3, 9.0)], probs=[uniform] * 2)
    a, _ = total_loss(acts, np.array([0.5, 0.5]), 0, lam=0.0)
    b, _ = total_loss(acts, np.array([0.5, 0.5]), 0, lam=123.0)
    assert a == b


def test_total_loss_invalid_label():
    acts = LayerActivations(hidden=[np.zeros(2)], probs=[np.array([0.5, 0.5])])
    with pytest.raises(InputError):
        total_loss(acts, np.array([1.0]), 2, lam=0.0)


# ---------------------------------------------------------------- backward

def test_backward_zero_weights_zero_lambda_gives_zero():
    _, params, _ = small_net(1)
    acts = forward(params, np.array([0.5, -0.5, 1.0, 2.0]))
    grads = backward(params, acts, np.zeros(4), 0, lam=0.0)
    for g in grads.matrices():
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
    err = max_relative_error(analytic.matrices(), numeric)
    assert err <= 1e-4


def test_backward_isolated_similarity_term():
    # zero head importances leave only the representation penalty
    _, params, _ = small_net(13, n=2)
    x = np.random.default_rng(14).standard_normal(4)
    lam = 0.5
    w = np.zeros(3)
    acts = forward(params, x)
    analytic = backward(params, acts, w, 0, lam)
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
    for a, b in zip(g1.matrices(), g2.matrices()):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- hedge

def test_hedge_equal_losses_leave_weights_unchanged():
    w = np.array([0.2, 0.3, 0.5])
    out = hedge_update(w, np.full(3, 1.7), eta=0.01, weight_floor=1e-5)
    assert np.allclose(out, w, atol=1e-15)


def test_hedge_zero_losses_leave_weights_unchanged():
    w = np.array([0.25, 0.75])
    out = hedge_update(w, np.zeros(2), eta=0.01, weight_floor=1e-5)
    assert np.allclose(out, w, atol=1e-15)


def test_hedge_hand_computed_two_heads():
    out = hedge_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                       eta=0.01, weight_floor=5e-5)
    raw = [0.5 * math.exp(-0.01), 0.5]
    expected = [r / sum(raw) for r in raw]
    assert np.allclose(out, expected, atol=1e-12)
    assert out[0] == pytest.approx(0.497500, abs=5e-7)
    assert out[1] == pytest.approx(0.502500, abs=5e-7)


def test_hedge_weights_stay_on_floored_simplex():
    rng = np.random.default_rng(20)
    n = 5
    floor = 1e-4 / n
    w = np.full(n, 1.0 / n)
    for _ in range(400):
        losses = rng.uniform(0.0, 30.0, size=n)
        w = hedge_update(w, losses, eta=0.05, weight_floor=floor)
        assert abs(float(w.sum()) - 1.0) <= 1e-10
        assert np.all(w >= floor - 1e-15)


def test_hedge_floor_prevents_head_death():
    w = np.array([0.5, 0.5])
    for _ in range(2000):
        w = hedge_update(w, np.array([30.0, 0.0]), eta=0.1, weight_floor=1e-4)
    assert w[0] >= 1e-4 - 1e-15
    assert abs(float(w.sum()) - 1.0) <= 1e-10


def test_hedge_monotonicity():
    # the lower-loss head must strictly gain relative to the higher-loss one
    w = np.array([0.4, 0.6])
    out = hedge_update(w, np.array([0.2, 1.4]), eta=0.05, weight_floor=1e-6)
    assert out[0] / out[1] > w[0] / w[1]


def test_hedge_loss_cap_keeps_weights_positive():
    w = np.array([0.5, 0.5])
    out = hedge_update(w, np.array([1e9, 0.0]), eta=1.0, weight_floor=1e-6)
    assert np.all(out > 0)
    assert abs(float(out.sum()) - 1.0) <= 1e-10


def test_hedge_scale_invariance_of_prediction():
    rng = np.random.default_rng(21)
    w = rng.random(4)
    w /= w.sum()
    losses = rng.uniform(0, 3, size=4)
    a = hedge_update(w, losses, eta=0.01, weight_floor=1e-5)
    b = hedge_update(3.7 * w, losses, eta=0.01, weight_floor=1e-5)
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------- updates

def test_apply_update_zero_gradients_identity():
    cfg, params, _ = small_net(3)
    opt = init_opt_state(params, cfg)
    zero = backward(params, forward(params, np.zeros(4)), np.zeros(4), 0, 0.0)
    new_params, _ = apply_update(params, zero, opt, cfg)
    for a, b in zip(new_params.matrices(), params.matrices()):
        assert np.array_equal(a, b)


def test_apply_update_sgd_hand_value():
    cfg = NetworkConfig(input_dim=1, classes=2, hidden_layers=1, width=1,
                        optimizer="sgd", lr=0.1)
    params, _ = init_network(cfg, 0)
    params.layers[0][:] = 1.0
    grads = backward(params, forward(params, np.zeros(1)), np.zeros(2), 0, 0.0)
    grads.layers[0][:] = 0.5
    new_params, _ = apply_update(params, grads, init_opt_state(params, cfg), cfg)
    assert np.allclose(new_params.layers[0], 0.95, atol=1e-15)


def test_apply_update_adam_matches_per_matrix_kernel():
    cfg, params, w = small_net(4)
    x = np.random.default_rng(15).standard_normal(4)
    acts = forward(params, x)
    grads = backward(params, acts, w, 1, 0.1)
    opt = init_opt_state(params, cfg)
    new_params, new_opt = apply_update(params, grads, opt, cfg)
    for p, g, got in zip(params.matrices(), grads.matrices(), new_params.matrices()):
        expected, _ = adam_step(p, g, AdamState.zeros_like(p), cfg.lr)
        assert np.allclose(got, expected, atol=1e-15)
    assert new_opt[0].step == 1


def test_apply_update_shape_mismatch_rejected():
    cfg, params, w = small_net(5)
    grads = backward(params, forward(params, np.zeros(4)), w, 0, 0.0)
    grads.layers[0] = np.zeros((2, 2))
    with pytest.raises(InputError):
        apply_update(params, grads, init_opt_state(params, cfg), cfg)


def test_sgd_update_shape_mismatch_rejected():
    cfg, params, w = small_net(5)
    cfg.optimizer = "sgd"
    grads = backward(params, forward(params, np.zeros(4)), w, 0, 0.0)
    grads.heads[1] = np.zeros((3, 1))     # would broadcast without the check
    with pytest.raises(InputError):
        apply_update(params, grads, init_opt_state(params, cfg), cfg)

