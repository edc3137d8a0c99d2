"""Drift adaptation: inner refinement, look-ahead, interpolation, full trace."""

import math
import tracemalloc

import numpy as np
import pytest

from bodl import bilevel
from bodl.bilevel import (
    adapt_on_drift,
    inner_adapt,
    lookahead,
    outer_interpolate,
    params_distance,
)
from bodl.errors import InputError, StateError
from bodl.hedge_net import NetworkParams, Workspace, backward, forward, init_network, sgd_step
from bodl.memory import EpisodicMemory

from oracles import tiny_net_adaptation, tiny_net_grads


BATCH = 32      # replay rows per adaptation, RunConfig's default memory_batch
# RunConfig's defaults for the drift response's rates and step count
RATES = dict(inner_rate=0.01, outer_rate=0.5, inner_steps=5)


def toy_setup(seed=0, n=1, u=3, d=2):
    return init_network((d, u, 2, n), seed)


def rows(features, labels):
    """(X, y) arrays: one row of features and one label per instance."""
    return np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64)


def no_rows():
    return rows(np.empty((0, 2)), [])


def tiny_params():
    """1-input, 1-hidden-unit, 2-class network with pinned values."""
    return NetworkParams(
        layers=[np.array([[0.9, 0.7]])],
        heads=[np.array([[0.2, -0.1], [-0.3, 0.4]]),
               np.array([[0.5, 0.1], [-0.2, 0.3]])],
    )


# ---------------------------------------------------------------- inner

def test_inner_zero_rate_is_identity():
    params, weights = toy_setup()
    X, y = rows([[1.0, -1.0]], [1])
    adapted = inner_adapt(params, X, y, weights, lam=0.1, inner_rate=0.0, inner_steps=4)
    for a, b in zip(adapted.matrices(), params.matrices()):
        assert np.array_equal(a, b)


def test_inner_stationary_point_is_identity():
    # zero head importances and no penalty: the objective is flat
    params, _ = toy_setup()
    X, y = rows([[0.5, 0.5]], [0])
    adapted = inner_adapt(params, X, y, np.zeros(2), lam=0.0, inner_rate=0.1, inner_steps=3)
    for a, b in zip(adapted.matrices(), params.matrices()):
        assert np.array_equal(a, b)


def test_inner_single_step_matches_gradient_step():
    params, weights = toy_setup(seed=5)
    X, y = rows([[0.3, -0.8]], [1])
    adapted = inner_adapt(params, X, y, weights, lam=0.1, inner_rate=0.07, inner_steps=1)
    grads = backward(params, forward(params, X[0]), weights, 1, 0.1)
    sgd_step(params, grads, 0.07)
    assert np.array_equal(adapted.flat, params.flat)


def test_inner_cycles_the_buffer():
    # three steps over two instances: the first instance is visited twice
    params, weights = toy_setup(seed=6)
    X, y = rows([[0.2, 0.4], [-0.6, 1.0]], [0, 1])
    adapted = inner_adapt(params, X, y, weights, lam=0.1, inner_rate=0.05, inner_steps=3)
    manual = params.copy()
    for k in [0, 1, 0]:
        sgd_step(manual, backward(manual, forward(manual, X[k]), weights, y[k], 0.1), 0.05)
    assert np.array_equal(adapted.flat, manual.flat)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls made through `bilevel.forward` and `bilevel.backward`."""
    counts = {"forward": 0, "backward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bilevel, "forward", counted("forward", forward))
    monkeypatch.setattr(bilevel, "backward", counted("backward", backward))
    return counts


def test_inner_calls_forward_and_backward_once_per_step(calls):
    # perfbench counts the drift response's forward calls by wrapping these
    # module attributes, so each inner step must go through them exactly once
    params, weights = toy_setup(seed=6)
    X, y = rows([[0.2, 0.4], [-0.6, 1.0], [0.1, -0.3]], [0, 1, 1])
    for k in [1, 3, 7]:
        calls.update(forward=0, backward=0)
        inner_adapt(params, X, y, weights, lam=0.1, inner_rate=0.05, inner_steps=k)
        assert calls == {"forward": k, "backward": k}


def test_inner_steps_share_one_workspace(monkeypatch):
    # one refinement builds one workspace: each of its inner_steps forward
    # calls writes into it and returns its one record, and each backward its
    # one gradient vector; the next refinement builds its own
    seen = []

    def recording(name, fn):
        def wrapper(*args, out=None, **kwargs):
            result = fn(*args, out=out, **kwargs)
            seen.append((name, out, result))
            return result
        return wrapper

    monkeypatch.setattr(bilevel, "forward", recording("forward", forward))
    monkeypatch.setattr(bilevel, "backward", recording("backward", backward))
    params, weights = toy_setup(seed=6, n=2)
    X, y = rows([[0.2, 0.4], [-0.6, 1.0], [0.1, -0.3]], [0, 1, 1])
    used = []
    for k in [1, 7]:
        seen.clear()
        inner_adapt(params, X, y, weights, lam=0.1, inner_rate=0.05, inner_steps=k)
        ws = seen[0][1]
        assert isinstance(ws, Workspace) and ws.dims == params.dims
        assert [name for name, _, _ in seen] == ["forward", "backward"] * k
        assert all(out is ws for _, out, _ in seen)
        assert all(result is (ws.acts if name == "forward" else ws.grad.flat)
                   for name, _, result in seen)
        used.append(ws)
    assert used[0] is not used[1]


def test_adapt_makes_per_row_calls_only_in_the_inner_steps(calls):
    # the window losses and the replay gradient are one stacked call each;
    # only the inner steps, each of which needs the one before, go row by row
    params, weights = toy_setup(seed=6)
    X, y = rows([[0.2, 0.4], [-0.6, 1.0], [0.1, -0.3]], [0, 1, 1])
    replay = rows(np.tile([0.5, -0.1], (BATCH, 1)), [1] * BATCH)
    for k in [1, 3, 7]:
        calls.update(forward=0, backward=0)
        adapt_on_drift(params, (X, y), replay, weights, 0.1, inner_rate=0.05,
                       outer_rate=0.5, inner_steps=k)
        assert calls == {"forward": k, "backward": k}


def test_inner_empty_buffer_rejected():
    params, weights = toy_setup()
    with pytest.raises(StateError):
        inner_adapt(params, *no_rows(), weights, lam=0.1, inner_rate=0.01, inner_steps=5)


def test_inner_leaves_originals_untouched():
    params, weights = toy_setup(seed=7)
    snapshot = params.copy()
    X, y = rows([[1.0, 1.0]], [1])
    inner_adapt(params, X, y, weights, lam=0.1, inner_rate=0.2, inner_steps=5)
    for a, b in zip(params.matrices(), snapshot.matrices()):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- lookahead

def test_lookahead_zero_rate_is_identity():
    params, weights = toy_setup()
    X, y = rows([[0.1, 0.2]], [0])
    work = params.copy()
    assert lookahead(work, X, y, weights, lam=0.1, inner_rate=0.0) is work
    for a, b in zip(work.matrices(), params.matrices()):
        assert np.array_equal(a, b)


def test_lookahead_single_instance_matches_gradient_step():
    params, weights = toy_setup(seed=8)
    X, y = rows([[0.9, -0.2]], [0])
    work = params.copy()
    assert lookahead(work, X, y, weights, lam=0.1, inner_rate=0.03) is work
    sgd_step(params, backward(params, forward(params, X[0]), weights, 0, 0.1), 0.03)
    for a, b in zip(work.matrices(), params.matrices()):
        assert np.allclose(a, b, atol=1e-15)


def test_lookahead_empty_batch_rejected():
    params, weights = toy_setup()
    with pytest.raises(StateError):
        lookahead(params, *no_rows(), weights, lam=0.1, inner_rate=0.01)


# ---------------------------------------------------------------- interpolate

def test_interpolate_endpoints_exact():
    a, _ = toy_setup(seed=9)
    b, _ = toy_setup(seed=10)
    at_zero = outer_interpolate(a, b, 0.0)
    at_one = outer_interpolate(a, b, 1.0)
    for got, want in zip(at_zero.matrices(), a.matrices()):
        assert np.array_equal(got, want)
    for got, want in zip(at_one.matrices(), b.matrices()):
        assert np.array_equal(got, want)


def test_interpolate_midpoint():
    a = NetworkParams([np.array([[2.0, 0.0]])], [np.array([[2.0, 2.0]]), np.array([[0.0, 4.0]])])
    b = NetworkParams([np.array([[4.0, 0.0]])], [np.array([[4.0, 0.0]]), np.array([[2.0, 2.0]])])
    mid = outer_interpolate(a, b, 0.5)
    assert np.array_equal(mid.layers[0], np.array([[3.0, 0.0]]))
    assert np.array_equal(mid.heads[0], np.array([[3.0, 1.0]]))
    assert np.array_equal(mid.heads[1], np.array([[1.0, 3.0]]))


def test_interpolate_composition_is_linear():
    a, _ = toy_setup(seed=11)
    b, _ = toy_setup(seed=12)
    for g1, g2 in [(0.3, 0.5), (0.9, 0.2), (0.0, 0.7), (1.0, 0.4)]:
        twice = outer_interpolate(outer_interpolate(a, b, g1), b, g2)
        once = outer_interpolate(a, b, g1 + g2 - g1 * g2)
        for x, y in zip(twice.matrices(), once.matrices()):
            assert np.allclose(x, y, atol=1e-12)


def test_interpolate_shape_mismatch_rejected():
    a, _ = toy_setup(seed=13, u=3)
    b, _ = toy_setup(seed=13, u=4)
    with pytest.raises(InputError):
        outer_interpolate(a, b, 0.5)


def test_params_distance():
    a = NetworkParams([np.array([[0.0, 0.0]])], [np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]])])
    b = NetworkParams([np.array([[3.0, 0.0]])], [np.array([[4.0, 0.0]]), np.array([[0.0, 0.0]])])
    assert params_distance(a, b) == pytest.approx(5.0, abs=1e-15)


# ---------------------------------------------------------------- full cycle

def test_adapt_gamma_zero_keeps_parameters():
    params, weights = toy_setup(seed=14)
    recent = rows([[0.5, -0.5]], [1])
    replay = rows(np.tile([0.1, 0.1], (BATCH, 1)), [0] * BATCH)
    out, record = adapt_on_drift(params, recent, replay, weights, 0.1, position=4,
                                 inner_rate=0.1, outer_rate=0.0, inner_steps=2)
    for a, b in zip(out.matrices(), params.matrices()):
        assert np.array_equal(a, b)
    assert record["memory_batch"] == BATCH


def test_adapt_gamma_one_adopts_lookahead():
    params, weights = toy_setup(seed=15)
    recent = rows([[0.5, -0.5]], [1])
    # the batch a single-item memory yields: that item, memory_batch times
    replay = rows(np.tile([0.2, 0.8], (BATCH, 1)), [0] * BATCH)
    out, _ = adapt_on_drift(params, recent, replay, weights, 0.1, position=4,
                            inner_rate=0.1, outer_rate=1.0, inner_steps=2)
    inner = inner_adapt(params, *recent, weights, 0.1, inner_rate=0.1, inner_steps=2)
    target = lookahead(inner, *replay, weights, 0.1, inner_rate=0.1)
    for a, b in zip(out.matrices(), target.matrices()):
        assert np.array_equal(a, b)


def test_adapt_zero_rate_is_identity_at_default_gamma():
    params, weights = toy_setup(seed=16)
    replay = rows(np.tile([0.0, 1.0], (BATCH, 1)), [1] * BATCH)
    out, _ = adapt_on_drift(params, rows([[1.0, 0.0]], [0]), replay, weights, 0.1,
                            position=2, inner_rate=0.0, outer_rate=0.5, inner_steps=5)
    for a, b in zip(out.matrices(), params.matrices()):
        assert np.array_equal(a, b)


def test_adapt_empty_memory_rejected():
    params, weights = toy_setup(seed=17)
    with pytest.raises(StateError, match="memory batch is empty"):
        adapt_on_drift(params, rows([[0.4, 0.6]], [1]), no_rows(), weights, 0.1, position=9,
                       inner_rate=0.05, outer_rate=0.5, inner_steps=1)


def test_adapt_empty_buffer_rejected():
    params, weights = toy_setup()
    with pytest.raises(StateError):
        adapt_on_drift(params, no_rows(), no_rows(), weights, 0.1, **RATES)


def test_adapt_does_not_mutate_inputs():
    params, weights = toy_setup(seed=18)
    p_snap = params.copy()
    w_snap = weights.copy()
    recent = rows([[0.3, 0.3]], [0])
    replay = rows(np.tile([0.6, -0.6], (32, 1)), [1] * 32)
    r_snap = [a.copy() for a in recent + replay]
    adapt_on_drift(params, recent, replay, weights, 0.1, position=5, **RATES)
    for a, b in zip(params.matrices(), p_snap.matrices()):
        assert np.array_equal(a, b)
    assert np.array_equal(weights, w_snap)
    assert all(np.array_equal(a, b) for a, b in zip(recent + replay, r_snap))


def test_adapt_deterministic_given_seed():
    params, weights = toy_setup(seed=19)
    recent = rows([[0.2, -0.9]], [1])
    X, y = rows([[float(i), 1.0] for i in range(8)], [i % 2 for i in range(8)])
    mem = EpisodicMemory(8)
    fill_rng = np.random.default_rng(7)
    for i in range(8):
        mem.maybe_insert(i, fill_rng)
    out = []
    for _ in range(2):
        picked = mem.sample_batch(32, np.random.default_rng(42))
        out.append(adapt_on_drift(params, recent, (X[picked], y[picked]), weights,
                                  0.1, position=6, **RATES)[0])
    a, b = out
    for x, y in zip(a.matrices(), b.matrices()):
        assert np.array_equal(x, y)


def test_adapt_peak_memory_stays_small():
    # the replay gradient is summed one matrix at a time; the 32 rows'
    # gradient vectors at this shape would take 3.7 MB on their own
    params, weights = init_network((20, 30, 2, 15), 0)
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((48, 20)), rng.integers(2, size=48)
    tracemalloc.start()
    try:
        adapt_on_drift(params, (X[:16], y[:16]), (X[16:], y[16:]), weights, 0.1, **RATES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_adapt_matches_scalar_hand_trace():
    params = tiny_params()
    weights = np.array([0.6, 0.4])
    recent = rows([[0.8], [-0.5]], [1, 0])
    # the batch a single-item memory yields: every draw lands on the lone item
    replay = rows(np.tile([0.3], (32, 1)), [1] * 32)
    out, record = adapt_on_drift(params, recent, replay, weights, 0.0, position=11,
                                 inner_rate=0.05, outer_rate=0.25, inner_steps=3)

    expected, target = tiny_net_adaptation(
        [0.9, 0.7],
        [[0.2, -0.1], [-0.3, 0.4]],
        [[0.5, 0.1], [-0.2, 0.3]],
        [0.6, 0.4],
        recent=[(0.8, 1), (-0.5, 0)],
        memory=[(0.3, 1)] * 32,
        mu=0.05, gamma=0.25, inner_steps=3,
    )
    assert np.allclose(out.layers[0], expected[0], atol=1e-12)
    assert np.allclose(out.heads[0], expected[1], atol=1e-12)
    assert np.allclose(out.heads[1], expected[2], atol=1e-12)

    # the logged quantities fall out of the same trace
    loss0, *_ = tiny_net_grads([0.9, 0.7], [[0.2, -0.1], [-0.3, 0.4]],
                               [[0.5, 0.1], [-0.2, 0.3]], [0.6, 0.4], 0.8, 1)
    loss1, *_ = tiny_net_grads([0.9, 0.7], [[0.2, -0.1], [-0.3, 0.4]],
                               [[0.5, 0.1], [-0.2, 0.3]], [0.6, 0.4], -0.5, 0)
    assert record["loss_before"] == pytest.approx((loss0 + loss1) / 2, abs=1e-12)

    flat_target = (list(target[0])
                   + [v for row in target[1] for v in row]
                   + [v for row in target[2] for v in row])
    flat_orig = [0.9, 0.7, 0.2, -0.1, -0.3, 0.4, 0.5, 0.1, -0.2, 0.3]
    shift = math.sqrt(sum((t - o) ** 2 for t, o in zip(flat_target, flat_orig)))
    assert record["shift_norm"] == pytest.approx(shift, abs=1e-12)
    assert record["memory_batch"] == 32
    assert record["position"] == 11
