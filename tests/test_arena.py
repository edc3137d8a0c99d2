"""Parameter arena: every matrix is a view of one vector, and the whole-vector
updates reproduce the matrix-by-matrix reference in oracles.py bit for bit."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodl.bilevel import (
    adapt_on_drift,
    lookahead,
    outer_interpolate,
    params_distance,
)
from bodl.errors import InputError
from bodl.hedge_net import (
    NetworkParams,
    Workspace,
    apply_update,
    backward,
    backward_sum,
    forward,
    forward_rows,
    hedge_update,
    init_network,
    init_opt_state,
    row_losses,
    sgd_step,
    total_loss,
)
from bodl.memory import EpisodicMemory
from bodl.numerics import PROB_CLIP, AdamState

from oracles import (
    list_adam_step,
    list_adapt_on_drift,
    list_backward,
    list_forward,
    list_sgd_step,
    list_total_loss,
)


# The learner's settings at RunConfig's defaults for bodl-2.
LAM, ETA, LR = 0.1, 0.01, 0.01
RATES = dict(inner_rate=0.01, outer_rate=0.5, inner_steps=5)
WINDOW, BATCH = 16, 32


def small_net(seed=3, dims=(5, 6, 3, 4)):
    """(params, weights) for dims (input_dim, width, classes, N)."""
    return init_network(dims, seed)


def assert_all_equal(got, want):
    """Equal values and equal bytes, so a sign of zero that differs fails too."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def snapshot(params):
    return [m.copy() for m in params.matrices()]


# ---------------------------------------------------------------- bit-exact oracle

# A 4x6, 3-class network under both optimizers, then the benchmark's network
# shapes: the paper default (15 layers of 30, Adam) and the one-layer SGD
# network of the drift-heavy workload, where the stacked head view has a single
# row and the similarity penalty has no pair.
REFERENCE_SHAPES = [
    pytest.param("adam", (5, 6, 3, 4), LR, id="adam"),
    pytest.param("sgd", (5, 6, 3, 4), LR, id="sgd"),
    pytest.param("adam", (20, 30, 2, 15), LR, id="deep-flip"),
    pytest.param("sgd", (10, 32, 2, 1), 0.02, id="drift-storm"),
]
CLIP_STEP = 25      # the step whose input drives head 0's target probability below PROB_CLIP


def clipping_instance(params):
    """An input along head 0's class-0 minus class-1 weight direction, scaled
    so that class 1 trails by about 40 nats, and the label 1."""
    head = params.heads[0]
    direction = head[0, :-1] - head[1, :-1]
    return direction * (40.0 / float(direction @ direction)), 1


@pytest.mark.parametrize("optimizer, dims, lr", REFERENCE_SHAPES)
def test_arena_matches_list_of_matrices_reference(optimizer, dims, lr):
    assert_arena_matches_reference(optimizer, dims, lr, LAM, steps=50,
                                   net_seed=3, data_seed=8)


@settings(max_examples=100)
@given(dims=st.tuples(st.integers(1, 24), st.integers(1, 40), st.integers(2, 5),
                      st.integers(1, 5)),
       optimizer=st.sampled_from(["adam", "sgd"]),
       lam=st.just(0.0) | st.floats(1e-3, 0.1), seed=st.integers(0, 2**32 - 1))
def test_arena_matches_list_of_matrices_reference_on_generated_shapes(optimizer, dims,
                                                                      lam, seed):
    # 20 online steps stop short of CLIP_STEP: at a large lam the clipping
    # input overflows some small networks' forward, which is the fixture
    # blowing up, not the arena differing from the reference
    assert_arena_matches_reference(optimizer, dims, LR, lam, steps=20,
                                   net_seed=seed, data_seed=seed + 1)


def assert_arena_matches_reference(optimizer, dims, lr, lam, steps, net_seed, data_seed):
    """`steps` online steps (forward, loss, hedge, backward, optimizer step)
    and then one `adapt_on_drift`, against oracles.py's list-of-matrices
    reference byte for byte. The input at CLIP_STEP, if reached, drives head
    0's target probability below PROB_CLIP."""
    params, weights = small_net(seed=net_seed, dims=dims)
    d, _, classes, n = dims
    ref = snapshot(params)
    ref_weights = weights.copy()
    ref_states = [(np.zeros_like(m), np.zeros_like(m), 0) for m in ref]
    opt = init_opt_state(params, optimizer)
    rng = np.random.default_rng(data_seed)
    seen_x, seen_y = np.empty((steps, d)), np.empty(steps, dtype=np.int64)
    mem = EpisodicMemory(32)
    for position in range(steps):
        x = rng.standard_normal(d)
        y = int(rng.integers(classes))
        if position == CLIP_STEP:
            x, y = clipping_instance(params)

        acts = forward(params, x)
        hidden, probs = list_forward(ref[:n], ref[n:], x)
        assert acts.probs.shape == (n + 1, classes)
        assert_all_equal([acts.inputs[:-1], *acts.block[:, :-1]], hidden)
        assert_all_equal(acts.probs, probs)
        if position == CLIP_STEP:
            assert acts.probs[0, y] < PROB_CLIP

        loss, per_head = total_loss(acts, weights, y, lam)
        ref_loss, ref_per_head = list_total_loss(hidden, probs, ref_weights, y, lam)
        assert loss == ref_loss
        assert np.array_equal(per_head, ref_per_head)

        weights = hedge_update(weights, per_head, ETA)
        ref_weights = hedge_update(ref_weights, ref_per_head, ETA)
        assert np.array_equal(weights, ref_weights)

        grads = backward(params, acts, weights, y, lam)
        ref_grads = list_backward(ref[:n], ref[n:], hidden, probs, ref_weights, y, lam)
        assert_all_equal(params.with_flat(grads).matrices(), ref_grads[0] + ref_grads[1])

        apply_update(params, grads, opt, lr)
        if optimizer == "adam":
            ref, ref_states = list_adam_step(ref, ref_grads[0] + ref_grads[1],
                                             ref_states, lr)
        else:
            ref = list_sgd_step(ref, ref_grads[0] + ref_grads[1], lr)
        assert_all_equal(params.matrices(), ref)

        seen_x[position], seen_y[position] = x, y
        mem.maybe_insert(position, rng)

    recent = (seen_x[-WINDOW:], seen_y[-WINDOW:])
    picked = mem.sample_batch(BATCH, np.random.default_rng(5))
    replay = (seen_x[picked], seen_y[picked])
    adapted, record = adapt_on_drift(params, recent, replay, weights, lam,
                                     position=steps, **RATES)
    want, loss_before, loss_after, shift = list_adapt_on_drift(
        ref, n, list(zip(*recent)), list(zip(*replay)), weights, lam,
        RATES["inner_rate"], RATES["outer_rate"], RATES["inner_steps"])
    assert_all_equal(adapted.matrices(), want)
    assert record["loss_before"] == loss_before
    assert record["loss_after"] == loss_after
    assert record["shift_norm"] == shift


def assert_same_bits(got, want):
    """Equal shapes and bytes, so equal values and equal signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 2, 16, 32])
@pytest.mark.parametrize("optimizer, dims, lr", REFERENCE_SHAPES)
def test_stacked_kernels_match_row_by_row(optimizer, dims, lr, rows):
    # the drift response scores its window and sums its replay gradient with
    # one stacked call each; every row must come out as the per-row calls give it
    params, _ = small_net(dims=dims)
    d, _, classes, n = dims
    rng = np.random.default_rng(rows)
    weights = rng.dirichlet(np.ones(n + 1))
    X, y = rng.standard_normal((rows, d)), rng.integers(classes, size=rows)
    X[0], y[0] = clipping_instance(params)
    X[1:2] = 0.0

    acts = assert_stacked_match_row_by_row(params, weights, X, y, LAM)
    assert acts.probs[0, 0, y[0]] < PROB_CLIP


def assert_stacked_match_row_by_row(params, weights, X, y, lam):
    """`forward_rows`, `row_losses` and `backward_sum` against the per-row
    calls, byte for byte; returns the stacked record."""
    acts = forward_rows(params, X)
    per_row = [forward(params, x) for x in X]
    assert_same_bits(acts.inputs, [a.inputs for a in per_row])
    assert_same_bits(acts.block, [a.block for a in per_row])
    assert_same_bits(acts.probs, [a.probs for a in per_row])
    assert_same_bits(row_losses(acts, weights, y, lam),
                     [total_loss(a, weights, label, lam)[0] for a, label in zip(per_row, y)])
    acc = backward(params, per_row[0], weights, y[0], lam)
    for a, label in zip(per_row[1:], y[1:]):
        acc += backward(params, a, weights, label, lam)
    assert_same_bits(backward_sum(params, acts, weights, y, lam), acc)
    return acts


@settings(max_examples=400)
@given(dims=st.tuples(st.integers(1, 24), st.integers(1, 40), st.integers(2, 5),
                      st.integers(1, 5)),
       rows=st.integers(1, 40), lam=st.just(0.0) | st.floats(1e-3, 10.0),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
def test_stacked_kernels_match_row_by_row_on_generated_shapes(dims, rows, lam, scale, seed):
    # the hand-picked shapes above have one odd head count; generated ones
    # reach width 1, a single class pair, one row and the penalty's absence
    params, _ = init_network(dims, seed)
    d, _, classes, n = dims
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n + 1))
    X, y = scale * rng.standard_normal((rows, d)), rng.integers(classes, size=rows)
    assert_stacked_match_row_by_row(params, weights, X, y, lam)


@pytest.mark.parametrize("optimizer, dims, lr", REFERENCE_SHAPES)
def test_out_buffers_match_fresh_calls(optimizer, dims, lr):
    # the learner and the inner refinement write every forward record and
    # gradient into a workspace they own; each must come out as a fresh call
    # gives it, whatever the workspace held before
    params, _ = small_net(dims=dims)
    d, _, classes, n = dims
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.ones(n + 1))
    X, y = rng.standard_normal((8, d)), rng.integers(classes, size=8)
    X[0], y[0] = clipping_instance(params)
    X[1] = 0.0
    assert forward(params, X[0]).probs[0, y[0]] < PROB_CLIP
    ws = Workspace(dims)
    record = ws.acts
    chain = ws.chain
    # a second network of the same dims shares the workspace: nothing of the
    # first one's weights may stay bound in it
    other, _ = small_net(seed=11, dims=dims)

    backward_bufs = (ws.score_grads, ws.grad.flat, ws.from_heads, chain.deltas, chain.slope,
                     chain.to_next, chain.to_prev)

    def refill(bufs=(ws.buf, *backward_bufs)):
        for buf in bufs:
            buf[...] = np.nan

    refill()
    for step, (x, label) in enumerate(zip(X, y)):
        lam = LAM if step % 2 else 0.0      # the similarity pulls, on and off
        net = other if step % 3 == 2 else params
        acts, fresh = forward(net, x, out=ws), forward(net, x)
        assert acts is record
        for field in ("inputs", "block", "probs"):
            assert np.shares_memory(getattr(acts, field), ws.buf)
            assert_same_bits(getattr(acts, field), getattr(fresh, field))
        want = backward(net, fresh, weights, label, lam)
        got = backward(net, acts, weights, label, lam, out=ws)
        assert got is ws.grad.flat
        assert_same_bits(got, want)
        # a record from outside the workspace gives the same gradient in it
        refill(backward_bufs)
        assert_same_bits(backward(net, fresh, weights, label, lam, out=ws), want)
        assert_same_bits(acts.probs, fresh.probs)
        refill()

    first = forward(params, X[2], out=ws)
    assert forward(params, X[3], out=ws) is first
    assert_same_bits(first.probs, forward(params, X[3]).probs)

    # the learner steps its own vector: the in-place update must give the
    # matrix-by-matrix reference's bits; the Adam steps t = 1, 355, 356 and
    # 357 straddle t = 356, from which 1 - beta1**t is 1.0
    grad = backward(params, forward(params, X[4]), weights, y[4], LAM)
    mats, grads = params.matrices(), params.with_flat(grad).matrices()
    m = rng.standard_normal(params.flat.size) * 1e-2
    for t in (None, 0, 354, 355, 356):
        work = params.copy()
        if t is None:
            apply_update(work, grad, None, lr)
            assert_all_equal(work.matrices(), list_sgd_step(mats, grads, lr))
            continue
        state = AdamState(m.copy(), m * m + 1e-6, t)
        moments = zip(work.with_flat(state.m).matrices(), work.with_flat(state.v).matrices())
        want, want_states = list_adam_step(mats, grads, [(a, b, t) for a, b in moments], lr)
        apply_update(work, grad, state, lr)
        assert_all_equal(work.matrices(), want)
        assert_all_equal(work.with_flat(state.m).matrices(), [s[0] for s in want_states])
        assert_all_equal(work.with_flat(state.v).matrices(), [s[1] for s in want_states])
        assert state.step == t + 1


def test_out_buffers_of_other_dims_rejected():
    # a workspace of other dims is refused by both calls before either writes it
    params, w = small_net()
    acts = forward(params, np.ones(5))
    other, other_w = small_net(dims=(5, 6, 3, 3))
    for dims in (other.dims, (5, 6, 2, 4), (5, 7, 3, 4), (4, 6, 3, 4)):
        ws = Workspace(dims)
        ws.buf[:] = ws.score_grads[:] = ws.grad.flat[:] = np.nan
        with pytest.raises(InputError, match="dims"):
            forward(params, np.ones(5), out=ws)
        with pytest.raises(InputError, match="dims"):
            backward(params, acts, w, 0, 0.1, out=ws)
        for written in (ws.buf, ws.score_grads, ws.grad.flat):
            assert np.isnan(written).all()
    # an in-place update refuses a gradient of other dims before anything moves
    grad, kept = backward(other, forward(other, np.ones(5)), other_w, 0, 0.1), params.copy()
    for state in (None, init_opt_state(params, "adam")):
        with pytest.raises(InputError, match="dims"):
            apply_update(params, grad, state, LR)
        assert state is None or state.step == 0
    with pytest.raises(InputError, match="dims"):
        sgd_step(params, grad, LR)
    assert_all_equal(params.matrices(), kept.matrices())


# ---------------------------------------------------------------- arena invariants

def test_every_matrix_is_a_view_of_flat():
    params, w = small_net()
    grads = params.with_flat(backward(params, forward(params, np.ones(5)), w, 0, 0.1))
    for p in (params, grads, params.copy()):
        assert p.flat.ndim == 1 and p.flat.dtype == np.float64
        assert p.flat.size == sum(m.size for m in p.matrices())
        for m in p.matrices():
            assert np.shares_memory(m, p.flat)


def test_constructor_copies_matrices():
    layer = np.array([[1.0, 2.0]])
    head = np.array([[3.0, 4.0], [5.0, 6.0]])
    built = NetworkParams([layer], [head, head])
    layer[0, 0] = 99.0
    assert built.layers[0][0, 0] == 1.0
    assert not np.shares_memory(built.heads[0], built.heads[1])
    assert np.array_equal(built.flat, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 3.0, 4.0, 5.0, 6.0])


def test_hidden_heads_is_one_view_of_heads_one_to_n():
    params, _ = small_net()
    for p in (params, params.copy(), params.with_flat(params.flat * 2.0)):
        assert p.hidden_heads.shape == (4, 3, 7)
        assert np.shares_memory(p.hidden_heads, p.flat)
        assert np.array_equal(p.hidden_heads, np.stack(p.heads[1:]))
    params.hidden_heads[2, 1, 0] = 42.0
    assert params.heads[3][1, 0] == 42.0


def test_deep_layers_is_one_view_of_layers_two_to_n():
    params, _ = small_net()
    for p in (params, params.copy(), params.with_flat(params.flat * 2.0)):
        assert p.deep_layers.shape == (3, 6, 7)
        assert np.shares_memory(p.deep_layers, p.flat)
        assert np.array_equal(p.deep_layers, np.stack(p.layers[1:]))
    params.deep_layers[1, 4, 2] = 42.0
    assert params.layers[2][4, 2] == 42.0
    one, _ = small_net(dims=(5, 6, 3, 1))
    assert one.deep_layers.shape == (0, 6, 7)


@pytest.mark.parametrize("layers, heads", [
    ([np.zeros((3, 5)), np.zeros((4, 4))], [np.zeros((2, 5))] * 3),      # widths 3 and 4
    ([np.zeros((3, 5)), np.zeros((3, 4)), np.zeros((3, 5))],              # layers 1..N differ
     [np.zeros((2, 5))] + [np.zeros((2, 4))] * 3),
    ([np.zeros((3, 5))] * 2,                                              # heads 1..N differ
     [np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((3, 4))]),
    ([np.zeros((3, 5))] * 2, [np.zeros((2, 5)), np.zeros((2, 4))]),       # N heads, not N+1
    ([np.zeros((3, 5))] * 2, [np.zeros((2, 5))] + [np.zeros((2, 4))] * 2),  # layer 2 reads 4 inputs
    ([np.zeros((3, 5)), np.zeros((3, 4))],                                # head 0 has 3 classes
     [np.zeros((3, 5))] + [np.zeros((2, 4))] * 2),
    ([], [np.zeros((2, 5))]),                                             # no hidden layer
])
def test_constructor_rejects_unequal_hidden_shapes(layers, heads):
    shown = f"got layers {[m.shape for m in layers]}, heads {[m.shape for m in heads]}"
    with pytest.raises(InputError, match=re.escape(shown)):
        NetworkParams(layers, heads)


def test_copy_is_independent():
    params, _ = small_net()
    before = snapshot(params)
    dup = params.copy()
    dup.flat[:] = 7.0
    dup.heads[2][0, 0] = -1.0
    assert_all_equal(params.matrices(), before)
    assert not np.shares_memory(dup.flat, params.flat)


def test_updates_write_only_their_target():
    # an optimizer step moves the parameters it is given, and Adam's state,
    # but not the gradient; `lookahead` moves its working copy; the
    # interpolation and the distance move nothing
    params, w = small_net()
    x = np.random.default_rng(1).standard_normal(5)
    X, y = np.stack([x, -x]), np.array([1, 0])
    grads = backward(params, forward(params, x), w, 2, 0.1)
    other = params.copy()
    other.flat *= 0.5
    opt = init_opt_state(params, "adam")
    arrays = {"params": params.flat, "grads": grads, "other": other.flat, "m": opt.m,
              "v": opt.v, "weights": w, "X": X, "y": y}

    def moves(call, *targets):
        before = {name: a.copy() for name, a in arrays.items()}
        call()
        for name, a in arrays.items():
            same = a.tobytes() == before[name].tobytes()
            assert same != (name in targets), name

    moves(lambda: apply_update(params, grads, opt, LR), "params", "m", "v")
    assert opt.step == 1
    moves(lambda: apply_update(params, grads, None, LR), "params")
    moves(lambda: sgd_step(params, grads, 0.1), "params")
    moves(lambda: lookahead(params, X, y, w, 0.1, inner_rate=0.01), "params")
    moves(lambda: outer_interpolate(params, other, 0.3))
    moves(lambda: params_distance(params, other))
    assert opt.step == 1


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_foreign_gradient_matrix_rejected(optimizer):
    # a matrix outside the vector would be ignored by every whole-vector
    # update, so replacing one is refused and writing into one is seen
    params, w = small_net()
    grads = params.with_flat(backward(params, forward(params, np.ones(5)), w, 0, 0.1))
    with pytest.raises(TypeError):
        grads.heads[2] = grads.heads[2].copy()
    with pytest.raises(TypeError):
        grads.layers[0] = grads.layers[0].copy()
    grads.heads[2][:] = 0.0
    before = params.copy()
    apply_update(params, grads.flat, init_opt_state(params, optimizer), LR)
    assert np.array_equal(params.heads[2], before.heads[2])
    assert not np.array_equal(params.heads[1], before.heads[1])


def test_backward_rejects_activations_not_from_forward():
    # the gradient vector starts uninitialized, so a head without an
    # importance must be an error, not an unwritten matrix
    params, w = small_net()
    acts = forward(params, np.zeros(5))
    with pytest.raises(InputError):
        backward(params, acts, w[:-1], 0, 0.1)
