"""Multi-depth ensemble network over a deep ReLU MLP.

Every hidden layer, plus the raw input, feeds its own softmax head; the
ensemble prediction is the importance-weighted sum of the head outputs.
Head importances are learned multiplicatively from per-head losses, and the
training objective adds a similarity penalty that pulls consecutive hidden
representations together so deep heads do not stall.

Parameter matrices carry their bias as a trailing column, so a layer computes
W @ [h; 1]. With N hidden layers there are N+1 heads: head 0 reads the raw
input, head n reads hidden layer n. All hidden layers share one width, so
heads 1..N are scored by one batched matmul into one (N+1, classes) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, InputError
from .numerics import AdamState, adam_step, check_label, cross_entropy, softmax, softmax_pair

# Per-head losses are capped before exponentiation so that exp(-eta * loss)
# cannot underflow to 0 for every head: RunConfig refuses an eta with
# eta * HEDGE_LOSS_CAP > MAX_HEDGE_EXPONENT, that is eta > 14, and exp(-700)
# is still a normal float. The cap is unreachable in normal operation (the
# probability floor already bounds cross-entropy near 27.6).
HEDGE_LOSS_CAP = 50.0
MAX_HEDGE_EXPONENT = 700.0

# Head importances never fall below WEIGHT_FLOOR / (N + 1), so no head dies.
WEIGHT_FLOOR = 1e-4


def _shapes(dims: tuple) -> list:
    """Matrix shapes in `matrices()` order for dims (input_dim, width, classes, N)."""
    d, u, c, n = dims
    return [(u, d + 1)] + [(u, u + 1)] * (n - 1) + [(c, d + 1)] + [(c, u + 1)] * n


def _blocks(flat: np.ndarray, dims: tuple) -> tuple:
    """Views of a parameter-sized vector as layer 1, layers 2..N stacked,
    head 0 and heads 1..N stacked."""
    d, u, c, n = dims
    first = u * (d + 1)                       # end of layers[0]
    head0 = first + (n - 1) * u * (u + 1)     # start of heads[0]
    head1 = head0 + c * (d + 1)               # start of heads[1]
    return (flat[:first].reshape(u, d + 1), flat[first:head0].reshape(n - 1, u, u + 1),
            flat[head0:head1].reshape(c, d + 1), flat[head1:].reshape(n, c, u + 1))


class NetworkParams:
    """All trainable matrices, or their gradients, in one contiguous float64 vector.

    The network is fixed by `dims = (input_dim, width, classes, N)`: N >= 1
    hidden layers of one width and N+1 heads. `flat` holds every matrix back
    to back in `matrices()` order: layers[0] (width, input_dim + 1), layers
    1..N-1 (width, width + 1), heads[0] (classes, input_dim + 1) and heads 1..N
    (classes, width + 1). `layers` and `heads` are tuples of views into `flat`,
    so a write to a matrix writes `flat`, a whole-vector update moves every
    matrix, and a matrix cannot be swapped for an outside array.
    `deep_layers` views layers 2..N as one (N-1, width, width + 1) array and
    `hidden_heads` views heads 1..N as one (N, classes, width + 1) array.
    `backward` reads two more views, built here once: `back_down`, the
    transposed weights `W[:, :-1].T` of layers N down to 2 and then None,
    which carry each layer's gradient to the one below it, top layer first,
    and `back_heads`, the transposed weights of heads 1..N as one (N, width,
    classes) array.
    `NetworkParams(layers, heads)` checks the shapes against `dims` and copies
    the matrices into a new vector. A deepcopy or pickle round trip gives
    the same views over the copied vector.
    """

    def __init__(self, layers: list, heads: list):
        mats = [np.asarray(m, dtype=np.float64) for m in (*layers, *heads)]
        n, shapes = len(layers), [m.shape for m in mats]
        ok = n >= 1 and len(heads) == n + 1 and all(len(s) == 2 for s in shapes)
        if ok:
            dims = (shapes[0][1] - 1, shapes[0][0], shapes[n][0], n)
            ok = shapes == _shapes(dims)
        if not ok:
            raise InputError("need N >= 1 hidden layers of one width, each reading the one "
                             "before, and N+1 heads of one class count; "
                             f"got layers {shapes[:n]}, heads {shapes[n:]}")
        self._bind(np.concatenate([m.ravel() for m in mats]), dims)

    def _bind(self, flat: np.ndarray, dims: tuple) -> None:
        self.flat, self.dims = flat, dims
        layer0, self.deep_layers, head0, self.hidden_heads = _blocks(flat, dims)
        self.layers = (layer0, *self.deep_layers)
        self.heads = (head0, *self.hidden_heads)
        self.back_down = (*(w[:, :-1].T for w in self.deep_layers[::-1]), None)
        self.back_heads = self.hidden_heads[:, :, :-1].transpose(0, 2, 1)

    def checked(self, vec: np.ndarray) -> np.ndarray:
        """`vec` itself, after checking it holds one value per parameter."""
        if vec.shape != self.flat.shape:
            raise InputError(f"vector of shape {vec.shape} for the {self.flat.size} "
                             f"parameters of network dims {self.dims}")
        return vec

    def with_flat(self, flat: np.ndarray) -> "NetworkParams":
        """Same dims, viewing `flat` (not copied)."""
        return _viewing(self.checked(flat), self.dims)

    def copy(self) -> "NetworkParams":
        return self.with_flat(self.flat.copy())

    def matrices(self) -> list:
        return [*self.layers, *self.heads]

    def __reduce__(self):
        # pickle and deepcopy rebuild the views over the copied vector; numpy
        # alone would copy each view into an array of its own
        return _viewing, (self.flat, self.dims)


def _viewing(flat: np.ndarray, dims: tuple) -> NetworkParams:
    """A `NetworkParams` of `dims` over `flat`, which must have its size."""
    params = NetworkParams.__new__(NetworkParams)
    params._bind(flat, dims)
    return params


def flat_pair(a: NetworkParams, b: NetworkParams) -> tuple[np.ndarray, np.ndarray]:
    """The vectors of two parameter sets, after checking they share dims."""
    if a.dims != b.dims:
        raise InputError(f"network dims (input, width, classes, N) differ: {a.dims} vs {b.dims}")
    return a.flat, b.flat


@dataclass
class LayerActivations:
    """Forward-pass record: slices of a workspace's buffer, which `forward`
    refills, so each workspace has one record. A `forward_rows` record has
    the same fields, with a leading row axis, over an array of its own."""

    inputs: np.ndarray   # [x; 1]
    block: np.ndarray    # (N, width + 1): row n-1 is [h_n; 1], h_n post-ReLU
    probs: np.ndarray    # (N+1, classes): row n is head n's probability vector


def init_network(dims: tuple, seed: int) -> tuple[NetworkParams, np.ndarray]:
    """Fan-balanced uniform init (biases zero) and uniform head importances
    for dims (input_dim, width, classes, N). Each matrix's weight columns are
    drawn in `matrices()` order straight into one zero parameter vector."""
    d, u, c, n = dims
    if n < 1:
        raise ConfigError("need at least one hidden layer")
    if u < 1:
        raise ConfigError("hidden width must be >= 1")
    if c < 2:
        raise ConfigError("need at least two classes")
    if d < 1:
        raise ConfigError("input dimension must be >= 1")
    rng = np.random.default_rng(seed)
    params = _viewing(np.zeros(sum(r * k for r, k in _shapes(dims))), dims)
    for mat in params.matrices():
        fan_out, fan_in = mat.shape[0], mat.shape[1] - 1
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        mat[:, :-1] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
    return params, np.full(n + 1, 1.0 / (n + 1))


class _Chain:
    """The gradient at each hidden layer's pre-activation, from the top down,
    in buffers and row views bound once.

    `from_heads` holds the heads' pull on each hidden layer, layer axis
    first. Each layer's row of it, and of every buffer here, has
    `row_shape`: (width,) for one instance, or (rows, width) for a stack of
    them. `deltas` row i-1 is the gradient at layer i's pre-activation,
    `slope` row i-1 its ReLU derivative, `to_next` row i-1 the similarity
    pull of h_i toward h_{i+1} and `to_prev` row i-2 that of h_i toward
    h_{i-1}. `steps` lists one tuple per layer, top layer first: (pull,
    delta row, to_next row or None, to_prev row or None, slope row), so the
    loop indexes nothing.
    """

    def __init__(self, from_heads: np.ndarray, row_shape: tuple):
        n = len(from_heads)
        self.deltas = deltas = np.empty((n, *row_shape))
        self.slope = slope = np.empty((n, *row_shape))
        self.to_next = to_next = np.empty((n - 1, *row_shape))
        self.to_prev = to_prev = np.empty((n - 1, *row_shape))
        # rows by index: iterating an ndarray costs more than indexing a few rows,
        # and `backward_sum` builds a chain per call
        self.steps = [(from_heads[i], deltas[i], to_next[i] if i < n - 1 else None,
                       to_prev[i - 1] if i else None, slope[i]) for i in range(n - 1, -1, -1)]

    def run(self, params: NetworkParams, hidden: np.ndarray, lam: float, matvec) -> np.ndarray:
        """Fill and return `deltas`, given the post-ReLU rows h_1..h_N in
        `hidden` (shaped like `deltas`) and the pull already in `from_heads`.
        `matvec(W.T, delta)` carries a layer's gradient to the one below it,
        through `params.back_down`, so the weights are always `params`' own.
        """
        n = len(hidden)
        sim_coef = 2.0 * lam / (n - 1) if n >= 2 else 0.0
        if sim_coef:
            np.subtract(hidden[:-1], hidden[1:], out=self.to_next)
            np.multiply(sim_coef, self.to_next, out=self.to_next)
            np.subtract(hidden[1:], hidden[:-1], out=self.to_prev)
            np.multiply(sim_coef, self.to_prev, out=self.to_prev)
        np.greater(hidden, 0.0, out=self.slope)     # ReLU derivative
        carry = 0.0                     # into h_N from above; + 0.0 has a zero vector's bits
        for (pull, delta, to_next, to_prev, slope), back in zip(self.steps, params.back_down):
            np.add(pull, carry, out=delta)
            if sim_coef:
                if to_next is not None:
                    delta += to_next
                if to_prev is not None:
                    delta += to_prev
            delta *= slope
            if back is not None:
                carry = matvec(back, delta)
        return self.deltas


class Workspace:
    """Everything one single-row `forward` and `backward` write at network
    dims (input_dim, width, classes, N), with every view they use bound once.

    `buf` holds [x; 1], then the (N, width + 1) block of hidden rows, whose
    last column is 1, then the (N+1, classes) head scores. `acts` is the one
    `LayerActivations` record over those three slices. `layer_io` pairs each
    layer's input row with the slice its ReLU writes, the row's first `width`
    entries, so a layer's output is the next one's input and no augmented
    vector is ever built by appending; each layer's mat-vec writes that
    slice and its ReLU then runs on it in place, against `zero`, a bound 0-d
    array, not a Python float to convert. `softmax()` turns the scores into
    probabilities in place: `numerics.softmax_pair` over the scores, their
    column views and a scratch column at two classes, else `numerics.softmax`
    into the scores. `score_grads` is
    backward's (N+1, classes) gradient at the head scores, with one column
    view per label in `label_grads`. `from_heads` is the (N, width, 1)
    back-projection of heads 1..N, and `chain` the `_Chain` over its rows,
    which owns the `deltas`, `slope`, `to_next` and `to_prev` buffers and
    binds each layer's rows of them once; `deep_deltas` and `first_delta`
    are the column views of `deltas` that the outer products read. `grad`
    is the `NetworkParams` that receives the parameter gradient. No weight
    is bound here, so one workspace serves every `NetworkParams` of its
    dims. A workspace holds one record and one gradient at a time: the next
    call into it overwrites them, so a copy or pickle of it is a fresh one.
    """

    def __init__(self, dims: tuple):
        d, u, c, n = dims
        self.dims = dims
        hidden_end = d + 1 + n * (u + 1)
        self.buf = buf = np.empty(hidden_end + (n + 1) * c)
        self.x, self.ones = buf[:d], buf[d:hidden_end:u + 1]   # the 1 of [x; 1] and of each row
        inputs, block = buf[:d + 1], buf[d + 1:hidden_end].reshape(n, u + 1)
        self.layer_io = tuple(zip((inputs, *block[:-1]), (row[:-1] for row in block)))
        scores = buf[hidden_end:].reshape(n + 1, c)
        self.head0_scores, self.hidden_scores = scores[0], scores[1:, :, None]
        self.softmax = (partial(softmax_pair, scores, scores[:, 0], scores[:, 1], np.empty(n + 1))
                        if c == 2 else partial(softmax, scores, out=scores))
        self.block_cols = block[:, :, None]
        self.acts = LayerActivations(inputs, block, scores)
        self.score_grads = grads = np.empty((n + 1, c))
        self.head0_grads, self.hidden_grads = grads[0, :, None], grads[1:, :, None]
        self.label_grads = tuple(grads[:, k] for k in range(c))   # column k: label k's
        self.zero = np.zeros(())
        self.from_heads = np.empty((n, u, 1))
        self.chain = _Chain(self.from_heads[:, :, 0], (u,))
        deltas = self.chain.deltas
        self.deep_deltas, self.first_delta = deltas[1:, :, None], deltas[0, :, None]
        self.grad = _viewing(np.empty(sum(r * k for r, k in _shapes(dims))), dims)

    def __reduce__(self):
        # nothing here outlives a call, so a copy is a fresh workspace
        return Workspace, (self.dims,)


def _workspace(params: NetworkParams, out: Workspace | None) -> Workspace:
    """`out`, after checking it was built for `params`' dims, or a new workspace."""
    if out is None:
        return Workspace(params.dims)
    if out.dims != params.dims:
        raise InputError(f"workspace for network dims {out.dims}, not {params.dims}")
    return out


def forward(params: NetworkParams, x: np.ndarray,
            out: Workspace | None = None) -> LayerActivations:
    """Run the ReLU chain, then every softmax head at once, into the
    workspace `out` (a new one without it), and return its record.

    Each layer's mat-vec writes straight into its hidden row, where its ReLU
    runs in place, and the head scores go to the buffer's end, where the
    workspace's bound `softmax()` turns them into probabilities in place,
    with `numerics.softmax`'s bits at every class count. The trailing ones
    are rewritten on every call, so a workspace whose buffer was overwritten
    still gives a fresh call's bits. The record returned is `out.acts`, the
    same object on every call.
    """
    x = np.asarray(x, dtype=np.float64)
    d = params.dims[0]
    if x.shape != (d,):
        raise InputError(f"input has shape {x.shape}, expected ({d},)")
    if not np.isfinite(x).all():
        raise InputError("input contains non-finite values")
    ws = _workspace(params, out)
    ws.x[...] = x
    ws.ones.fill(1.0)
    for w, (prev, relu) in zip(params.layers, ws.layer_io):
        w.dot(prev, out=relu)
        np.maximum(relu, ws.zero, out=relu)
    params.heads[0].dot(ws.acts.inputs, out=ws.head0_scores)
    np.matmul(params.hidden_heads, ws.block_cols, out=ws.hidden_scores)
    ws.softmax()
    return ws.acts


def _matvecs(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`m @ r` for each row r of a (B, k) stack. The trailing length-1 axis
    makes numpy call the same BLAS mat-vec per row that `m @ r` calls, so
    every row keeps its bits; `rows @ m.T` would be one gemm, which adds in
    another order."""
    return np.matmul(m, rows[:, :, None])[:, :, 0]


def forward_rows(params: NetworkParams, X: np.ndarray) -> LayerActivations:
    """`forward` over a (B, input_dim) stack of rows, each row bit for bit.

    The record's arrays are `forward`'s with a leading row axis. One row goes
    faster through `forward`, so only the drift response's batches come here.
    """
    X = np.asarray(X, dtype=np.float64)
    d, u, c, n = params.dims
    if X.ndim != 2 or X.shape[1] != d:
        raise InputError(f"input stack has shape {X.shape}, expected (rows, {d})")
    if not np.isfinite(X).all():
        raise InputError("input contains non-finite values")
    rows = len(X)
    buf = np.ones((rows, d + 1 + n * (u + 1)))
    buf[:, :d] = X
    inputs, block = buf[:, :d + 1], buf[:, d + 1:].reshape(rows, n, u + 1)
    prev = inputs
    for i, w in enumerate(params.layers):
        np.maximum(_matvecs(w, prev), 0.0, out=block[:, i, :-1])
        prev = block[:, i]
    scores = np.empty((rows, n + 1, c))
    np.matmul(params.heads[0], inputs[:, :, None], out=scores[:, 0, :, None])
    np.matmul(params.hidden_heads, block[:, :, :, None], out=scores[:, 1:, :, None])
    return LayerActivations(inputs, block, softmax(scores, out=scores))


def predict_ensemble(acts: LayerActivations, weights: np.ndarray) -> np.ndarray:
    """Importance-weighted vote over the heads; a probability vector."""
    return weights.dot(acts.probs)


def _similarity_penalty(hidden: np.ndarray) -> float | np.ndarray:
    """Mean squared distance between consecutive rows of an (..., N, width)
    hidden block, 0.0 below two layers. The pairs are added in order, so a
    row has the same bits alone or in a stack; one np.sum would round differently."""
    n = hidden.shape[-2]
    if n < 2:
        return 0.0
    diffs = hidden[..., :-1, :] - hidden[..., 1:, :]
    squares = np.matmul(diffs[..., None, :], diffs[..., :, None])[..., 0, 0]
    return np.add.accumulate(squares, axis=-1)[..., -1] / (n - 1)


def total_loss(acts: LayerActivations, weights: np.ndarray, y: int,
               lam: float) -> tuple[float, np.ndarray]:
    """Weighted per-head cross-entropy plus `_similarity_penalty`, shared with `row_losses`.

    Returns the scalar objective and the vector of raw per-head losses (the
    input to the multiplicative importance update).
    """
    per_head = cross_entropy(acts.probs, y)
    return float(weights.dot(per_head) + lam * _similarity_penalty(acts.block[:, :-1])), per_head


def row_losses(acts: LayerActivations, weights: np.ndarray, y: np.ndarray,
               lam: float) -> np.ndarray:
    """`total_loss`'s objective for each row of a `forward_rows` record with
    labels `y`, bit for bit: each row's head losses meet the importances in
    one dot product, and its penalty is `total_loss`'s, `_similarity_penalty`
    over the stacked hidden block."""
    per_head = cross_entropy(acts.probs, y)
    penalty = _similarity_penalty(acts.block[:, :, :-1])
    return np.matmul(weights, per_head[:, :, None])[:, 0] + lam * penalty


def _check_record(params: NetworkParams, acts: LayerActivations, weights: np.ndarray,
                  y: int | np.ndarray) -> None:
    """Raise InputError unless `params`, `weights` and `acts` agree on the heads and `y` is a
    class of `acts`. The gradient vector is not cleared first, so a head without an
    importance or an output must be an error, not an unwritten matrix."""
    heads, classes = acts.probs.shape[-2:]
    if not len(weights) == heads == len(params.heads):
        raise InputError(f"{len(params.heads)} heads, but {len(weights)} importances and "
                         f"{heads} head outputs")
    check_label(y, classes)


def backward(params: NetworkParams, acts: LayerActivations, weights: np.ndarray,
             y: int, lam: float, out: Workspace | None = None) -> np.ndarray:
    """Exact gradient of `total_loss` w.r.t. every parameter, as a vector
    laid out like `params.flat`.

    Head importances are treated as constants. Head n backpropagates into
    layers 1..n scaled by its importance; the similarity penalty contributes
    through both members of each consecutive pair. Every head's gradient and
    back-projection is computed at once, into `out.from_heads`; only the
    chain through the hidden layers is a loop, `out.chain` over the rows it
    bound, and every layer's outer product is taken after it.
    The gradient is written into the workspace `out` (a new one without
    it): the head-score gradient into `out.score_grads`, the parameter
    gradient through `out.grad`'s matrix views. `out.grad.flat` is returned.
    `acts` may be any record of `params`' dims, `out`'s own included, and
    `params` any network of `out`'s dims: the chain reads the weights from
    `params.back_down` on every call.
    """
    _check_record(params, acts, weights, y)
    ws = _workspace(params, out)
    grad = ws.grad                # every entry is written below
    inputs, block = acts.inputs, acts.block

    score_grads = ws.score_grads  # d loss / d head-scores, scaled by importance
    score_grads[...] = acts.probs
    label_col = ws.label_grads[y]  # score_grads[:, y]
    label_col -= 1.0
    score_grads *= weights[:, None]
    np.multiply(ws.head0_grads, inputs, out=grad.heads[0])   # outer products
    np.multiply(ws.hidden_grads, block[:, None, :], out=grad.hidden_heads)
    np.matmul(params.back_heads, ws.hidden_grads, out=ws.from_heads)

    ws.chain.run(params, block[:, :-1], lam, np.matmul)
    if len(block) > 1:                  # layers 2..N; an empty multiply still costs a call
        np.multiply(ws.deep_deltas, block[:-1, None, :], out=grad.deep_layers)
    np.multiply(ws.first_delta, inputs, out=grad.layers[0])
    return grad.flat


def backward_sum(params: NetworkParams, acts: LayerActivations, weights: np.ndarray,
                 y: np.ndarray, lam: float) -> np.ndarray:
    """The sum of `backward`'s gradients over the rows of a `forward_rows`
    record with labels `y`, as one vector, bit for bit as
    `acc = g_0; acc += g_1; ...`.

    Each row's chain runs through `backward`'s loop: a `_Chain` built per
    call over (N, rows, width) buffers, with its mat-vecs stacked the way
    `forward_rows` stacks them. The rows' outer products are then added one
    matrix at a time by `np.add.reduce` over the row axis, which adds them in
    row order (from -0.0, the one start that leaves every sum's bits as they
    are), so no per-row gradient vector is ever held.
    """
    probs = acts.probs
    rows, n = len(probs), len(params.layers)
    _check_record(params, acts, weights, y)
    inputs, block = acts.inputs, acts.block

    score_grads = probs.copy()
    score_grads[np.arange(rows), :, y] -= 1.0
    score_grads *= weights[:, None]
    from_heads = np.matmul(params.back_heads, score_grads[:, 1:, :, None])[..., 0]
    chain = _Chain(from_heads.transpose(1, 0, 2), (rows, params.dims[1]))
    deltas = chain.run(params, block[:, :, :-1].transpose(1, 0, 2), lam, _matvecs)

    grad = np.empty_like(params.flat)
    layer0, deep_layers, head0, hidden_heads = _blocks(grad, params.dims)
    pairs = [(head0, score_grads[:, 0], inputs), (hidden_heads, score_grads[:, 1:], block),
             (layer0, deltas[0], inputs)]
    pairs += [(deep_layers[i - 1], deltas[i], block[:, i - 1]) for i in range(1, n)]
    for out, left, right in pairs:      # out = the rows' outer products left x right, summed
        np.add.reduce(left[..., :, None] * right[..., None, :], axis=0, out=out, initial=-0.0)
    return grad


def _floor_and_renormalize(raw: np.ndarray, floor: float) -> np.ndarray:
    """Project onto the simplex with a per-entry lower bound.

    Entries at the floor are pinned there; the rest share the remaining mass
    proportionally. The first pass only normalizes; each later pass pins
    every entry an earlier pass put below the floor, and runs only while
    that set grows. Returns within K passes for K entries: with
    floor * K < 1 the largest free entry never falls below the floor.
    """
    scaled = raw * (1.0 / raw.sum())
    fixed = scaled < floor
    pinned = 0
    while (count := np.count_nonzero(fixed)) > pinned:
        pinned = count
        scaled = np.where(fixed, floor, raw * ((1.0 - floor * count) / raw[~fixed].sum()))
        fixed |= scaled < floor
    return scaled


def hedge_update(weights: np.ndarray, per_head_losses: np.ndarray, eta: float) -> np.ndarray:
    """Discount each head importance by exp(-eta * loss), floor at
    WEIGHT_FLOOR / K for K heads, renormalize."""
    capped = np.minimum(per_head_losses, HEDGE_LOSS_CAP)
    return _floor_and_renormalize(weights * np.exp(-eta * capped), WEIGHT_FLOOR / len(weights))


def init_opt_state(params: NetworkParams, optimizer: str) -> AdamState | None:
    """None for "sgd"; for "adam" one AdamState over the whole parameter vector."""
    return None if optimizer == "sgd" else AdamState.zeros_like(params.flat)


def apply_update(params: NetworkParams, grad: np.ndarray, opt_state: AdamState | None,
                 lr: float) -> None:
    """One optimizer step on the whole parameter vector, in place, with the
    gradient vector `grad`: SGD when `opt_state` is None, else Adam, which
    also moves `opt_state`."""
    if opt_state is None:
        sgd_step(params, grad, lr)
    else:
        adam_step(params.flat, params.checked(grad), opt_state, lr)


def sgd_step(params: NetworkParams, grad: np.ndarray, lr: float) -> None:
    """Plain gradient step, in place, at a caller-chosen rate with the
    gradient vector `grad`."""
    params.flat -= lr * params.checked(grad)
