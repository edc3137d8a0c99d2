"""Multi-depth ensemble network over a deep ReLU MLP.

Every hidden layer, plus the raw input, feeds its own softmax head; the
ensemble prediction is the importance-weighted sum of the head outputs.
Head importances are learned multiplicatively from per-head losses, and the
training objective adds a similarity penalty that pulls consecutive hidden
representations together so deep heads do not stall.

Parameter matrices carry their bias as a trailing column, so a layer computes
W @ [h; 1]. With N hidden layers there are N+1 heads: head 0 reads the raw
input, head n reads hidden layer n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .numerics import AdamState, adam_step, cross_entropy, relu, softmax

# Per-head losses are capped before exponentiation so exp(-eta * loss) cannot
# underflow; unreachable in normal operation (the probability floor already
# bounds cross-entropy near 27.6).
HEDGE_LOSS_CAP = 50.0


@dataclass
class NetworkConfig:
    input_dim: int
    classes: int
    hidden_layers: int = 15
    width: int = 30
    eta: float = 0.01          # multiplicative-update rate for head importances
    lam: float = 0.1           # similarity-penalty weight
    lr: float = 0.01
    optimizer: str = "adam"    # "adam" | "sgd"
    weight_floor: float | None = None   # default 1e-4 / (N + 1)

    def __post_init__(self):
        if self.hidden_layers < 1:
            raise ConfigError("need at least one hidden layer")
        if self.width < 1:
            raise ConfigError("hidden width must be >= 1")
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        if self.input_dim < 1:
            raise ConfigError("input dimension must be >= 1")
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.weight_floor is None:
            self.weight_floor = 1e-4 / (self.hidden_layers + 1)
        if self.weight_floor * (self.hidden_layers + 1) >= 1.0:
            raise ConfigError("weight floor too large: floors cannot sum past 1")


class Layout(NamedTuple):
    """Where each matrix of a NetworkParams sits in its vector."""

    n_layers: int
    shapes: tuple       # matrix shapes in matrices() order
    offsets: tuple      # start of each matrix in the vector, then the total size


class NetworkParams:
    """All trainable matrices, or their gradients, in one contiguous float64 vector.

    `flat` holds every matrix back to back in `matrices()` order; `layers`
    (layers[n]: width x (prev_dim + 1), n = 0..N-1) and `heads` (heads[n]:
    classes x (feature_dim + 1), n = 0..N) are reshaped views into it, so a
    write to a matrix writes `flat` and a whole-vector update moves every
    matrix. `NetworkParams(layers, heads)` copies the matrices into a new vector.
    """

    def __init__(self, layers: list, heads: list):
        mats = [np.asarray(m, dtype=np.float64) for m in (*layers, *heads)]
        offsets = [0]
        for m in mats:
            offsets.append(offsets[-1] + m.size)
        layout = Layout(len(layers), tuple(m.shape for m in mats), tuple(offsets))
        self._bind(np.concatenate([m.ravel() for m in mats]), layout)

    def _bind(self, flat: np.ndarray, layout: Layout) -> None:
        self.flat = flat
        self.layout = layout
        bounds = layout.offsets
        self._views = [flat[a:b].reshape(shape)
                       for a, b, shape in zip(bounds, bounds[1:], layout.shapes)]
        self.layers = self._views[:layout.n_layers]
        self.heads = self._views[layout.n_layers:]

    def with_flat(self, flat: np.ndarray) -> "NetworkParams":
        """Same layout, viewing `flat` (not copied)."""
        if flat.shape != self.flat.shape:
            raise InputError(f"vector of shape {flat.shape} for a layout of {self.flat.size}")
        other = NetworkParams.__new__(NetworkParams)
        other._bind(flat, self.layout)
        return other

    def copy(self) -> "NetworkParams":
        return self.with_flat(self.vector().copy())

    def matrices(self) -> list:
        return self.layers + self.heads

    def vector(self) -> np.ndarray:
        """`flat`, once every matrix in `layers` and `heads` is checked to still
        be its view: a matrix replaced by an outside array would be silently
        ignored by a whole-vector update."""
        mats = self.layers + self.heads
        if len(mats) != len(self._views) or not all(map(operator.is_, mats, self._views)):
            raise InputError("a matrix was replaced by an array outside the parameter vector")
        return self.flat


def flat_pair(a: NetworkParams, b: NetworkParams) -> tuple[np.ndarray, np.ndarray]:
    """The vectors of two parameter sets, after checking they share a layout."""
    if a.layout != b.layout:
        raise InputError(f"matrix shapes differ: {list(a.layout.shapes)} vs {list(b.layout.shapes)}")
    return a.vector(), b.vector()


@dataclass
class LayerActivations:
    """Forward-pass record: hidden[0] is the raw input."""

    hidden: list    # h_0 = x, h_1..h_N post-ReLU
    probs: list     # f_0..f_N, one probability vector per head
    augmented: list = field(default_factory=list)   # [h_n; 1] for n = 0..N, from forward


def init_network(config: NetworkConfig, seed: int) -> tuple[NetworkParams, np.ndarray]:
    """Fan-balanced uniform init (biases zero) and uniform head importances."""
    rng = np.random.default_rng(seed)
    d, u, c, n = config.input_dim, config.width, config.classes, config.hidden_layers

    def draw(fan_out, fan_in):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        mat = np.zeros((fan_out, fan_in + 1))
        mat[:, :-1] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        return mat

    layers = [draw(u, d if i == 0 else u) for i in range(n)]
    heads = [draw(c, d)] + [draw(c, u) for _ in range(n)]
    weights = np.full(n + 1, 1.0 / (n + 1))
    return NetworkParams(layers, heads), weights


def forward(params: NetworkParams, x: np.ndarray) -> LayerActivations:
    """Run the ReLU chain and every softmax head.

    Each layer's input sits in one buffer followed by the bias constant 1, and
    each ReLU writes its output into the next such slot, so the augmented
    vectors the heads and `backward` read are never built by appending.
    """
    x = np.asarray(x, dtype=np.float64)
    expected = params.layers[0].shape[1] - 1
    if x.shape != (expected,):
        raise InputError(f"input has shape {x.shape}, expected ({expected},)")
    if not np.all(np.isfinite(x)):
        raise InputError("input contains non-finite values")
    buf = np.ones(expected + 1 + sum(w.shape[0] + 1 for w in params.layers))
    buf[:expected] = x
    augmented = [buf[:expected + 1]]
    hidden = [x]
    start = expected + 1
    for w in params.layers:
        stop = start + w.shape[0]
        hidden.append(relu(w @ augmented[-1], out=buf[start:stop]))
        augmented.append(buf[start:stop + 1])
        start = stop + 1
    probs = [softmax(t @ a) for t, a in zip(params.heads, augmented)]
    return LayerActivations(hidden, probs, augmented)


def predict_ensemble(acts: LayerActivations, weights: np.ndarray) -> np.ndarray:
    """Importance-weighted vote over the heads; a probability vector."""
    return weights @ np.stack(acts.probs)


def _similarity_penalty(hidden: list) -> float:
    """Mean squared distance between consecutive hidden layers (input excluded)."""
    n = len(hidden) - 1
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(1, n):
        diff = hidden[i] - hidden[i + 1]
        total += float(diff @ diff)
    return total / (n - 1)


def total_loss(acts: LayerActivations, weights: np.ndarray, y: int,
               lam: float) -> tuple[float, np.ndarray]:
    """Weighted per-head cross-entropy plus the similarity penalty.

    Returns the scalar objective and the vector of raw per-head losses (the
    input to the multiplicative importance update).
    """
    per_head = np.array([cross_entropy(f, y) for f in acts.probs])
    return float(weights @ per_head + lam * _similarity_penalty(acts.hidden)), per_head


def backward(params: NetworkParams, acts: LayerActivations, weights: np.ndarray,
             y: int, lam: float) -> NetworkParams:
    """Exact gradient of `total_loss` w.r.t. every matrix.

    Head importances are treated as constants. Head n backpropagates into
    layers 1..n scaled by its importance; the similarity penalty contributes
    through both members of each consecutive pair.
    """
    hidden, probs, augmented = acts.hidden, acts.probs, acts.augmented
    n = len(params.layers)
    if not len(weights) == len(probs) == len(augmented) == len(params.heads):
        raise InputError(f"{len(params.heads)} heads, but {len(weights)} importances, "
                         f"{len(probs)} head outputs and {len(augmented)} head inputs "
                         "(activations must come from forward)")
    c = len(probs[0])
    e_y = np.zeros(c)
    e_y[y] = 1.0
    grads = params.with_flat(np.empty_like(params.flat))   # every entry written below

    score_grads = []            # d loss / d head-scores, scaled by importance
    for w_n, f_n, a_n, out in zip(weights, probs, augmented, grads.heads):
        g = w_n * (f_n - e_y)
        score_grads.append(g)
        np.outer(g, a_n, out=out)

    sim_coef = 2.0 * lam / (n - 1) if n >= 2 else 0.0
    carry = np.zeros_like(hidden[n])   # gradient flowing into h_n from above
    for i in range(n, 0, -1):          # hidden layer i, weight matrix layers[i-1]
        g_h = params.heads[i][:, :-1].T @ score_grads[i] + carry
        if sim_coef:
            if i <= n - 1:
                g_h = g_h + sim_coef * (hidden[i] - hidden[i + 1])
            if i >= 2:
                g_h = g_h + sim_coef * (hidden[i] - hidden[i - 1])
        delta = g_h * (hidden[i] > 0)
        np.outer(delta, augmented[i - 1], out=grads.layers[i - 1])
        if i > 1:
            carry = params.layers[i - 1][:, :-1].T @ delta
    return grads


def _floor_and_renormalize(raw: np.ndarray, floor: float) -> np.ndarray:
    """Project onto the simplex with a per-entry lower bound.

    Entries at the floor are pinned there; the rest share the remaining mass
    proportionally. Iterates because renormalization can push new entries
    below the floor.
    """
    n = len(raw)
    fixed = np.zeros(n, dtype=bool)
    for _ in range(n):
        free = ~fixed
        free_mass = 1.0 - floor * np.count_nonzero(fixed)
        scaled = np.where(fixed, floor, raw * (free_mass / raw[free].sum()))
        below = free & (scaled < floor)
        if not below.any():
            return scaled
        fixed |= below
    return np.full(n, 1.0 / n)   # unreachable while floor * n < 1


def hedge_update(weights: np.ndarray, per_head_losses: np.ndarray, eta: float,
                 weight_floor: float) -> np.ndarray:
    """Discount each head importance by exp(-eta * loss), floor, renormalize."""
    capped = np.minimum(per_head_losses, HEDGE_LOSS_CAP)
    raw = weights * np.exp(-eta * capped)
    return _floor_and_renormalize(raw, weight_floor)


def init_opt_state(params: NetworkParams, config: NetworkConfig) -> AdamState | None:
    """None for SGD; for Adam one AdamState over the whole parameter vector."""
    if config.optimizer == "sgd":
        return None
    return AdamState.zeros_like(params.flat)


def apply_update(params: NetworkParams, grads: NetworkParams, opt_state: AdamState | None,
                 config: NetworkConfig) -> tuple[NetworkParams, AdamState | None]:
    """One optimizer step on the whole parameter vector."""
    if config.optimizer == "sgd":
        return sgd_step(params, grads, config.lr), opt_state
    p, g = flat_pair(params, grads)
    stepped, state = adam_step(p, g, opt_state, config.lr)
    return params.with_flat(stepped), state


def sgd_step(params: NetworkParams, grads: NetworkParams, lr: float) -> NetworkParams:
    """Plain gradient step at a caller-chosen rate."""
    p, g = flat_pair(params, grads)
    return params.with_flat(p - lr * g)
