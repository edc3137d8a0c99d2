"""Independent reference implementations used as ground truth by the tests.

Everything here is deliberately written against plain Python floats and lists
(or, for the finite-difference helper, direct perturbation of the objective)
so that a bug in the library cannot hide in a shared code path.
"""

import math

import numpy as np

from bodl.baselines import C, PHI, PSI, R, ZETA
from bodl.errors import ConfigError, DivergenceError, InputError
from bodl.hedge_net import NetworkParams
from bodl.streams import SEA_THRESHOLDS, StreamInstance, StreamSource


def scalar_softmax(values):
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def scalar_cross_entropy(dist, label, clip=1e-12):
    return -math.log(max(dist[label], clip))


def scalar_adam_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update of a single scalar parameter."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return param - lr * m_hat / (math.sqrt(v_hat) + eps), m, v


def finite_difference_grads(objective, mats, step=1e-5):
    """Central differences of a scalar objective w.r.t. every matrix entry.

    ``objective`` is a zero-argument callable reading the matrices in place.
    """
    grads = []
    for mat in mats:
        g = np.zeros_like(mat)
        for idx in np.ndindex(*mat.shape):
            orig = mat[idx]
            mat[idx] = orig + step
            hi = objective()
            mat[idx] = orig - step
            lo = objective()
            mat[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    """Worst elementwise relative error, denominator floored at 1e-8."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def drift_decisions(bits, t_min=30, k=3.0):
    """Status sequence of the error-rate monitor, running sums throughout.

    Tracks the error probability p = errors/n and its standard error, records
    the minimum of p + s once n reaches t_min, and flags a drift when p + s
    exceeds the recorded minimum by k standard errors. Resets itself after
    each drift, mirroring how the harness drives the detector.
    """
    out = []
    errors = 0
    n = 0
    min_rate = math.inf
    min_std = math.inf
    for bit in bits:
        n += 1
        errors += bit
        p = errors / n
        s = math.sqrt(p * (1.0 - p) / n)
        status = "stable"
        if n >= t_min:
            if p + s < min_rate + min_std:
                min_rate, min_std = p, s
            if p + s > min_rate + k * min_std:
                status = "drift"
        out.append(status)
        if status == "drift":
            errors = 0
            n = 0
            min_rate = math.inf
            min_std = math.inf
    return out


def scalar_arow(stream, dim, classes, r=1.0):
    """Pure-python one-vs-rest AROW with a diagonal variance per class.

    ``stream`` is a list of (feature list, label) pairs. Returns the per-step
    predictions and, per step, deep copies of the weight and variance tables.
    """
    w = [[0.0] * (dim + 1) for _ in range(classes)]
    sig = [[1.0] * (dim + 1) for _ in range(classes)]
    preds = []
    trajectory = []
    for x, y in stream:
        xa = list(x) + [1.0]
        scores = [sum(wc[i] * xa[i] for i in range(dim + 1)) for wc in w]
        best = 0
        for c in range(1, classes):
            if scores[c] > scores[best]:
                best = c
        preds.append(best)
        for c in range(classes):
            yc = 1.0 if c == y else -1.0
            m = sum(w[c][i] * xa[i] for i in range(dim + 1))
            if 1.0 - yc * m <= 0.0:
                continue
            v = sum(sig[c][i] * xa[i] * xa[i] for i in range(dim + 1))
            beta = 1.0 / (v + r)
            alpha = (1.0 - yc * m) * beta
            for i in range(dim + 1):
                sx = sig[c][i] * xa[i]
                w[c][i] += alpha * yc * sx
                sig[c][i] -= beta * sx * sx
        trajectory.append(([row[:] for row in w], [row[:] for row in sig]))
    return preds, trajectory


# ---------------------------------------------------------------------------
# Tiny 1-input / 1-hidden-unit / 2-class network, fully scalar. Parameters:
# layer = [w, b]; head0, head1 = [[w, b], [w, b]] reading the raw input and
# the hidden unit respectively. Used to hand-trace the drift adaptation.

def tiny_net_grads(layer, head0, head1, wts, x, y):
    """Loss and exact gradients of the ensemble objective on one instance.

    A single hidden layer has no representation pair, so there is no
    similarity term; the loss is the importance-weighted cross-entropy.
    """
    w, b = layer
    z = w * x + b
    h = z if z > 0.0 else 0.0
    f0 = scalar_softmax([head0[0][0] * x + head0[0][1], head0[1][0] * x + head0[1][1]])
    f1 = scalar_softmax([head1[0][0] * h + head1[0][1], head1[1][0] * h + head1[1][1]])
    loss = wts[0] * scalar_cross_entropy(f0, y) + wts[1] * scalar_cross_entropy(f1, y)
    e = [1.0 if c == y else 0.0 for c in (0, 1)]
    g0 = [wts[0] * (f0[c] - e[c]) for c in (0, 1)]
    g1 = [wts[1] * (f1[c] - e[c]) for c in (0, 1)]
    d_head0 = [[g0[c] * x, g0[c]] for c in (0, 1)]
    d_head1 = [[g1[c] * h, g1[c]] for c in (0, 1)]
    dh = g1[0] * head1[0][0] + g1[1] * head1[1][0]
    dz = dh if h > 0.0 else 0.0
    d_layer = [dz * x, dz]
    return loss, d_layer, d_head0, d_head1


def _tiny_step(theta, grads, rate):
    d_layer, d_head0, d_head1 = grads
    layer = [theta[0][j] - rate * d_layer[j] for j in range(2)]
    head0 = [[theta[1][c][j] - rate * d_head0[c][j] for j in range(2)] for c in range(2)]
    head1 = [[theta[2][c][j] - rate * d_head1[c][j] for j in range(2)] for c in range(2)]
    return [layer, head0, head1]


def tiny_net_adaptation(layer, head0, head1, wts, recent, memory, mu, gamma,
                        inner_steps):
    """Hand-traced drift adaptation on the tiny network.

    Inner refinement cycles the recent instances one at a time at rate mu;
    the look-ahead copy takes one further step on the mean gradient over the
    memory instances; the result interpolates from the original parameters
    toward the look-ahead copy with weight gamma. Returns the final and the
    look-ahead [layer, head0, head1] nested lists.
    """
    theta = [layer[:], [r[:] for r in head0], [r[:] for r in head1]]
    for i in range(inner_steps):
        x, y = recent[i % len(recent)]
        _, dl, dh0, dh1 = tiny_net_grads(theta[0], theta[1], theta[2], wts, x, y)
        theta = _tiny_step(theta, (dl, dh0, dh1), mu)

    acc_l = [0.0, 0.0]
    acc_h0 = [[0.0, 0.0], [0.0, 0.0]]
    acc_h1 = [[0.0, 0.0], [0.0, 0.0]]
    for x, y in memory:
        _, dl, dh0, dh1 = tiny_net_grads(theta[0], theta[1], theta[2], wts, x, y)
        for j in range(2):
            acc_l[j] += dl[j]
            for c in range(2):
                acc_h0[c][j] += dh0[c][j]
                acc_h1[c][j] += dh1[c][j]
    scale = 1.0 / len(memory)
    for j in range(2):
        acc_l[j] *= scale
        for c in range(2):
            acc_h0[c][j] *= scale
            acc_h1[c][j] *= scale
    target = _tiny_step(theta, (acc_l, acc_h0, acc_h1), mu)

    blend = lambda a, b: (1.0 - gamma) * a + gamma * b
    original = [layer, head0, head1]
    final_layer = [blend(original[0][j], target[0][j]) for j in range(2)]
    final_head0 = [[blend(original[1][c][j], target[1][c][j]) for j in range(2)]
                   for c in range(2)]
    final_head1 = [[blend(original[2][c][j], target[2][c][j]) for j in range(2)]
                   for c in range(2)]
    return [final_layer, final_head0, final_head1], target


def reservoir_final_positions(seed, capacity, offers):
    """Vectorized replay of the reservoir's slot draws for one seed.

    Consumes the generator exactly like the memory does (one bounded integer
    draw per post-fill offer) and returns the sorted stream positions that
    survive. Validated against the real implementation by the tests that
    use it.
    """
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, np.arange(capacity + 1, offers + 1))
    occupant = np.arange(capacity)
    hit = np.nonzero(draws < capacity)[0]
    positions = hit + capacity
    slots = draws[hit]
    # later landings overwrite earlier ones: keep the last hit per slot
    uniq, last_from_rev = np.unique(slots[::-1], return_index=True)
    occupant[uniq] = positions[::-1][last_from_rev]
    return np.sort(occupant)


# ---------------------------------------------------------------------------
# The network learner with every matrix in its own array: the bias constant
# appended to each layer input, Adam and SGD applied matrix by matrix, the
# drift adaptation over lists. The library keeps all matrices as views of one
# vector but performs the same elementwise operations on the same matmul
# operands, so its results must equal these bit for bit.

def list_softmax(v):
    e = np.exp(v - np.max(v))
    return e / np.sum(e)


def list_forward(layers, heads, x):
    """Hidden activations (input first) and per-head probability vectors."""
    hidden = [x]
    for w in layers:
        hidden.append(np.maximum(w @ np.append(hidden[-1], 1.0), 0.0))
    probs = [list_softmax(t @ np.append(h, 1.0)) for t, h in zip(heads, hidden)]
    return hidden, probs


def list_total_loss(hidden, probs, weights, y, lam, clip=1e-12):
    """Weighted per-head cross-entropy plus the mean consecutive-layer distance."""
    per_head = np.array([-np.log(max(float(f[y]), clip)) for f in probs])
    n = len(hidden) - 1
    penalty = 0.0
    if n >= 2:
        for i in range(1, n):
            diff = hidden[i] - hidden[i + 1]
            penalty += float(diff @ diff)
        penalty /= n - 1
    return float(weights @ per_head + lam * penalty), per_head


def list_backward(layers, heads, hidden, probs, weights, y, lam):
    """Gradients of `list_total_loss` as (layer grads, head grads)."""
    n = len(layers)
    e_y = np.zeros(len(probs[0]))
    e_y[y] = 1.0
    head_grads, score_grads = [], []
    for w_n, f_n, h_n in zip(weights, probs, hidden):
        g = w_n * (f_n - e_y)
        score_grads.append(g)
        head_grads.append(np.outer(g, np.append(h_n, 1.0)))
    sim_coef = 2.0 * lam / (n - 1) if n >= 2 else 0.0
    layer_grads = [None] * n
    carry = np.zeros_like(hidden[n])
    for i in range(n, 0, -1):
        g_h = heads[i][:, :-1].T @ score_grads[i] + carry
        if sim_coef:
            if i <= n - 1:
                g_h = g_h + sim_coef * (hidden[i] - hidden[i + 1])
            if i >= 2:
                g_h = g_h + sim_coef * (hidden[i] - hidden[i - 1])
        delta = g_h * (hidden[i] > 0)
        layer_grads[i - 1] = np.outer(delta, np.append(hidden[i - 1], 1.0))
        if i > 1:
            carry = layers[i - 1][:, :-1].T @ delta
    return layer_grads, head_grads


def list_adam_step(mats, grads, states, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam on each matrix; `states` holds one (m, v, t) per matrix."""
    new_mats, new_states = [], []
    for p, g, (m, v, t) in zip(mats, grads, states):
        t += 1
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_mats.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_states.append((m, v, t))
    return new_mats, new_states


def list_sgd_step(mats, grads, lr):
    return [p - lr * g for p, g in zip(mats, grads)]


def list_adapt_on_drift(mats, n_layers, recent, batch, weights, lam, mu, gamma,
                        inner_steps):
    """Inner steps on `recent`, one mean-gradient step on `batch`, then the
    interpolation. `recent` and `batch` are (features, label) lists. Returns
    (final matrices, loss before, loss after, shift norm)."""
    def grads_of(ms, x, y):
        layers, heads = ms[:n_layers], ms[n_layers:]
        hidden, probs = list_forward(layers, heads, x)
        lg, hg = list_backward(layers, heads, hidden, probs, weights, y, lam)
        return lg + hg

    def mean_loss(ms):
        total = 0.0
        for x, y in recent:
            hidden, probs = list_forward(ms[:n_layers], ms[n_layers:], x)
            total += list_total_loss(hidden, probs, weights, y, lam)[0]
        return total / len(recent)

    adapted = [m.copy() for m in mats]
    for i in range(inner_steps):
        x, y = recent[i % len(recent)]
        adapted = list_sgd_step(adapted, grads_of(adapted, x, y), mu)
    acc = None
    for x, y in batch:
        g = grads_of(adapted, x, y)
        acc = g if acc is None else [a + b for a, b in zip(acc, g)]
    scale = 1.0 / len(batch)
    target = list_sgd_step(adapted, [a * scale for a in acc], mu)
    final = [(1.0 - gamma) * a + gamma * b for a, b in zip(mats, target)]
    shift = 0.0
    for a, b in zip(target, mats):
        diff = a - b
        shift += float(np.sum(diff * diff))
    return final, mean_loss(mats), mean_loss(adapted), float(np.sqrt(shift))


# ---------------------------------------------------------------------------
# The per-instance helpers as they were before their fast paths: every head
# importance update goes through the whole floored-simplex projection from an
# unpinned start, init draws a list of matrices and copies it, and the
# standardizer builds its statistics out of place. The library must return the
# same bits.

def reference_hedge_update(weights, per_head_losses, eta, floor, cap):
    """Cap, exponentiate, then always project onto the floored simplex."""
    raw = weights * np.exp(-eta * np.minimum(per_head_losses, cap))
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
    return np.full(n, 1.0 / n)


def reference_init_network(dims, seed):
    """Every matrix drawn as its own array, layers 1..N then heads 0..N, and
    the list copied into one vector by `NetworkParams(layers, heads)`."""
    d, u, c, n = dims
    rng = np.random.default_rng(seed)

    def draw(fan_out, fan_in):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        mat = np.zeros((fan_out, fan_in + 1))
        mat[:, :-1] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        return mat

    layers = [draw(u, d if i == 0 else u) for i in range(n)]
    heads = [draw(c, d)] + [draw(c, u) for _ in range(n)]
    return NetworkParams(layers, heads), np.full(n + 1, 1.0 / (n + 1))


class ReferenceStandardizer:
    """Running z-scoring with every statistic rebuilt as a new array."""

    def __init__(self, dim):
        self.dim, self.count = dim, 0
        self.mean, self._m2 = np.zeros(dim), np.zeros(dim)

    def standardize(self, x):
        if self.count == 0:
            z = np.zeros(self.dim)
        else:
            var = self._m2 / self.count
            denom = np.where(var > 0.0, np.maximum(np.sqrt(var), 1e-8), 1.0)
            z = (x - self.mean) / denom
        self.count += 1
        delta = x - self.mean
        self.mean = self.mean + delta / self.count
        self._m2 = self._m2 + delta * (x - self.mean)
        return z


# ---------------------------------------------------------------- linear baselines
# The one-vs-rest baselines as a plain per-class loop: [x; 1] from np.append,
# then one `_update_binary` per class with its own index, dot and multiply
# calls. `bodl.baselines` updates every class in one pass and must match this
# loop bit for bit.


class LoopLinearBaseline:
    """Shared one-vs-rest scaffolding; subclasses implement the binary update."""

    def __init__(self, input_dim: int, classes: int):
        if input_dim < 1 or classes < 2:
            raise ConfigError("need input_dim >= 1 and classes >= 2")
        self.input_dim = input_dim
        self.classes = classes
        self.w = np.zeros((classes, input_dim + 1))

    def step(self, x: np.ndarray, y: int, position: int = -1) -> int:
        """Predict from pre-update weights, then learn; returns the prediction.
        Raises DivergenceError(position) before any update if a score is not
        finite."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise InputError(f"feature shape {x.shape}, expected ({self.input_dim},)")
        if not 0 <= y < self.classes:
            raise InputError(f"label {y} outside 0..{self.classes - 1}")
        xa = np.append(x, 1.0)
        # each score is the class's own dot, the margin its update reads: a
        # gemv over all rows may round differently (FMA, blocking)
        scores = [float(self.w[c] @ xa) for c in range(self.classes)]
        if not all(map(math.isfinite, scores)):
            raise DivergenceError(position)
        pred = scores.index(max(scores))   # first maximum, as np.argmax
        self._begin_update()
        for c in range(self.classes):
            self._update_binary(c, xa, 1.0 if c == y else -1.0)
        return pred

    def _begin_update(self) -> None:
        pass

    def _update_binary(self, c: int, xa: np.ndarray, yc: float) -> None:
        raise NotImplementedError


class LoopPerceptron(LoopLinearBaseline):
    """Mistake-driven: w += y*x on wrongly signed margins."""

    def _update_binary(self, c, xa, yc):
        if yc * float(self.w[c] @ xa) <= 0.0:
            self.w[c] += yc * xa


class LoopOGD(LoopLinearBaseline):
    """Gradient descent on the hinge loss with a 1/sqrt(t) step schedule."""

    def __init__(self, input_dim, classes, lr: float = 0.01):
        super().__init__(input_dim, classes)
        self.lr = lr
        self.t = 0

    def _begin_update(self):
        self.t += 1

    def _update_binary(self, c, xa, yc):
        if yc * float(self.w[c] @ xa) < 1.0:
            self.w[c] += (self.lr / math.sqrt(self.t)) * yc * xa


class LoopPA(LoopLinearBaseline):
    """Passive-aggressive: jump to the margin-1 boundary, step capped at C."""

    def _update_binary(self, c, xa, yc):
        loss = max(0.0, 1.0 - yc * float(self.w[c] @ xa))
        if loss > 0.0:
            tau = min(C, loss / float(xa @ xa))
            self.w[c] += tau * yc * xa


class LoopROMMA(LoopLinearBaseline):
    """Relaxed maximum-margin projection update on mistakes."""

    def _update_binary(self, c, xa, yc):
        w = self.w[c]
        m = float(w @ xa)
        if yc * m > 0.0:
            return
        a = float(xa @ xa)
        b = float(w @ w)
        denom = a * b - m * m
        if b == 0.0 or denom <= 1e-12 * a * b:
            # degenerate (zero weights or x parallel to w): plain mistake step
            self.w[c] = w + yc * xa
            return
        coef_w = (a * b - yc * m) / denom
        coef_x = b * (yc - m) / denom
        self.w[c] = coef_w * w + coef_x * xa


class LoopConfidenceBaseline(LoopLinearBaseline):
    """Adds a diagonal variance per class, one entry per augmented feature."""

    def __init__(self, input_dim, classes):
        super().__init__(input_dim, classes)
        self.sigma = np.ones((classes, input_dim + 1))


class LoopCW(LoopConfidenceBaseline):
    """Confidence-weighted learning, diagonal variance variant."""

    def _update_binary(self, c, xa, yc):
        phi = PHI
        m = yc * float(self.w[c] @ xa)
        v = float(self.sigma[c] @ (xa * xa))
        disc = (1.0 + 2.0 * phi * m) ** 2 - 8.0 * phi * (m - phi * v)
        gamma = (-(1.0 + 2.0 * phi * m) + math.sqrt(disc)) / (4.0 * phi * v)
        alpha = max(0.0, gamma)
        if alpha > 0.0:
            self.w[c] += alpha * yc * self.sigma[c] * xa
            self.sigma[c] = 1.0 / (1.0 / self.sigma[c] + 2.0 * alpha * phi * xa * xa)


class LoopAROW(LoopConfidenceBaseline):
    """Adaptive regularization of weights, diagonal covariance."""

    def _update_binary(self, c, xa, yc):
        m = float(self.w[c] @ xa)
        if 1.0 - yc * m <= 0.0:
            return
        v = float(self.sigma[c] @ (xa * xa))
        beta = 1.0 / (v + R)
        alpha = (1.0 - yc * m) * beta
        sx = self.sigma[c] * xa
        self.w[c] += alpha * yc * sx
        self.sigma[c] -= beta * sx * sx


class LoopSCW(LoopConfidenceBaseline):
    """Soft confidence-weighted (variant I), diagonal covariance."""

    def _update_binary(self, c, xa, yc):
        phi, psi, zeta = PHI, PSI, ZETA
        m = yc * float(self.w[c] @ xa)
        v = float(self.sigma[c] @ (xa * xa))
        if phi * math.sqrt(v) - m <= 0.0:
            return
        alpha = min(C, max(0.0, (-m * psi + math.sqrt(
            m * m * phi ** 4 / 4.0 + v * phi * phi * zeta)) / (v * zeta)))
        if alpha <= 0.0:
            return
        sqrt_u = 0.5 * (-alpha * v * phi + math.sqrt(alpha * alpha * v * v * phi * phi + 4.0 * v))
        beta = alpha * phi / (sqrt_u + v * alpha * phi)
        sx = self.sigma[c] * xa
        self.w[c] += alpha * yc * sx
        self.sigma[c] -= beta * sx * sx


LOOP_BASELINES = {
    "perceptron": LoopPerceptron,
    "romma": LoopROMMA,
    "ogd": LoopOGD,
    "pa": LoopPA,
    "cw": LoopCW,
    "arow": LoopAROW,
    "scw": LoopSCW,
}


# ---------------------------------------------------------------- stream generators
# The drift generators one instance at a time: one `uniform(size=d)` call, one
# `w @ x` and, with noise, one `random()` per instance. `bodl.streams` draws a
# segment at a time and must match this loop bit for bit. Arguments are taken
# as already validated.


def loop_drift_stream(kind, segments, noise=0.0, dim=None, seed=0, mode="redraw"):
    if dim is None:
        dim = 3 if kind == "sea" else 8
    rng = np.random.default_rng(seed)
    instances = []
    w = None
    pos = 0
    for seg_idx, seg_len in enumerate(segments):
        if kind == "sea":
            threshold = SEA_THRESHOLDS[seg_idx % len(SEA_THRESHOLDS)]
        else:
            if w is None or mode == "redraw":
                w = rng.standard_normal(dim)
            else:
                w = -w
        for _ in range(int(seg_len)):
            if kind == "sea":
                x = rng.uniform(0.0, 10.0, size=dim)
                label = 1 if x[0] + x[1] <= threshold else 0
            else:
                x = rng.uniform(-1.0, 1.0, size=dim)
                label = 1 if float(w @ x) >= 0.0 else 0
            if noise > 0.0 and rng.random() < noise:
                label = 1 - label
            instances.append(StreamInstance(x, label, pos))
            pos += 1
    desc = f"{kind}:seg={','.join(str(int(s)) for s in segments)};noise={noise};seed={seed}"
    if kind == "hyperplane":
        desc += f";d={dim};mode={mode}"
    return StreamSource(instances, dim, 2, desc, ["0", "1"])
