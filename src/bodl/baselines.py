"""Classic first-order linear online classifiers used for comparison runs.

All of them share one step interface: predict from the current weights, then
update. Multiclass is handled one-vs-rest; confidence-based methods keep a
diagonal covariance per class. Features are augmented with a trailing bias
constant, so weight vectors have length input_dim + 1.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DivergenceError, InputError

C = 1.0                            # PA and SCW: cap on one step's size
PHI = NormalDist().inv_cdf(0.9)    # CW and SCW: the 0.9 confidence quantile
PSI = 1.0 + PHI ** 2 / 2.0         # SCW's derived constants
ZETA = 1.0 + PHI ** 2
R = 1.0                            # AROW: regularization


class LinearBaseline:
    """Shared one-vs-rest scaffolding. `step` updates every class in one pass:
    it runs the subclass's binary `_rule` on Python floats over the class
    list and fills a coefficient buffer, one row per class to update. When
    every class updates, `_write` works in place on w (and sigma) through
    operands bound at construction by `_operands`. When only some do, their
    rows are gathered through one fancy index, written the same way and
    scattered back, so the other rows keep their bits."""

    stack = 1    # per-class vectors held: w, then sigma for CW, AROW and SCW
    width = 1    # coefficients per updated class: 2 for ROMMA, CW, AROW and SCW

    def __init__(self, input_dim: int, classes: int):
        if input_dim < 1 or classes < 2:
            raise ConfigError("need input_dim >= 1 and classes >= 2")
        self.input_dim = input_dim
        self.classes = classes
        # w (and sigma) are views of one (stack, classes, d+1) array, and
        # [x; 1] (and its square) rows of one buffer made once, so one matmul
        # gives every w[c] @ xa (and sigma[c] @ (xa * xa)) as the same ddot
        self._state = np.zeros((self.stack, classes, input_dim + 1))
        self._w = self._state[0]
        self._xs = np.ones((self.stack, input_dim + 1))
        self._xa, self._xsq = self._xs[0], self._xs[-1]
        self._pairs = (self._state[:, :, None, :], self._xs[:, None, :, None])
        # _write's operands when every class updates, bound once
        self._coefs = np.empty(classes * self.width)    # filled from one flat list
        self._scratch = np.empty((self.stack + 1, classes, input_dim + 1))
        columns = self._coefs.reshape(classes, -1).T[:, :, None]
        self._full = self._operands(self._state, columns, self._scratch)

    @property
    def w(self) -> np.ndarray:
        """The (classes, d+1) weights: a view of the state, written in place."""
        return self._w

    def step(self, x: np.ndarray, y: int, position: int = -1) -> int:
        """Predict from pre-update weights, then learn; returns the prediction.
        Raises InputError for a non-finite feature, and DivergenceError(position)
        if a score is not finite otherwise, both before any update."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise InputError(f"feature shape {x.shape}, expected ({self.input_dim},)")
        if not 0 <= y < self.classes:
            raise InputError(f"label {y} outside 0..{self.classes - 1}")
        xa = self._xa
        xa[:-1] = x
        if self.stack == 2:
            np.multiply(xa, xa, out=self._xsq)
        # every w[c] @ xa, the scores, then (CW, AROW, SCW) every sigma[c] @ (xa * xa)
        dots, k = np.matmul(*self._pairs).ravel().tolist(), self.classes
        scores = dots[:k]
        if not all(map(math.isfinite, scores)):
            if not np.isfinite(x).all():
                raise InputError(f"non-finite feature at stream position {position}")
            raise DivergenceError(position)
        pred = scores.index(max(scores))   # first maximum, as np.argmax
        self._begin()
        rule, rows, coefs = self._rule, [], []
        for c, m, v in zip(range(k), dots, dots[k:] or dots):
            coef = rule(c, 1.0 if c == y else -1.0, m, v)
            if coef is not None:
                rows.append(c)
                coefs += coef
        n = len(rows)
        if n == k:
            self._coefs[:] = coefs
            self._write(*self._full)
        elif n:
            coefs_n, state_n = self._coefs[:len(coefs)], self._state[:, rows]
            coefs_n[:] = coefs
            columns = coefs_n.reshape(n, -1).T[:, :, None]
            self._write(*self._operands(state_n, columns, self._scratch[:, :n]))
            self._state[:, rows] = state_n
        return pred

    def _begin(self) -> None:
        """Per-step values the rule reads, set before the class loop."""

    def _rule(self, c: int, yc: float, m: float, v: float) -> tuple | None:
        """Class c's update coefficients at sign yc, margin m = w[c] @ xa and
        variance v = sigma[c] @ (xa * xa) (CW, AROW, SCW; m again, unused, for
        the others), or None to leave the class as it is."""
        raise NotImplementedError

    def _operands(self, state, columns, scratch) -> tuple:
        """`_write`'s arguments for the rows to update, given their (stack, n,
        d+1) state, (width, n, 1) coefficient columns and (stack + 1, n, d+1)
        scratch: each state row, each column, then two scratch rows."""
        return (*state, *columns, *scratch[:2])

    def _write(self, w, coef, t, _) -> None:
        """w[c] += coef * xa in place for each row of w, the rows to update:
        coef is their (n, 1) coefficient column, then two (n, d+1) scratch rows."""
        w += np.multiply(coef, self._xa, out=t)


class Perceptron(LinearBaseline):
    """Mistake-driven: w += y*x on wrongly signed margins."""

    def _rule(self, c, yc, m, v):
        return (yc,) if yc * m <= 0.0 else None


class OGD(LinearBaseline):
    """Gradient descent on the hinge loss with a 1/sqrt(t) step schedule."""

    def __init__(self, input_dim, classes, lr: float = 0.01):
        super().__init__(input_dim, classes)
        self.lr = lr
        self.t = 0

    def _begin(self):
        self.t += 1
        self._rate = self.lr / math.sqrt(self.t)

    def _rule(self, c, yc, m, v):
        return (self._rate * yc,) if yc * m < 1.0 else None


class PA(LinearBaseline):
    """Passive-aggressive: jump to the margin-1 boundary, step capped at C."""

    def _begin(self):
        self._a = float(self._xa @ self._xa)

    def _rule(self, c, yc, m, v):
        loss = max(0.0, 1.0 - yc * m)
        return (min(C, loss / self._a) * yc,) if loss > 0.0 else None


class ROMMA(LinearBaseline):
    """Relaxed maximum-margin projection update on mistakes."""

    width = 2    # (coef_w, coef_x): w[c] <- coef_w * w[c] + coef_x * xa

    def _begin(self):
        w = self._w
        self._a = float(self._xa @ self._xa)
        self._norms = np.matmul(w[:, None, :], w[:, :, None]).ravel().tolist()   # w[c] @ w[c]

    def _rule(self, c, yc, m, v):
        if yc * m > 0.0:
            return None
        a, b = self._a, self._norms[c]
        denom = a * b - m * m
        if b == 0.0 or denom <= 1e-12 * a * b:
            # degenerate (zero weights or x parallel to w): plain mistake
            # step, w + yc * xa, as 1.0 * w is w
            return 1.0, yc
        return (a * b - yc * m) / denom, b * (yc - m) / denom

    def _write(self, w, coef_w, coef_x, t, _):
        np.multiply(coef_w, w, out=w)
        w += np.multiply(coef_x, self._xa, out=t)


class ConfidenceBaseline(LinearBaseline):
    """Adds a diagonal variance per class, one entry per augmented feature.
    Its `_write` is AROW's and SCW's: given one row (step, -beta) per class,
    with sx = sigma[c] * xa, w[c] += step * sx and sigma[c] += -beta * sx * sx,
    which is sigma[c] - beta * sx * sx to the bit. It writes w and sigma as
    one stacked state."""

    stack = width = 2

    def __init__(self, input_dim, classes):
        super().__init__(input_dim, classes)
        self._sigma = self._state[1]
        self._sigma.fill(1.0)

    @property
    def sigma(self) -> np.ndarray:
        """The (classes, d+1) variances: a view of the state, written in place."""
        return self._sigma

    def _operands(self, state, columns, scratch):
        return state, columns, scratch[0], scratch[1:]    # sx, then t stacked as the state

    def _write(self, state, coefs, sx, t):
        np.multiply(state[1], self._xa, out=sx)
        np.multiply(coefs, sx, out=t)       # step * sx, then -beta * sx
        t[1] *= sx
        state += t


class CW(ConfidenceBaseline):
    """Confidence-weighted learning, diagonal variance variant."""

    def _rule(self, c, yc, m, v):
        phi = PHI
        m = yc * m
        disc = (1.0 + 2.0 * phi * m) ** 2 - 8.0 * phi * (m - phi * v)
        gamma = (-(1.0 + 2.0 * phi * m) + math.sqrt(disc)) / (4.0 * phi * v)
        alpha = max(0.0, gamma)
        return (alpha * yc, 2.0 * alpha * phi) if alpha > 0.0 else None

    _operands = LinearBaseline._operands

    def _write(self, w, sigma, step, gain, t, u):
        xa = self._xa    # sigma <- 1 / (1 / sigma + gain * xa * xa)
        w += np.multiply(np.multiply(step, sigma, out=t), xa, out=t)
        np.multiply(np.multiply(gain, xa, out=u), xa, out=u)
        np.divide(1.0, sigma, out=sigma)
        sigma += u
        np.divide(1.0, sigma, out=sigma)


class AROW(ConfidenceBaseline):
    """Adaptive regularization of weights, diagonal covariance."""

    def _rule(self, c, yc, m, v):
        loss = 1.0 - yc * m
        if loss <= 0.0:
            return None
        beta = 1.0 / (v + R)
        return loss * beta * yc, -beta


class SCW(ConfidenceBaseline):
    """Soft confidence-weighted (variant I), diagonal covariance."""

    def _rule(self, c, yc, m, v):
        phi, psi, zeta = PHI, PSI, ZETA
        m = yc * m
        if phi * math.sqrt(v) - m <= 0.0:
            return None
        alpha = min(C, max(0.0, (-m * psi + math.sqrt(
            m * m * phi ** 4 / 4.0 + v * phi * phi * zeta)) / (v * zeta)))
        if alpha <= 0.0:
            return None
        sqrt_u = 0.5 * (-alpha * v * phi + math.sqrt(alpha * alpha * v * v * phi * phi + 4.0 * v))
        return alpha * yc, -(alpha * phi / (sqrt_u + v * alpha * phi))


BASELINES = {
    "perceptron": Perceptron,
    "romma": ROMMA,
    "ogd": OGD,
    "pa": PA,
    "cw": CW,
    "arow": AROW,
    "scw": SCW,
}
