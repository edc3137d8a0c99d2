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
    each subclass's `_update` runs its binary rule on Python floats over the
    class list and writes the updated rows with one array expression per
    vector."""

    stack = 1    # per-class vectors held: w, then sigma for CW, AROW and SCW

    def __init__(self, input_dim: int, classes: int):
        if input_dim < 1 or classes < 2:
            raise ConfigError("need input_dim >= 1 and classes >= 2")
        self.input_dim = input_dim
        self.classes = classes
        # w (and sigma) are views of one (stack, classes, d+1) array, and
        # [x; 1] (and its square) rows of one buffer made once, so one matmul
        # gives every w[c] @ xa (and sigma[c] @ (xa * xa)) as the same ddot
        self._state = np.zeros((self.stack, classes, input_dim + 1))
        self.w = self._state[0]
        self._xs = np.ones((self.stack, input_dim + 1))
        self._xa = self._xs[0]
        self._pairs = (self._state[:, :, None, :], self._xs[:, None, :, None])

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
        # a gemv, whose bits may differ from the per-class ddot of the update
        scores = self.w.dot(xa).tolist()
        if not math.isfinite(sum(scores)):
            if not np.isfinite(x).all():
                raise InputError(f"non-finite feature at stream position {position}")
            raise DivergenceError(position)
        pred = scores.index(max(scores))   # first maximum, as np.argmax
        if self.stack == 2:
            np.multiply(xa, xa, out=self._xs[1])
        self._update(np.matmul(*self._pairs).ravel().tolist(), y)
        return pred

    def _update(self, dots: list, y: int) -> None:
        """Learn from label y, given every w[c] @ xa and then (CW, AROW, SCW)
        every sigma[c] @ (xa * xa)."""
        raise NotImplementedError

    def _select(self, rows: list) -> list | slice:
        """The listed classes as an index: a slice when they are all of them,
        as a basic index costs a fraction of a fancy one."""
        return slice(None) if len(rows) == self.classes else rows

    def _add(self, rows: list, coefs: list) -> None:
        """w[c] += coef * xa for each listed class; the others keep their bits."""
        if rows:
            self.w[self._select(rows)] += np.array(coefs)[:, None] * self._xa


class Perceptron(LinearBaseline):
    """Mistake-driven: w += y*x on wrongly signed margins."""

    def _update(self, dots, y):
        rows, coefs = [], []
        for c, m in enumerate(dots):
            yc = 1.0 if c == y else -1.0
            if yc * m <= 0.0:
                rows.append(c)
                coefs.append(yc)
        self._add(rows, coefs)


class OGD(LinearBaseline):
    """Gradient descent on the hinge loss with a 1/sqrt(t) step schedule."""

    def __init__(self, input_dim, classes, lr: float = 0.01):
        super().__init__(input_dim, classes)
        self.lr = lr
        self.t = 0

    def _update(self, dots, y):
        self.t += 1
        rate = self.lr / math.sqrt(self.t)
        rows, coefs = [], []
        for c, m in enumerate(dots):
            yc = 1.0 if c == y else -1.0
            if yc * m < 1.0:
                rows.append(c)
                coefs.append(rate * yc)
        self._add(rows, coefs)


class PA(LinearBaseline):
    """Passive-aggressive: jump to the margin-1 boundary, step capped at C."""

    def _update(self, dots, y):
        a = float(self._xa @ self._xa)
        rows, coefs = [], []
        for c, m in enumerate(dots):
            yc = 1.0 if c == y else -1.0
            loss = max(0.0, 1.0 - yc * m)
            if loss > 0.0:
                rows.append(c)
                coefs.append(min(C, loss / a) * yc)
        self._add(rows, coefs)


class ROMMA(LinearBaseline):
    """Relaxed maximum-margin projection update on mistakes."""

    def _update(self, dots, y):
        w, xa = self.w, self._xa
        a = float(xa @ xa)
        norms = np.matmul(w[:, None, :], w[:, :, None]).ravel().tolist()   # w[c] @ w[c]
        rows, coef_w, coef_x = [], [], []
        for c, m in enumerate(dots):
            yc = 1.0 if c == y else -1.0
            if yc * m > 0.0:
                continue
            b = norms[c]
            denom = a * b - m * m
            rows.append(c)
            if b == 0.0 or denom <= 1e-12 * a * b:
                # degenerate (zero weights or x parallel to w): plain mistake
                # step, w + yc * xa, as 1.0 * w is w
                coef_w.append(1.0)
                coef_x.append(yc)
            else:
                coef_w.append((a * b - yc * m) / denom)
                coef_x.append(b * (yc - m) / denom)
        if rows:
            sel = self._select(rows)
            w[sel] = np.array(coef_w)[:, None] * w[sel] + np.array(coef_x)[:, None] * xa


class ConfidenceBaseline(LinearBaseline):
    """Adds a diagonal variance per class, one entry per augmented feature."""

    stack = 2

    def __init__(self, input_dim, classes):
        super().__init__(input_dim, classes)
        self.sigma = self._state[1]
        self.sigma.fill(1.0)

    def _shrink(self, rows: list, steps: list, betas: list) -> None:
        """AROW's and SCW's write: with sx = sigma[c] * xa, w[c] += step * sx
        and sigma[c] -= beta * sx * sx for each listed class."""
        if rows:
            sel = self._select(rows)
            sigma = self.sigma[sel]     # a view of every row, else a copy
            sx = sigma * self._xa
            self.w[sel] += np.array(steps)[:, None] * sx
            sigma -= np.array(betas)[:, None] * sx * sx
            self.sigma[sel] = sigma


class CW(ConfidenceBaseline):
    """Confidence-weighted learning, diagonal variance variant."""

    def _update(self, dots, y):
        phi, k = PHI, self.classes
        rows, steps, gains = [], [], []
        for c in range(k):
            yc = 1.0 if c == y else -1.0
            m = yc * dots[c]
            v = dots[k + c]
            disc = (1.0 + 2.0 * phi * m) ** 2 - 8.0 * phi * (m - phi * v)
            gamma = (-(1.0 + 2.0 * phi * m) + math.sqrt(disc)) / (4.0 * phi * v)
            alpha = max(0.0, gamma)
            if alpha > 0.0:
                rows.append(c)
                steps.append(alpha * yc)
                gains.append(2.0 * alpha * phi)
        if rows:
            sel, xa = self._select(rows), self._xa
            sigma = self.sigma[sel]
            self.w[sel] += np.array(steps)[:, None] * sigma * xa
            self.sigma[sel] = 1.0 / (1.0 / sigma + np.array(gains)[:, None] * xa * xa)


class AROW(ConfidenceBaseline):
    """Adaptive regularization of weights, diagonal covariance."""

    def _update(self, dots, y):
        k = self.classes
        rows, steps, betas = [], [], []
        for c in range(k):
            yc = 1.0 if c == y else -1.0
            loss = 1.0 - yc * dots[c]
            if loss <= 0.0:
                continue
            beta = 1.0 / (dots[k + c] + R)
            rows.append(c)
            steps.append(loss * beta * yc)
            betas.append(beta)
        self._shrink(rows, steps, betas)


class SCW(ConfidenceBaseline):
    """Soft confidence-weighted (variant I), diagonal covariance."""

    def _update(self, dots, y):
        phi, psi, zeta, k = PHI, PSI, ZETA, self.classes
        rows, steps, betas = [], [], []
        for c in range(k):
            yc = 1.0 if c == y else -1.0
            m = yc * dots[c]
            v = dots[k + c]
            if phi * math.sqrt(v) - m <= 0.0:
                continue
            alpha = min(C, max(0.0, (-m * psi + math.sqrt(
                m * m * phi ** 4 / 4.0 + v * phi * phi * zeta)) / (v * zeta)))
            if alpha <= 0.0:
                continue
            sqrt_u = 0.5 * (-alpha * v * phi + math.sqrt(alpha * alpha * v * v * phi * phi + 4.0 * v))
            rows.append(c)
            steps.append(alpha * yc)
            betas.append(alpha * phi / (sqrt_u + v * alpha * phi))
        self._shrink(rows, steps, betas)


BASELINES = {
    "perceptron": Perceptron,
    "romma": ROMMA,
    "ogd": OGD,
    "pa": PA,
    "cw": CW,
    "arow": AROW,
    "scw": SCW,
}
