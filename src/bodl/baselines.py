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

from .errors import ConfigError, InputError
from .numerics import aug


class LinearBaseline:
    """Shared one-vs-rest scaffolding; subclasses implement the binary update."""

    def __init__(self, input_dim: int, classes: int):
        if input_dim < 1 or classes < 2:
            raise ConfigError("need input_dim >= 1 and classes >= 2")
        self.input_dim = input_dim
        self.classes = classes
        self.w = np.zeros((classes, input_dim + 1))

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.w @ aug(x)

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self.scores(x)))

    def step(self, x: np.ndarray, y: int, position: int = -1) -> int:
        """Predict from pre-update weights, then learn; returns the prediction.
        `position` is accepted for the shared learner interface and unused."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise InputError(f"feature shape {x.shape}, expected ({self.input_dim},)")
        if not 0 <= y < self.classes:
            raise InputError(f"label {y} outside 0..{self.classes - 1}")
        pred = self.predict(x)
        xa = aug(x)
        self._begin_update()
        for c in range(self.classes):
            self._update_binary(c, xa, 1.0 if c == y else -1.0)
        return pred

    def _begin_update(self) -> None:
        pass

    def _update_binary(self, c: int, xa: np.ndarray, yc: float) -> None:
        raise NotImplementedError


class Perceptron(LinearBaseline):
    """Mistake-driven: w += y*x on wrongly signed margins."""

    def _update_binary(self, c, xa, yc):
        if yc * float(self.w[c] @ xa) <= 0.0:
            self.w[c] += yc * xa


class OGD(LinearBaseline):
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


class PA(LinearBaseline):
    """Passive-aggressive: jump to the margin-1 boundary, step capped at C."""

    def __init__(self, input_dim, classes, C: float = 1.0):
        super().__init__(input_dim, classes)
        self.C = C

    def _update_binary(self, c, xa, yc):
        loss = max(0.0, 1.0 - yc * float(self.w[c] @ xa))
        if loss > 0.0:
            tau = min(self.C, loss / float(xa @ xa))
            self.w[c] += tau * yc * xa


class ROMMA(LinearBaseline):
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


class CW(LinearBaseline):
    """Confidence-weighted learning, diagonal variance variant."""

    def __init__(self, input_dim, classes, confidence: float = 0.9):
        super().__init__(input_dim, classes)
        if not 0.5 < confidence < 1.0:
            raise ConfigError("confidence must lie in (0.5, 1)")
        self.phi = NormalDist().inv_cdf(confidence)
        self.sigma = np.ones((classes, input_dim + 1))

    def _update_binary(self, c, xa, yc):
        phi = self.phi
        m = yc * float(self.w[c] @ xa)
        v = float(self.sigma[c] @ (xa * xa))
        disc = (1.0 + 2.0 * phi * m) ** 2 - 8.0 * phi * (m - phi * v)
        gamma = (-(1.0 + 2.0 * phi * m) + math.sqrt(disc)) / (4.0 * phi * v)
        alpha = max(0.0, gamma)
        if alpha > 0.0:
            self.w[c] += alpha * yc * self.sigma[c] * xa
            self.sigma[c] = 1.0 / (1.0 / self.sigma[c] + 2.0 * alpha * phi * xa * xa)


class AROW(LinearBaseline):
    """Adaptive regularization of weights, diagonal covariance."""

    def __init__(self, input_dim, classes, r: float = 1.0):
        super().__init__(input_dim, classes)
        if r <= 0:
            raise ConfigError("regularization r must be positive")
        self.r = r
        self.sigma = np.ones((classes, input_dim + 1))

    def _update_binary(self, c, xa, yc):
        m = float(self.w[c] @ xa)
        if 1.0 - yc * m <= 0.0:
            return
        v = float(self.sigma[c] @ (xa * xa))
        beta = 1.0 / (v + self.r)
        alpha = (1.0 - yc * m) * beta
        sx = self.sigma[c] * xa
        self.w[c] += alpha * yc * sx
        self.sigma[c] -= beta * sx * sx


class SCW(LinearBaseline):
    """Soft confidence-weighted (variant I), diagonal covariance."""

    def __init__(self, input_dim, classes, C: float = 1.0, confidence: float = 0.9):
        super().__init__(input_dim, classes)
        if not 0.5 < confidence < 1.0:
            raise ConfigError("confidence must lie in (0.5, 1)")
        self.C = C
        self.phi = NormalDist().inv_cdf(confidence)
        self.psi = 1.0 + self.phi ** 2 / 2.0
        self.zeta = 1.0 + self.phi ** 2
        self.sigma = np.ones((classes, input_dim + 1))

    def _update_binary(self, c, xa, yc):
        phi, psi, zeta = self.phi, self.psi, self.zeta
        m = yc * float(self.w[c] @ xa)
        v = float(self.sigma[c] @ (xa * xa))
        if phi * math.sqrt(v) - m <= 0.0:
            return
        alpha = min(self.C, max(0.0, (-m * psi + math.sqrt(
            m * m * phi ** 4 / 4.0 + v * phi * phi * zeta)) / (v * zeta)))
        if alpha <= 0.0:
            return
        sqrt_u = 0.5 * (-alpha * v * phi + math.sqrt(alpha * alpha * v * v * phi * phi + 4.0 * v))
        beta = alpha * phi / (sqrt_u + v * alpha * phi)
        sx = self.sigma[c] * xa
        self.w[c] += alpha * yc * sx
        self.sigma[c] -= beta * sx * sx


BASELINES = {
    "perceptron": Perceptron,
    "romma": ROMMA,
    "ogd": OGD,
    "pa": PA,
    "cw": CW,
    "arow": AROW,
    "scw": SCW,
}


def make_baseline(name: str, input_dim: int, classes: int, **hyper) -> LinearBaseline:
    try:
        cls = BASELINES[name]
    except KeyError:
        raise ConfigError(f"unknown baseline {name!r}; choose from {sorted(BASELINES)}")
    return cls(input_dim, classes, **hyper)
