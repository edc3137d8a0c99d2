"""Dense float64 kernels of the hedged network: softmax, cross-entropy, Adam.

Each function writes only into arrays it allocates, except `softmax`,
which writes its result into `out` when one is given, `softmax_pair`,
which works in place on the views it is given, and `adam_step`,
which moves the parameter vector and the `AdamState` it is given in place.
Everything runs in double precision so that analytic gradients can be
checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Probability floor inside cross-entropy: keeps the loss (and the exponent of
# the multiplicative weight update) finite on confident wrong predictions.
PROB_CLIP = 1e-12

# Adam's moment decay rates and the guard added to the denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softmax(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax over the last axis: shifts by the max so exp never overflows.
    Array-method reductions: np.max/np.sum's ufunc reduce without their wrappers.
    With `out` (which may be `v` itself) the result is written there and
    returned, with the same bits as a new array."""
    out = np.subtract(v, v.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_pair(v: np.ndarray, v0: np.ndarray, v1: np.ndarray, top: np.ndarray) -> None:
    """`softmax(v, out=v)` for a (k, 2) `v`, through its bound (k,) column
    views `v0`, `v1` and a (k,) scratch vector `top`, with the same bits.
    Over two entries the reductions are one `maximum` and one addition, and
    a max that differs only in its zero's sign leaves every `exp` as it is.
    Column by column, no operand is broadcast, which costs more than a call."""
    np.maximum(v0, v1, out=top)
    np.subtract(v0, top, out=v0)
    np.subtract(v1, top, out=v1)
    np.exp(v, out=v)
    np.add(v0, v1, out=top)
    np.divide(v0, top, out=v0)
    np.divide(v1, top, out=v1)


def check_label(label, classes: int) -> None:
    """Raise InputError unless `label`, a class index or an array of them,
    lies in [0, classes)."""
    low, high = (label.min(), label.max()) if isinstance(label, np.ndarray) else (label, label)
    if low < 0 or high >= classes:
        raise InputError(f"label {low if low < 0 else high} outside distribution "
                         f"of size {classes}")


def cross_entropy(dist: np.ndarray, label) -> np.ndarray | float:
    """-log(dist[..., label]), with the probability floored at PROB_CLIP.

    `dist` holds probability vectors along its last axis; `label` must be a
    valid class index, or an int array of them, one for each entry of
    `dist`'s first axis. A single vector gives a scalar, a stack one loss per
    row.
    """
    dist = np.asarray(dist)
    check_label(label, dist.shape[-1])
    if isinstance(label, np.ndarray):
        return -np.log(np.maximum(dist[np.arange(len(label)), ..., label], PROB_CLIP))
    return -np.log(np.maximum(dist[..., label], PROB_CLIP))


@dataclass
class AdamState:
    """Per-parameter Adam accumulators (first/second moment + step count)."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(param, dtype=np.float64),
                   np.zeros_like(param, dtype=np.float64), 0)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of `param`, its moments and its step
    count, all in place.

    Computes param - lr * m_hat / (sqrt(v_hat) + eps) with the same roundings
    in the same order as that expression, through two temporaries. Once
    1 - beta1**t rounds to exactly 1.0 (from t = 356 on), m_hat = m / 1.0 is
    m itself, so the division is skipped.
    """
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise InputError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, moment {state.m.shape}")
    state.step += 1
    t, m, v = state.step, state.m, state.v
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    tmp = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += tmp
    np.multiply(grad, grad, out=tmp)
    tmp *= 1.0 - b2
    v *= b2
    v += tmp
    c1 = 1.0 - b1 ** t
    if c1 == 1.0:
        step = np.multiply(m, lr)
    else:
        step = np.divide(m, c1)  # m_hat
        step *= lr
    np.divide(v, 1.0 - b2 ** t, out=tmp)  # v_hat
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step /= tmp
    param -= step
