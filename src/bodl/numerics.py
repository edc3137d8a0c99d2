"""Dense float64 kernels shared by every learner: activations, losses, Adam.

All functions are pure; optimizer state is passed in and returned. Everything
runs in double precision so that analytic gradients can be checked against
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Probability floor inside cross-entropy: keeps the loss (and the exponent of
# the multiplicative weight update) finite on confident wrong predictions.
PROB_CLIP = 1e-12


def aug(v: np.ndarray) -> np.ndarray:
    """Append the bias constant 1."""
    return np.append(v, 1.0)


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max(0, v)."""
    return np.maximum(v, 0.0)


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax: shifts by the max so exp never overflows."""
    z = v - np.max(v)
    e = np.exp(z)
    return e / np.sum(e)


def cross_entropy(dist: np.ndarray, label: int) -> float:
    """-log(dist[label]), with the probability floored at PROB_CLIP.

    `dist` must be a probability vector; `label` a valid class index.
    """
    if label < 0 or label >= len(dist):
        raise InputError(f"label {label} outside distribution of size {len(dist)}")
    return float(-np.log(max(float(dist[label]), PROB_CLIP)))


@dataclass
class AdamState:
    """Per-parameter Adam accumulators (first/second moment + step count)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, param: np.ndarray, beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros_like(param, dtype=np.float64),
                   np.zeros_like(param, dtype=np.float64), 0, beta1, beta2, eps)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new parameter and state."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise InputError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, moment {state.m.shape}")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * (grad * grad)
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_param = param - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_param, AdamState(m, v, t, state.beta1, state.beta2, state.eps)
