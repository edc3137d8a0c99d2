"""Drift response: two-level adaptation of the network parameters.

On a drift signal the main parameters are copied, refined with a few plain
gradient steps on the most recent (drifted) instances, nudged one further
step on a batch replayed from episodic memory, and the main parameters are
then moved toward that look-ahead copy by linear interpolation. The working
copies are discarded afterwards; only the main parameters persist. Head
importances and the online optimizer's moments are never touched.
"""

from __future__ import annotations

import numpy as np

from .errors import StateError
from .hedge_net import (
    NetworkParams,
    Workspace,
    backward,
    backward_sum,
    flat_pair,
    forward,
    forward_rows,
    row_losses,
    sgd_step,
)


def _mean_loss(params: NetworkParams, X: np.ndarray, y: np.ndarray,
               weights: np.ndarray, lam: float) -> float:
    """Mean of the rows' `total_loss`, added in row order."""
    return np.add.accumulate(row_losses(forward_rows(params, X), weights, y, lam))[-1] / len(X)


def inner_adapt(params: NetworkParams, X: np.ndarray, y: np.ndarray, weights: np.ndarray,
                lam: float, *, inner_rate: float, inner_steps: int) -> NetworkParams:
    """Refine a copy of the parameters on the recent drifted rows `(X, y)`.

    `inner_steps` plain single-row gradient steps at `inner_rate` on the copy,
    in place, cycling through the rows in order; head importances stay
    frozen. Every step's forward record and gradient go into one
    `Workspace`, built once per call."""
    if not len(X):
        raise StateError("recent window is empty; nothing to adapt on")
    adapted = params.copy()
    ws = Workspace(params.dims)
    labels = y.tolist()     # Python ints: cheaper to check and index with than numpy scalars
    for i in range(inner_steps):
        k = i % len(X)
        acts = forward(adapted, X[k], out=ws)
        sgd_step(adapted, backward(adapted, acts, weights, labels[k], lam, out=ws), inner_rate)
    return adapted


def lookahead(adapted: NetworkParams, X: np.ndarray, y: np.ndarray,
              weights: np.ndarray, lam: float, *, inner_rate: float) -> NetworkParams:
    """One further step at `inner_rate` on the mean loss over a replayed batch
    `(X, y)`, taken in place on the working copy `adapted`, which is returned.

    The rows' gradients are summed in row order by one stacked call."""
    if not len(X):
        raise StateError("memory batch is empty")
    grad = backward_sum(adapted, forward_rows(adapted, X), weights, y, lam)
    grad *= 1.0 / len(X)
    sgd_step(adapted, grad, inner_rate)
    return adapted


def outer_interpolate(params: NetworkParams, target: NetworkParams,
                      gamma: float) -> NetworkParams:
    """Move every parameter entry the fraction gamma of the way to `target`.

    Written as (1-gamma)*a + gamma*b so the endpoints gamma=0 and gamma=1
    reproduce the operands bit-exactly.
    """
    a, b = flat_pair(params, target)
    return params.with_flat((1.0 - gamma) * a + gamma * b)


def params_distance(a: NetworkParams, b: NetworkParams) -> float:
    """Frobenius distance over all matrices.

    Summed matrix by matrix, in `matrices()` order: one sum over the whole
    vector would add in a different order and round differently.
    """
    x, y = flat_pair(a, b)
    diff = x - y
    total = 0.0
    for sq in a.with_flat(diff * diff).matrices():
        total += float(np.sum(sq))
    return float(np.sqrt(total))


def adapt_on_drift(params: NetworkParams, recent: tuple[np.ndarray, np.ndarray],
                   replay: tuple[np.ndarray, np.ndarray], weights: np.ndarray,
                   lam: float, position: int = -1, *, inner_rate: float,
                   outer_rate: float, inner_steps: int) -> tuple[NetworkParams, dict]:
    """Full drift response; returns the new main parameters and the report's
    record of it (position, loss before and after the inner refinement, the
    distance to the look-ahead copy, and the replay batch size).

    `recent` and `replay` are `(X, y)` pairs of rows and labels. The
    look-ahead copy is built on the replay batch (an empty one raises
    StateError) and the main parameters are interpolated the fraction
    `outer_rate` toward it.
    RunConfig range-checks the rates and the step count; nothing here does.
    """
    X, y = recent
    adapted = inner_adapt(params, X, y, weights, lam, inner_rate=inner_rate,
                          inner_steps=inner_steps)
    loss_before = _mean_loss(params, X, y, weights, lam)
    loss_after = _mean_loss(adapted, X, y, weights, lam)
    target = lookahead(adapted, *replay, weights, lam, inner_rate=inner_rate)
    return outer_interpolate(params, target, outer_rate), {
        "position": int(position),
        "loss_before": float(loss_before),
        "loss_after": float(loss_after),
        "shift_norm": float(params_distance(target, params)),
        "memory_batch": len(replay[0]),
    }
