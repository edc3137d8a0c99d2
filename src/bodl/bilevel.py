"""Drift response: two-level adaptation of the network parameters.

On a drift signal the main parameters are copied, refined with a few plain
gradient steps on the most recent (drifted) instances, nudged one further
step on a batch replayed from episodic memory, and the main parameters are
then moved toward that look-ahead copy by linear interpolation. The working
copies are discarded afterwards; only the main parameters persist. Head
importances and the online optimizer's moments are never touched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, StateError
from .hedge_net import NetworkParams, backward, forward, sgd_step, total_loss
from .memory import EpisodicMemory, StreamInstance


@dataclass
class BilevelConfig:
    inner_rate: float = 0.01    # step size of the adaptation gradient steps
    outer_rate: float = 0.5     # interpolation weight toward the look-ahead copy
    inner_steps: int = 5
    memory_batch: int = 32
    recent_window: int = 16     # how many trailing instances count as drifted data

    def __post_init__(self):
        if self.inner_rate < 0:
            raise ConfigError("inner rate must be nonnegative")
        if not 0.0 <= self.outer_rate <= 1.0:
            raise ConfigError("outer rate must lie in [0, 1]")
        if self.inner_steps < 1:
            raise ConfigError("need at least one inner step")
        if self.memory_batch < 1:
            raise ConfigError("memory batch size must be >= 1")
        if self.recent_window < 1:
            raise ConfigError("recent window must be >= 1")


class RecentBuffer:
    """The last `size` stream instances, in arrival order."""

    def __init__(self, size: int = 16):
        self._items: deque[StreamInstance] = deque(maxlen=size)

    def append(self, inst: StreamInstance) -> None:
        self._items.append(inst)

    def items(self) -> list[StreamInstance]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class AdaptationRecord:
    """Log entry emitted for each drift adaptation."""

    position: int
    loss_before: float
    loss_after: float
    shift_norm: float           # parameter distance covered by the outer move
    memory_batch: int           # 0 when memory was empty (inner-only fallback)


def _mean_loss(params: NetworkParams, batch: list[StreamInstance],
               weights: np.ndarray, lam: float) -> float:
    total = 0.0
    for inst in batch:
        acts = forward(params, inst.features)
        loss, _ = total_loss(acts, weights, inst.label, lam)
        total += loss
    return total / len(batch)


def _mean_grad_step(params: NetworkParams, batch: list[StreamInstance],
                    weights: np.ndarray, lam: float, rate: float) -> NetworkParams:
    """One gradient step on the batch-averaged objective."""
    acc = None
    for inst in batch:
        acts = forward(params, inst.features)
        g = backward(params, acts, weights, inst.label, lam)
        if acc is None:
            acc = g
        else:
            for a, b in zip(acc.matrices(), g.matrices()):
                a += b
    scale = 1.0 / len(batch)
    for a in acc.matrices():
        a *= scale
    return sgd_step(params, acc, rate)


def inner_adapt(params: NetworkParams, buf: RecentBuffer, weights: np.ndarray,
                cfg: BilevelConfig, lam: float) -> NetworkParams:
    """Refine a copy of the parameters on the recent drifted instances.

    Plain single-instance gradient steps at the inner rate, cycling through
    the buffer; head importances stay frozen.
    """
    recent = buf.items()
    if not recent:
        raise StateError("recent buffer is empty; nothing to adapt on")
    adapted = params.copy()
    for i in range(cfg.inner_steps):
        inst = recent[i % len(recent)]
        acts = forward(adapted, inst.features)
        grads = backward(adapted, acts, weights, inst.label, lam)
        adapted = sgd_step(adapted, grads, cfg.inner_rate)
    return adapted


def lookahead(adapted: NetworkParams, mem_batch: list[StreamInstance],
              weights: np.ndarray, cfg: BilevelConfig, lam: float) -> NetworkParams:
    """One further step on the mean loss over a memory batch."""
    if not mem_batch:
        raise StateError("memory batch is empty")
    return _mean_grad_step(adapted, mem_batch, weights, lam, cfg.inner_rate)


def outer_interpolate(params: NetworkParams, target: NetworkParams,
                      gamma: float) -> NetworkParams:
    """Move every parameter entry the fraction gamma of the way to `target`.

    Written as (1-gamma)*a + gamma*b so the endpoints gamma=0 and gamma=1
    reproduce the operands bit-exactly.
    """
    blended = []
    for a, b in zip(params.matrices(), target.matrices()):
        if a.shape != b.shape:
            raise InputError(f"shape mismatch in interpolation: {a.shape} vs {b.shape}")
        blended.append((1.0 - gamma) * a + gamma * b)
    return params.with_matrices(blended)


def params_distance(a: NetworkParams, b: NetworkParams) -> float:
    """Frobenius distance over all matrices."""
    total = 0.0
    for x, y in zip(a.matrices(), b.matrices()):
        diff = x - y
        total += float(np.sum(diff * diff))
    return float(np.sqrt(total))


def adapt_on_drift(params: NetworkParams, buf: RecentBuffer, mem: EpisodicMemory,
                   weights: np.ndarray, cfg: BilevelConfig, lam: float,
                   rng: np.random.Generator,
                   position: int = -1) -> tuple[NetworkParams, AdaptationRecord]:
    """Full drift response; returns the new main parameters and a log record.

    With an empty memory the inner refinement is returned directly (nothing
    to replay); otherwise the look-ahead copy is built on a memory batch and
    the main parameters are interpolated toward it.
    """
    recent = buf.items()
    if not recent:
        raise StateError("recent buffer is empty; nothing to adapt on")
    loss_before = _mean_loss(params, recent, weights, lam)
    adapted = inner_adapt(params, buf, weights, cfg, lam)
    loss_after = _mean_loss(adapted, recent, weights, lam)
    if len(mem) == 0:
        record = AdaptationRecord(position, loss_before, loss_after,
                                  params_distance(adapted, params), 0)
        return adapted, record
    batch = mem.sample_batch(cfg.memory_batch, rng)
    target = lookahead(adapted, batch, weights, cfg, lam)
    new_params = outer_interpolate(params, target, cfg.outer_rate)
    record = AdaptationRecord(position, loss_before, loss_after,
                              params_distance(target, params), len(batch))
    return new_params, record
