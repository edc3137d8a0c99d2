"""Error-rate drift detection, single-threshold variant.

Tracks the running error probability of the 0/1 prediction error stream and
its standard error. A drift is signalled when the current error level rises
significantly above the best (lowest) level recorded so far; there is no
intermediate warning level. After a signal the caller resets the statistics
and the detector relearns its baseline from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError


@dataclass
class DriftState:
    min_instances: int = 30     # gate: no decisions before the normal approx holds
    sensitivity: float = 3.0    # drift threshold in units of the recorded std error
    count: int = 0
    error_rate: float = 0.0
    std_error: float = 0.0
    min_rate: float = math.inf
    min_std: float = math.inf

    @property
    def threshold(self) -> float:
        """Error level at which a drift fires."""
        return self.min_rate + self.sensitivity * self.min_std


def observe(state: DriftState, error: int) -> tuple[DriftState, bool]:
    """Fold one 0/1 error bit into the statistics and judge the stream.

    Returns the new state and whether a drift fired. After a drift the caller
    must call `reset`; the statistics are left as they were at the firing point
    for logging.
    """
    if error not in (0, 1):
        raise InputError(f"error bit must be 0 or 1, got {error!r}")
    t = state.count + 1
    p = state.error_rate + (error - state.error_rate) / t
    s = math.sqrt(p * (1.0 - p) / t)
    min_rate, min_std = state.min_rate, state.min_std
    # Minima are only tracked once enough instances accumulated; earlier
    # minima would lock onto small-sample flukes and fire constantly on
    # stationary streams. Until then the minima of a state from `observe`
    # or `reset` are inf, so its threshold is inf and no drift fires.
    if t >= state.min_instances and p + s < min_rate + min_std:
        min_rate, min_std = p, s
    new_state = DriftState(state.min_instances, state.sensitivity,
                           t, p, s, min_rate, min_std)
    return new_state, p + s > new_state.threshold


def reset(state: DriftState) -> DriftState:
    """Fresh statistics; detection settings survive."""
    return DriftState(state.min_instances, state.sensitivity)
