"""Fixed-capacity episodic memory via reservoir sampling.

After s offered instances every one of them is retained with probability
capacity/s, so the memory is always a uniform sample of the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError


@dataclass
class StreamInstance:
    """One labelled observation plus its position in the stream."""

    features: np.ndarray
    label: int
    position: int


class EpisodicMemory:
    """Uniform reservoir of past instances."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ConfigError("memory capacity must be >= 1")
        self.capacity = capacity
        self.items: list[StreamInstance] = []
        self.seen = 0

    def __len__(self) -> int:
        return len(self.items)

    def maybe_insert(self, inst: StreamInstance, rng: np.random.Generator) -> None:
        """Offer one instance; keeps it with probability capacity/seen."""
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(inst)
        else:
            slot = int(rng.integers(0, self.seen))
            if slot < self.capacity:
                self.items[slot] = inst

    def sample_batch(self, k: int, rng: np.random.Generator) -> list[StreamInstance]:
        """k instances drawn uniformly with replacement."""
        if not self.items:
            raise StateError("cannot sample from an empty memory")
        if k <= 0:
            return []
        idx = rng.integers(0, len(self.items), size=k)
        return [self.items[i] for i in idx]
