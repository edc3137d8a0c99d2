"""Fixed-capacity episodic memory via reservoir sampling.

After s offered items every one of them is retained with probability
capacity/s, so the memory is always a uniform sample of the whole stream.
The items are opaque to the memory; the network learner offers row numbers
into its history arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, StateError


class EpisodicMemory:
    """Uniform reservoir of past items."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("memory capacity must be >= 1")
        self.capacity = capacity
        self.items: list = []
        self.seen = 0

    def __len__(self) -> int:
        return len(self.items)

    def maybe_insert(self, item, rng: np.random.Generator) -> None:
        """Offer one item; keeps it with probability capacity/seen."""
        self.seen += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            slot = int(rng.integers(0, self.seen))
            if slot < self.capacity:
                self.items[slot] = item

    def sample_batch(self, k: int, rng: np.random.Generator) -> list:
        """k items drawn uniformly with replacement."""
        if not self.items:
            raise StateError("cannot sample from an empty memory")
        idx = rng.integers(0, len(self.items), size=k)
        return [self.items[i] for i in idx]
