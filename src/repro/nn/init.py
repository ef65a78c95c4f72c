"""Weight initializers."""

from __future__ import annotations

import numpy as np


def xavier_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform — DGL's default for GraphConv weights."""
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
