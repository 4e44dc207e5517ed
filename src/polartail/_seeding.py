"""Seed plumbing shared by the samplers."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def seed_key(seed) -> tuple[int, ...]:
    """Normalize a nonnegative int or tuple-of-such seed into a stream key."""
    parts = seed if isinstance(seed, tuple) else (seed,)
    if parts and all(
        isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 0 for s in parts
    ):
        return tuple(int(s) for s in parts)
    raise ParameterError(
        f"seed must be a nonnegative int or a nonempty tuple of them, got {seed!r}"
    )


def make_generator(seed) -> np.random.Generator:
    """Generator for a whole-run stream; passes Generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed_key(seed)))


def batch_generator(seed, batch_index: int) -> np.random.Generator:
    """Independent stream for one batch, a pure function of (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(seed_key(seed) + (batch_index,)))
