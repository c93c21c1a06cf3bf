"""Random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh OS entropy).  Centralising
the coercion here keeps experiments reproducible: an experiment seeds one
generator and *spawns* independent child streams for each (pair, repeat, K)
cell, so adding repeats never perturbs earlier ones.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared stream);
    anything else creates a fresh, independent generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from ``seed``.

    Used by the experiment runner to give every query pair and every repeat
    its own stream, so results are reproducible yet uncorrelated.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by jumping the parent's bit generator state.
        return [ensure_generator(int(seed.integers(2**63))) for _ in range(count)]
    if isinstance(seed, np.random.SeedSequence):
        sequence = seed
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def stable_substream(seed: SeedLike, *keys: int) -> np.random.Generator:
    """Return a generator keyed by ``keys`` that is stable across runs.

    ``stable_substream(seed, pair_index, repeat_index)`` always yields the
    same stream for the same arguments, independent of call order.
    """
    if isinstance(seed, int):
        # Equal to ``SeedSequence(seed).entropy``; once per world, so
        # no throwaway sequence is built.
        entropy = seed
    elif isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
    else:
        entropy = np.random.SeedSequence(None).entropy
    keyed = np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(int(k) for k in keys)
    )
    return np.random.default_rng(keyed)


def geometric_skips(
    rng: np.random.Generator, probability: float, size: int
) -> np.ndarray:
    """Draw ``size`` geometric "failure counts" for an edge of ``probability``.

    Returns the number of worlds that *skip* the edge before it next exists,
    i.e. ``X ~ Geometric(p) - 1`` (support 0, 1, 2, ...).  An edge with
    probability 1 always exists (all-zero skips).
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {probability}")
    if probability == 1.0:
        return np.zeros(size, dtype=np.int64)
    return rng.geometric(probability, size=size).astype(np.int64) - 1


__all__ = [
    "SeedLike",
    "ensure_generator",
    "spawn_generators",
    "stable_substream",
    "geometric_skips",
]
