"""Random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh OS entropy).  Centralising
the coercion here keeps experiments reproducible: an experiment seeds one
root seed and draws a :func:`stable_substream` for each (pair, repeat, K)
cell, so adding repeats never perturbs earlier ones.
"""

from __future__ import annotations

from typing import Union

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


__all__ = [
    "SeedLike",
    "ensure_generator",
    "stable_substream",
]
