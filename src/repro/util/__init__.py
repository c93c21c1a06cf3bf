"""Shared low-level utilities: RNG plumbing, packed bitsets, statistics."""

from repro.util.rng import ensure_generator
from repro.util.bitset import (
    packed_words,
    sample_bit_matrix,
    popcount,
    popcount_rows,
)
from repro.util.stats import dispersion_index
from repro.util.validation import (
    check_node,
    check_probability,
    check_positive,
)

__all__ = [
    "ensure_generator",
    "packed_words",
    "sample_bit_matrix",
    "popcount",
    "popcount_rows",
    "dispersion_index",
    "check_node",
    "check_probability",
    "check_positive",
]
