"""Evaluation metrics (paper §3.1.4, Eqs. 14-15).

Relative error is always measured against *MC sampling at its variance
convergence* — the paper's reference for "the right answer" (Eq. 14) — and
the pairwise deviation D (Eq. 15) summarises how much the estimators
disagree with each other at a given K.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.util.stats import pairwise_deviation

MINIMUM_REFERENCE = 1e-12


def relative_error(
    estimates: np.ndarray, reference: np.ndarray
) -> float:
    """Mean relative error of per-pair estimates against the MC reference.

    Pairs whose reference reliability is (numerically) zero are skipped: the
    paper's ratio is undefined there, and its 2-hop workloads make them
    rare.  If every pair is skipped the error is defined as 0 when the
    estimates are all zero too, else infinity.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if estimates.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: estimates {estimates.shape} vs reference "
            f"{reference.shape}"
        )
    valid = reference > MINIMUM_REFERENCE
    if not valid.any():
        return 0.0 if np.allclose(estimates, 0.0) else float("inf")
    ratios = np.abs(estimates[valid] - reference[valid]) / reference[valid]
    return float(ratios.mean())


def deviation_of(table: Dict[str, float]) -> float:
    """Pairwise deviation D (Eq. 15) over a relative-error table."""
    return pairwise_deviation(list(table.values()))


__all__ = [
    "MINIMUM_REFERENCE",
    "relative_error",
    "deviation_of",
]
