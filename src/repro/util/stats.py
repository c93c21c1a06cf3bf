"""Statistics helpers shared by the convergence framework and benchmarks."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def dispersion_index(variance: float, mean: float) -> float:
    """Index of dispersion ``variance / mean`` (paper's rho_K).

    A mean of zero (reliability exactly 0 in all repeats) has zero variance
    too; the paper treats that point as converged, so we return 0.0.
    """
    if mean == 0.0:
        return 0.0
    return variance / mean


def binomial_variance(reliability: float, samples: int) -> float:
    """Theoretical MC estimator variance ``R(1-R)/K`` (paper Eq. 4)."""
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    return reliability * (1.0 - reliability) / samples


def pairwise_deviation(relative_errors: Sequence[float]) -> float:
    """Mean absolute pairwise deviation D of relative errors (paper Eq. 15).

    The paper normalises by ``5 * 6`` for six estimators, i.e. by
    ``k * (k - 1)`` — the number of ordered pairs — which this generalises.
    """
    errors = np.asarray(relative_errors, dtype=np.float64)
    k = errors.size
    if k < 2:
        return 0.0
    diffs = np.abs(errors[:, None] - errors[None, :])
    return float(diffs.sum() / (k * (k - 1)))


__all__ = [
    "dispersion_index",
    "binomial_variance",
    "pairwise_deviation",
]
