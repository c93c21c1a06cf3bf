"""Convergence framework (paper §3.1.4).

The paper's central methodological point: comparing estimators at one fixed
sample size is unfair, because the K needed for a *stable* estimate differs
per estimator and dataset.  Their criterion: at each K on a grid
(250, 500, ...), repeat every s-t query T times, compute the average
variance ``V_K`` (Eqs. 11-12) and average reliability ``R_K`` (Eq. 13), and
declare convergence when the *index of dispersion*
``rho_K = V_K / R_K < 0.001``.

:func:`evaluate_at_k` measures one grid point; :func:`run_convergence` walks
the grid until the criterion fires (or the grid is exhausted — reported as
non-converged, which the harness treats as "converged at k_max" the way the
paper treats its largest measured K).

Per-(pair, repeat, K) RNG substreams come from
:func:`repro.util.rng.stable_substream`, so every estimator sees the same
workload under independent but reproducible randomness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.estimators.base import Estimator
from repro.datasets.queries import QueryWorkload
from repro.util.rng import stable_substream
from repro.util.stats import dispersion_index

DISPERSION_THRESHOLD = 1e-3  # the paper's rho_K cut-off
DEFAULT_K_START = 250
DEFAULT_K_STEP = 250
DEFAULT_K_MAX = 2_000
DEFAULT_REPEATS = 100  # the paper's T; experiments override with smaller T


@dataclass(frozen=True)
class ConvergenceCriterion:
    """The K grid and dispersion threshold of the paper's protocol."""

    dispersion_threshold: float = DISPERSION_THRESHOLD
    k_start: int = DEFAULT_K_START
    k_step: int = DEFAULT_K_STEP
    k_max: int = DEFAULT_K_MAX

    def grid(self) -> List[int]:
        return list(range(self.k_start, self.k_max + 1, self.k_step))


@dataclass
class SamplePoint:
    """Measurements for one estimator at one sample size K."""

    samples: int
    average_reliability: float  # R_K, Eq. 13
    average_variance: float  # V_K, Eq. 12
    dispersion: float  # rho_K = V_K / R_K
    per_pair_means: np.ndarray  # mean estimate per pair across repeats
    seconds_per_query: float  # wall time per s-t query (one repeat)
    memory_bytes: int  # estimator-reported online working set

    @property
    def milliseconds_per_sample(self) -> float:
        return 1000.0 * self.seconds_per_query / self.samples


@dataclass
class ConvergenceResult:
    """Full grid walk for one estimator on one workload."""

    estimator_key: str
    points: List[SamplePoint] = field(default_factory=list)
    converged_at: Optional[int] = None

    @property
    def convergence_point(self) -> SamplePoint:
        """The measured point at convergence (last grid point otherwise)."""
        if not self.points:
            raise ValueError("no measured points")
        if self.converged_at is not None:
            for point in self.points:
                if point.samples == self.converged_at:
                    return point
        return self.points[-1]

    def point_at(self, samples: int) -> Optional[SamplePoint]:
        for point in self.points:
            if point.samples == samples:
                return point
        return None


def evaluate_at_k(
    estimator: Estimator,
    workload: QueryWorkload,
    samples: int,
    repeats: int,
    seed: int = 0,
) -> SamplePoint:
    """Measure one (estimator, K) grid point over the whole workload.

    Every (pair, repeat) cell is one independent :meth:`Estimator.estimate`
    run on its own RNG substream keyed by ``(seed, pair, repeat, K)`` —
    the paper's protocol of fully independent runs.  Query wall time is
    averaged over all runs; the estimator's self-reported working set is
    sampled after the last query.
    """
    pair_count = len(workload)
    estimates = np.zeros((pair_count, repeats), dtype=np.float64)
    started = time.perf_counter()
    for pair_index, (source, target) in enumerate(workload):
        for repeat in range(repeats):
            rng = stable_substream(seed, pair_index, repeat, samples)
            estimates[pair_index, repeat] = estimator.estimate(
                source, target, samples, rng=rng
            )
    elapsed = time.perf_counter() - started

    per_pair_means = estimates.mean(axis=1)
    if repeats > 1:
        per_pair_variance = estimates.var(axis=1, ddof=1)
    else:
        per_pair_variance = np.zeros(pair_count)
    average_reliability = float(per_pair_means.mean())
    average_variance = float(per_pair_variance.mean())
    return SamplePoint(
        samples=samples,
        average_reliability=average_reliability,
        average_variance=average_variance,
        dispersion=dispersion_index(average_variance, average_reliability),
        per_pair_means=per_pair_means,
        seconds_per_query=elapsed / (pair_count * repeats),
        memory_bytes=estimator.memory_bytes(),
    )


def run_convergence(
    estimator: Estimator,
    workload: QueryWorkload,
    criterion: ConvergenceCriterion = ConvergenceCriterion(),
    repeats: int = DEFAULT_REPEATS,
    seed: int = 0,
    stop_at_convergence: bool = False,
) -> ConvergenceResult:
    """Walk the K grid until the dispersion criterion fires.

    With ``stop_at_convergence=False`` (default) the full grid is measured —
    needed by the trade-off figures (9-11), which plot past convergence.
    """
    result = ConvergenceResult(estimator_key=getattr(estimator, "key", "?"))
    for samples in criterion.grid():
        point = evaluate_at_k(estimator, workload, samples, repeats, seed)
        result.points.append(point)
        converged = (
            result.converged_at is None
            and point.dispersion < criterion.dispersion_threshold
        )
        if converged:
            result.converged_at = samples
            if stop_at_convergence:
                break
    return result


__all__ = [
    "DISPERSION_THRESHOLD",
    "ConvergenceCriterion",
    "SamplePoint",
    "ConvergenceResult",
    "evaluate_at_k",
    "run_convergence",
]
