"""Estimator registry: string keys to estimator factories.

The experiment runner, benchmarks, and examples all address estimators by
key, so sweeps over "all six methods" are data, not code.  The six keys of
the paper's study are in :data:`PAPER_ESTIMATORS`; ``lp`` (the uncorrected
Lazy Propagation) is registered too for the Fig. 5 experiment but excluded
from the default suite, mirroring the paper.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.core.estimators.base import Estimator
from repro.core.estimators.bfs_sharing import BFSSharingEstimator
from repro.core.estimators.importance import ImportanceSamplingEstimator
from repro.core.estimators.lazy_propagation import (
    LazyPropagationEstimator,
    LazyPropagationOriginal,
)
from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.core.estimators.prob_tree import ProbTreeEstimator
from repro.core.estimators.recursive_rhh import (
    DynamicMCEstimator,
    RecursiveSamplingEstimator,
)
from repro.core.estimators.recursive_rss import RecursiveStratifiedEstimator
from repro.core.estimators.strata import BFSStratifiedEstimator
from repro.core.graph import UncertainGraph

_REGISTRY: Dict[str, Type[Estimator]] = {
    MonteCarloEstimator.key: MonteCarloEstimator,
    BFSSharingEstimator.key: BFSSharingEstimator,
    ProbTreeEstimator.key: ProbTreeEstimator,
    LazyPropagationEstimator.key: LazyPropagationEstimator,
    LazyPropagationOriginal.key: LazyPropagationOriginal,
    RecursiveSamplingEstimator.key: RecursiveSamplingEstimator,
    DynamicMCEstimator.key: DynamicMCEstimator,
    RecursiveStratifiedEstimator.key: RecursiveStratifiedEstimator,
    ImportanceSamplingEstimator.key: ImportanceSamplingEstimator,
    BFSStratifiedEstimator.key: BFSStratifiedEstimator,
}

#: The six estimators of the paper's study, in its presentation order.
PAPER_ESTIMATORS: List[str] = [
    "mc",
    "bfs_sharing",
    "prob_tree",
    "lp_plus",
    "rhh",
    "rss",
]

#: The post-paper variance-reduction sampler family (ROADMAP: importance
#: sampling with calibrated occurrence counts, BFS-distance strata).
#: Not part of :data:`PAPER_ESTIMATORS` — the paper's six-method study is
#: pinned — but registered, conformance-gated, and routable.
VARIANCE_SAMPLERS: List[str] = ["importance", "strata"]


def estimator_keys() -> List[str]:
    """All registered keys (including the uncorrected ``lp``)."""
    return sorted(_REGISTRY)


def estimator_class(key: str) -> Type[Estimator]:
    """Look up an estimator class by key."""
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown estimator {key!r}; known keys: {', '.join(sorted(_REGISTRY))}"
        ) from None


def create_estimator(key: str, graph: UncertainGraph, **options) -> Estimator:
    """Instantiate the estimator ``key`` on ``graph``.

    ``options`` are forwarded to the estimator constructor (e.g.
    ``threshold=`` for RHH/RSS, ``capacity=`` for BFS Sharing,
    ``estimator_factory=`` for ProbTree coupling).
    """
    return estimator_class(key)(graph, **options)


def display_name(key: str) -> str:
    """Human-readable estimator name (as printed in the paper's tables)."""
    return estimator_class(key).display_name


__all__ = [
    "PAPER_ESTIMATORS",
    "VARIANCE_SAMPLERS",
    "estimator_keys",
    "estimator_class",
    "create_estimator",
    "display_name",
]
