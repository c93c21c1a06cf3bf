"""One-source queries on the engine's world stream (paper §2.3, §2.9).

BFS Sharing was *originally* proposed to find the k targets with maximum
reliability from a source (Zhu et al., ICDM'15) — the paper trims it down
to s-t queries for the comparison.  The batch engine's chunk sweep is
that design: one shared fixpoint per source resolves *every* node in
every world of a chunk.  A source's all-targets **row** is therefore one
:meth:`~repro.engine.batch.BatchEngine.run_range` over the workload
``[(source, v, K) for v in nodes]`` — a single plan group, one fixpoint
per chunk, integer hit counts — and the queries here only rank,
threshold or re-bound it:

* :func:`top_k_reliable_targets` — the k best entries of the row;
* :func:`reliable_set` — the entries at or above a threshold (Khan et
  al., EDBT'14);
* :func:`distance_profile` — one s-t pair under every hop bound
  ``1..D`` (Jin et al., PVLDB'11), the engine's ``max_hops`` served
  from shared worlds.

Every number is ``hits / K`` over worlds ``[0, K)`` of the engine's
stream at ``seed``, so it equals — bit for bit — what ``/v1/batch``
answers for the same ``(source, target, K[, max_hops])`` at that seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.estimators.base import EngineFactory
from repro.core.graph import UncertainGraph
from repro.engine.batch import BatchEngine
from repro.util.validation import check_positive, check_probability

Ranking = List[Tuple[int, float]]


def all_reliabilities(
    graph: UncertainGraph,
    source: int,
    samples: int = 1_000,
    *,
    seed: Optional[int] = 0,
    engine: EngineFactory = BatchEngine,
) -> np.ndarray:
    """Estimated ``R(source, v)`` for every node ``v`` (the source's row).

    ``engine`` is the factory ``engine(graph, seed=...) -> BatchEngine``
    of :func:`~repro.core.estimators.base.run_engine_batch`: a service
    hands in its own so the row inherits its chunk size.
    The row goes through ``run_range``, not ``run``: ``node_count``
    one-off estimates have no business in the result cache.
    """
    check_positive(samples, "samples")  # the planner checks the rest
    row = engine(graph, seed=seed).run_range(
        [(source, node, samples) for node in range(graph.node_count)],
        0,
        samples,
    )
    return row.hits / samples


def _ranking(
    reliabilities: np.ndarray, source: int, include_source: bool
) -> Ranking:
    """The row in decreasing reliability, ties broken by node id."""
    order = np.lexsort((np.arange(reliabilities.size), -reliabilities))
    if not include_source:
        order = order[order != source]
    return list(zip(order.tolist(), reliabilities[order].tolist()))


def top_k_reliable_targets(
    graph: UncertainGraph,
    source: int,
    k: int,
    samples: int = 1_000,
    *,
    seed: Optional[int] = 0,
    engine: EngineFactory = BatchEngine,
    include_source: bool = False,
) -> Ranking:
    """The ``k`` targets with the highest estimated reliability from source.

    Ties are broken by node id for determinism.  The source itself
    (reliability 1 by definition) is excluded unless ``include_source``.
    """
    check_positive(k, "k")
    reliabilities = all_reliabilities(
        graph, source, samples, seed=seed, engine=engine
    )
    return _ranking(reliabilities, source, include_source)[:k]


def reliable_set(
    graph: UncertainGraph,
    source: int,
    threshold: float,
    samples: int = 1_000,
    *,
    seed: Optional[int] = 0,
    include_source: bool = False,
) -> Ranking:
    """All nodes with estimated ``R(source, v) >= threshold``.

    Returned in decreasing reliability (ties by node id).  The source node
    itself is excluded unless ``include_source``.
    """
    threshold = check_probability(threshold, "threshold")
    reliabilities = all_reliabilities(graph, source, samples, seed=seed)
    return [
        member
        for member in _ranking(reliabilities, source, include_source)
        if member[1] >= threshold
    ]


def distance_profile(
    graph: UncertainGraph,
    source: int,
    target: int,
    max_distance: int,
    samples: int = 1_000,
    *,
    seed: Optional[int] = 0,
) -> np.ndarray:
    """``R_d(source, target)`` for every hop bound ``d in 1..max_distance``.

    Useful for picking the distance bound of a constrained query: the
    profile saturates at the unconstrained reliability.  All bounds are
    evaluated against the same worlds, so the profile is monotone in
    ``d`` by construction, not merely in expectation.
    """
    check_positive(max_distance, "max_distance")
    result = BatchEngine(graph, seed=seed).run(
        [
            (source, target, samples, distance)
            for distance in range(1, max_distance + 1)
        ]
    )
    return result.estimates


__all__ = [
    "Ranking",
    "all_reliabilities",
    "distance_profile",
    "reliable_set",
    "top_k_reliable_targets",
]
