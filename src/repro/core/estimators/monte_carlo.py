"""Basic Monte Carlo sampling with BFS early termination (paper §2.2, Alg. 1).

The estimator draws ``K`` possible worlds lazily: an edge is sampled only
when the BFS frontier reaches its source node, and each world's BFS stops as
soon as the target is visited.  The estimate is the hit rate (Eq. 3); its
variance is Binomial, ``R(1-R)/K`` (Eq. 4).
Guide with accuracy/speed/memory trade-offs: ``docs/estimators.md``.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.estimators.base import (
    EngineFactory,
    Estimator,
    run_engine_batch,
)
from repro.core.graph import UncertainGraph
from repro.core.possible_world import ReachabilitySampler
from repro.util.rng import SeedLike


class MonteCarloEstimator(Estimator):
    """Hit-and-miss MC sampling (Fishman '86), the baseline of the study."""

    key = "mc"
    display_name = "MC"
    uses_index = False
    batch_path = "engine"

    def __init__(self, graph: UncertainGraph, *, seed: SeedLike = None) -> None:
        super().__init__(graph, seed=seed)
        self._sampler = ReachabilitySampler(graph)

    def _rebind_graph(self, graph: UncertainGraph) -> None:
        self._sampler = ReachabilitySampler(graph)

    def _estimate(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        return self._sampler.estimate(source, target, samples, rng)

    def estimate_batch(
        self,
        queries: Iterable[Sequence[int]],
        *,
        seed: Optional[int] = None,
        engine: Optional[EngineFactory] = None,
    ) -> np.ndarray:
        """Shared-world fast path via the batch engine (paper §2.2/§3.7).

        Every possible world is sampled once and swept for all pending
        queries, instead of the base class's K-samples-per-query loop.
        MC's estimate is a pure hit rate over worlds, so evaluating many
        queries against one world stream keeps each estimate's marginal
        distribution identical to a per-query run over that stream.  With
        ``seed=None`` the world-stream root is drawn from the estimator's
        own generator, matching the base class's fallback to the
        constructor seed (reproducible iff the estimator was seeded).

        Unlike the base fallback, this path also serves hop-bounded
        ``(source, target, samples, max_hops)`` queries (§2.9).  The
        ``engine`` factory decides everything else about the run —
        result cache, worker processes, kernels, chunk size — none of
        which can change an estimate (the engine's determinism contract).
        """
        return run_engine_batch(self, queries, seed=seed, engine=engine)

    def memory_bytes(self) -> int:
        # Graph + the reusable visited-epoch array + the frontier queue;
        # MC keeps nothing else alive between samples (paper §2.8).
        visited_bytes = self.graph.node_count * np.dtype(np.int64).itemsize
        return super().memory_bytes() + visited_bytes


__all__ = ["MonteCarloEstimator"]
