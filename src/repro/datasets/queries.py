"""Query workloads: s-t pairs at a controlled hop distance (paper §3.1.3).

The paper evaluates every estimator on the *same* 100 s-t pairs per dataset:
100 distinct sources drawn uniformly, each paired with a target picked
uniformly among the nodes exactly 2 BFS hops away; §3.9's sweep over the hop
distance h in {2, 4, 6, 8} calls the same generator once per h.  Seeding is
deterministic, so a workload can be shared across estimators, processes
and runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.graph import UncertainGraph
from repro.util.rng import SeedLike, ensure_generator

DEFAULT_HOP_DISTANCE = 2  # paper default: targets 2 hops from the source


class WorkloadError(RuntimeError):
    """Raised when a graph cannot supply the requested number of pairs."""


@dataclass(frozen=True)
class QueryWorkload:
    """An ordered set of s-t pairs, identical for all competing estimators."""

    pairs: Tuple[Tuple[int, int], ...]
    hop_distance: int
    seed: int

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def generate_workload(
    graph: UncertainGraph,
    pair_count: int = 100,
    hop_distance: int = DEFAULT_HOP_DISTANCE,
    seed: SeedLike = 0,
    max_attempts_factor: int = 50,
) -> QueryWorkload:
    """Sample ``pair_count`` s-t pairs at exactly ``hop_distance`` BFS hops.

    Protocol (paper §3.1.3): draw a source uniformly among not-yet-used
    nodes with at least one out-edge; BFS to ``hop_distance`` hops; pick the
    target uniformly among nodes at exactly that distance; retry with a new
    source when none exists.  Raises :class:`WorkloadError` if the graph
    cannot supply enough pairs within ``max_attempts_factor * pair_count``
    attempts (e.g. asking for distance-8 pairs of a dense small world).
    """
    if pair_count <= 0:
        raise ValueError(f"pair_count must be positive, got {pair_count}")
    if hop_distance <= 0:
        raise ValueError(f"hop_distance must be positive, got {hop_distance}")
    rng = ensure_generator(seed)
    used_sources = set()
    pairs: List[Tuple[int, int]] = []
    attempts = 0
    budget = max_attempts_factor * pair_count
    while len(pairs) < pair_count:
        attempts += 1
        if attempts > budget:
            raise WorkloadError(
                f"could not find {pair_count} pairs at distance {hop_distance} "
                f"within {budget} attempts ({len(pairs)} found); the graph may "
                "be too small or too shallow for this distance"
            )
        source = int(rng.integers(graph.node_count))
        if source in used_sources or graph.out_degree(source) == 0:
            continue
        distances = graph.bfs_distances(source, max_hops=hop_distance)
        candidates = np.nonzero(distances == hop_distance)[0]
        if candidates.size == 0:
            continue
        used_sources.add(source)
        target = int(candidates[int(rng.integers(candidates.size))])
        pairs.append((source, target))
    base_seed = seed if isinstance(seed, int) else -1
    return QueryWorkload(
        pairs=tuple(pairs), hop_distance=hop_distance, seed=base_seed
    )


__all__ = [
    "DEFAULT_HOP_DISTANCE",
    "QueryWorkload",
    "WorkloadError",
    "generate_workload",
]
