"""Workload planning for the batch engine: validate, deduplicate, group.

The paper's cost model (§2.2, §3.7) says sampling possible worlds dominates
s-t reliability estimation, so the engine's job is to do as little of it as
possible.  Planning prepares a raw workload for the shared-world sweep of
:mod:`repro.engine.batch`:

* **Validation** — every ``(source, target, K)`` triple is checked against
  the graph once, so the sweep loop runs assertion-free;
* **Deduplication** — repeated queries collapse to one slot, evaluated once
  and scattered back to every original position;
* **Grouping by (source, hop bound)** — queries sharing a source *and* a
  hop bound share one BFS sweep per world (the multi-target generalisation
  of Alg. 1's early-terminating walk), exactly the "share the traversal,
  not just the worlds" trick of BFS Sharing (§2.3) applied at batch
  granularity.  Distance-constrained queries (§2.9 d-hop reliability)
  carry an optional ``max_hops`` bound and form their own groups, because
  a hop-bounded sweep answers a different indicator than an unbounded one.

A plan is immutable and independent of chunking, so the same plan yields
identical estimates whatever ``chunk_size`` streams the worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.estimators.base import BatchQuery, QueryLike, as_query
from repro.core.graph import UncertainGraph
from repro.util.validation import check_node, check_positive


class SourceGroup(NamedTuple):
    """All unique queries sharing one ``(source, max_hops)`` pair.

    ``targets[i]`` belongs to the unique query ``query_indices[i]`` whose
    budget is ``samples[i]``; one (hop-bounded) sweep per world answers
    the whole group.
    """

    source: int
    targets: np.ndarray  # int64, aligned with query_indices
    query_indices: np.ndarray  # indices into QueryPlan.queries
    samples: np.ndarray  # int64 per-query budgets
    k_max: int  # sweeps are needed only for world indices < k_max
    max_hops: Optional[int] = None  # shared hop bound (None = unbounded)


@dataclass(frozen=True)
class QueryPlan:
    """A validated, deduplicated workload ready for the world sweep."""

    queries: Tuple[BatchQuery, ...]  # unique queries, first-seen order
    assignment: Tuple[int, ...]  # original position -> unique index
    groups: Tuple[SourceGroup, ...]  # one per distinct (source, max_hops)
    k_max: int  # largest budget over the whole plan

    def __len__(self) -> int:
        return len(self.assignment)

    @property
    def unique_count(self) -> int:
        return len(self.queries)

    def scatter(self, unique_values: np.ndarray) -> np.ndarray:
        """Map per-unique-query values back onto the original order."""
        if len(self.assignment) == 0:
            return np.empty(0, dtype=np.asarray(unique_values).dtype)
        return np.asarray(unique_values)[np.asarray(self.assignment)]


def plan_queries(
    graph: UncertainGraph, queries: Iterable[QueryLike]
) -> QueryPlan:
    """Build the evaluation plan for ``queries`` over ``graph``.

    Order of results is preserved through :attr:`QueryPlan.assignment`;
    an empty workload yields an empty (but valid) plan.
    """
    unique: Dict[BatchQuery, int] = {}
    assignment: List[int] = []
    ordered: List[BatchQuery] = []
    for item in queries:
        query = as_query(item)
        check_node(query.source, graph.node_count, "source")
        check_node(query.target, graph.node_count, "target")
        check_positive(query.samples, "samples")
        if query.max_hops is not None:
            check_positive(query.max_hops, "max_hops")
        index = unique.get(query)
        if index is None:
            index = len(ordered)
            unique[query] = index
            ordered.append(query)
        assignment.append(index)

    by_group: Dict[Tuple[int, Optional[int]], List[int]] = {}
    for index, query in enumerate(ordered):
        by_group.setdefault((query.source, query.max_hops), []).append(index)

    groups = []
    # Deterministic group order: by source, bounded groups (ascending hop
    # bound) before the unbounded one.  Order never affects estimates —
    # hit counts are per-query — only the sweep schedule.
    for source, max_hops in sorted(
        by_group, key=lambda key: (key[0], key[1] is None, key[1] or 0)
    ):
        members = by_group[(source, max_hops)]
        indices = np.asarray(members, dtype=np.int64)
        samples = np.asarray(
            [ordered[i].samples for i in members], dtype=np.int64
        )
        groups.append(
            SourceGroup(
                source=source,
                targets=np.asarray(
                    [ordered[i].target for i in members], dtype=np.int64
                ),
                query_indices=indices,
                samples=samples,
                k_max=int(samples.max()),
                max_hops=max_hops,
            )
        )

    k_max = max((query.samples for query in ordered), default=0)
    return QueryPlan(
        queries=tuple(ordered),
        assignment=tuple(assignment),
        groups=tuple(groups),
        k_max=k_max,
    )


__all__ = [
    "SourceGroup",
    "QueryPlan",
    "plan_queries",
]
