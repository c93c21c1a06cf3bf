"""Conditional reliability (Khan et al., TKDE'18; paper §2.9).

``R(s, t | E+, E-, V-)``: the s-t reliability *given* that the edges in
``E+`` are known to be up, the edges in ``E-`` known to be down, and the
nodes in ``V-`` failed (all their incident edges down).  Edges are
independent, so conditioning on an edge's state just fixes it: the
conditional reliability on ``G`` is the ordinary reliability on the
**conditioned graph** — ``E+`` at probability 1, ``E-`` and everything
incident to ``V-`` removed.  :func:`condition_graph` builds that graph
with :func:`~repro.core.mutation.apply_update`, and anything that answers
reliability answers the conditional query on it: the batch engine (as
:func:`conditional_reliability` does), any estimator,
:func:`~repro.core.exact.reliability_exact`,
:func:`~repro.core.bounds.reliability_bounds`.

Typical uses: "what is the delivery probability if this router is down?"
or "we just observed this link alive — how does the picture change?".
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.graph import UncertainGraph
from repro.core.mutation import EdgePair, apply_update
from repro.engine.batch import BatchEngine
from repro.util.validation import check_node


def condition_graph(
    graph: UncertainGraph,
    present_edges: Iterable[EdgePair] = (),
    absent_edges: Iterable[EdgePair] = (),
    failed_nodes: Iterable[int] = (),
) -> UncertainGraph:
    """``graph`` under the conditioning event (the input graph if empty).

    ``present_edges`` become certain, ``absent_edges`` and every edge
    incident (in or out) to a ``failed_nodes`` member are removed.  Every
    named edge must exist — conditioning observes edges, it cannot add
    them — and conflicts (an edge both up and down) are rejected.
    """

    def existing(pair: EdgePair) -> EdgePair:
        source = check_node(int(pair[0]), graph.node_count, "edge source")
        target = check_node(int(pair[1]), graph.node_count, "edge target")
        if graph.edge_probability(source, target) is None:
            raise ValueError(f"edge {pair!r} not present in the graph")
        return source, target

    present = {existing(pair) for pair in present_edges}
    absent = {existing(pair) for pair in absent_edges}
    failed = {
        check_node(int(node), graph.node_count, "failed node")
        for node in failed_nodes
    }
    if failed:
        absent.update(
            (source, target)
            for source, target, _ in graph.iter_edges()
            if source in failed or target in failed
        )
    conflicts = sorted(present & absent)
    if conflicts:
        raise ValueError(
            f"edge {conflicts[0]!r} conditioned both present and absent"
        )
    if not present and not absent:
        return graph
    return apply_update(
        graph,
        set_edges=[(source, target, 1.0) for source, target in sorted(present)],
        remove_edges=sorted(absent),
    ).graph


def conditional_reliability(
    graph: UncertainGraph,
    source: int,
    target: int,
    *,
    present_edges: Iterable[EdgePair] = (),
    absent_edges: Iterable[EdgePair] = (),
    failed_nodes: Iterable[int] = (),
    samples: int = 1_000,
    seed: Optional[int] = 0,
) -> float:
    """Engine estimate of ``R(source, target)`` under the conditioning event.

    Worlds ``[0, samples)`` of the conditioned graph's stream at ``seed``
    — the number ``/v1/batch`` would answer on that graph.
    """
    conditioned = condition_graph(
        graph, present_edges, absent_edges, failed_nodes
    )
    result = BatchEngine(conditioned, seed=seed).run(
        [(source, target, samples)]
    )
    return float(result.estimates[0])


def failure_impact(
    graph: UncertainGraph,
    source: int,
    target: int,
    candidate_nodes: Sequence[int],
    samples: int = 1_000,
    seed: Optional[int] = 0,
) -> List[Tuple[int, float, float]]:
    """Reliability drop caused by each candidate node's failure.

    Returns ``[(node, conditional_reliability, drop)]`` sorted by largest
    drop — a simple criticality ranking for network-maintenance scenarios.
    """
    baseline = conditional_reliability(
        graph, source, target, samples=samples, seed=seed
    )
    ranking = []
    for node in candidate_nodes:
        if node in (source, target):
            continue
        value = conditional_reliability(
            graph, source, target,
            failed_nodes=[node], samples=samples, seed=seed,
        )
        ranking.append((int(node), value, baseline - value))
    ranking.sort(key=lambda item: (-item[2], item[0]))
    return ranking


__all__ = ["condition_graph", "conditional_reliability", "failure_impact"]
