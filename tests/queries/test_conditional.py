"""Conditional reliability: ordinary reliability on the conditioned graph."""

import pytest
from hypothesis import given, settings

from repro.core.bounds import reliability_bounds
from repro.core.exact import reliability_exact
from repro.core.graph import UncertainGraph
from repro.engine.batch import BatchEngine
from repro.queries.conditional import (
    condition_graph,
    conditional_reliability,
    failure_impact,
)
from tests.conftest import random_graph, small_graph_parts


def edge_map(graph):
    return {(u, v): p for u, v, p in graph.iter_edges()}


class TestConditionGraph:
    def test_present_and_absent(self, diamond_graph):
        conditioned = condition_graph(
            diamond_graph, present_edges=[(0, 1)], absent_edges=[(2, 3)]
        )
        assert edge_map(conditioned) == {
            (0, 1): 1.0, (0, 2): 0.5, (1, 3): 0.5
        }
        # Copy-on-write: the input graph is untouched.
        assert diamond_graph.edge_count == 4

    def test_failed_node_kills_incident_edges(self, diamond_graph):
        conditioned = condition_graph(diamond_graph, failed_nodes=[1])
        assert edge_map(conditioned) == {(0, 2): 0.5, (2, 3): 0.5}

    def test_repeated_observations_are_one_observation(self, diamond_graph):
        conditioned = condition_graph(
            diamond_graph,
            present_edges=[(0, 2), (0, 2)],
            absent_edges=[(0, 1), (0, 1)],
            failed_nodes=[1, 1],
        )
        assert edge_map(conditioned) == {(0, 2): 1.0, (2, 3): 0.5}

    def test_empty_condition_returns_the_input_graph(self, diamond_graph):
        assert condition_graph(diamond_graph) is diamond_graph
        isolated = UncertainGraph(3, [(0, 1, 0.5)])
        assert condition_graph(isolated, failed_nodes=[2]) is isolated

    def test_all_edges_absent(self, diamond_graph):
        edges = list(edge_map(diamond_graph))
        conditioned = condition_graph(diamond_graph, absent_edges=edges)
        assert conditioned.node_count == 4
        assert conditioned.edge_count == 0

    def test_conflict_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="both present and absent"):
            condition_graph(
                diamond_graph, present_edges=[(0, 1)], absent_edges=[(0, 1)]
            )
        with pytest.raises(ValueError, match="both present and absent"):
            condition_graph(
                diamond_graph, present_edges=[(0, 1)], failed_nodes=[1]
            )

    def test_missing_edge_rejected(self, diamond_graph):
        # apply_update alone would insert (3, 0); observing it is an error.
        with pytest.raises(ValueError, match="not present"):
            condition_graph(diamond_graph, present_edges=[(3, 0)])
        with pytest.raises(ValueError, match="not present"):
            condition_graph(diamond_graph, absent_edges=[(3, 0)])

    def test_out_of_range_nodes_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="failed node"):
            condition_graph(diamond_graph, failed_nodes=[4])
        with pytest.raises(ValueError, match="edge target"):
            condition_graph(diamond_graph, absent_edges=[(0, 9)])


class TestConditionalReliability:
    def test_matches_exact_on_the_conditioned_graph(self):
        graph = random_graph(2, node_count=6, edge_probability=0.5)
        edges = [pair for pair in edge_map(graph) if 4 not in pair]
        condition = dict(
            present_edges=edges[3:4], absent_edges=edges[-2:], failed_nodes=[4]
        )
        exact = reliability_exact(condition_graph(graph, **condition), 0, 5)
        assert exact == pytest.approx(0.4871, abs=1e-4)  # unconditioned: 0.688
        value = conditional_reliability(
            graph, 0, 5, samples=20_000, seed=1, **condition
        )
        assert value == pytest.approx(exact, abs=0.015)

    def test_is_the_engines_answer_on_the_conditioned_graph(self, diamond_graph):
        conditioned = condition_graph(diamond_graph, absent_edges=[(0, 1)])
        batch = BatchEngine(conditioned, seed=6).run([(0, 3, 300)])
        value = conditional_reliability(
            diamond_graph, 0, 3, absent_edges=[(0, 1)], samples=300, seed=6
        )
        assert value == batch.estimates[0]
        lower, upper = reliability_bounds(conditioned, 0, 3)
        assert lower <= 0.25 <= upper

    def test_no_condition_equals_plain_reliability(self, diamond_graph):
        value = conditional_reliability(diamond_graph, 0, 3, samples=40_000)
        assert value == pytest.approx(0.4375, abs=0.01)

    def test_conditioning_on_path_gives_one(self, diamond_graph):
        value = conditional_reliability(
            diamond_graph, 0, 3, present_edges=[(0, 1), (1, 3)], samples=300
        )
        assert value == 1.0

    def test_conditioning_out_upper_path(self, diamond_graph):
        # Remaining path: 0 -> 2 -> 3 with probability 0.25.
        value = conditional_reliability(
            diamond_graph, 0, 3, absent_edges=[(0, 1)], samples=40_000, seed=1
        )
        assert value == pytest.approx(0.25, abs=0.01)

    def test_failed_intermediate_node(self, diamond_graph):
        value = conditional_reliability(
            diamond_graph, 0, 3, failed_nodes=[1], samples=40_000, seed=2
        )
        assert value == pytest.approx(0.25, abs=0.01)

    def test_failed_all_intermediates_gives_zero(self, diamond_graph):
        value = conditional_reliability(
            diamond_graph, 0, 3, failed_nodes=[1, 2], samples=500, seed=3
        )
        assert value == 0.0
        edgeless = condition_graph(diamond_graph, failed_nodes=[1, 2])
        assert reliability_exact(edgeless, 0, 3) == 0.0

    def test_source_equals_target(self, diamond_graph):
        assert conditional_reliability(diamond_graph, 2, 2, samples=10) == 1.0

    def test_invalid_queries_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="target"):
            conditional_reliability(diamond_graph, 0, 4)
        with pytest.raises(ValueError, match="samples"):
            conditional_reliability(diamond_graph, 0, 3, samples=0)

    @given(small_graph_parts)
    @settings(max_examples=25, deadline=None)
    def test_conditioning_all_edges_present_is_deterministic(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        target = node_count - 1
        value = conditional_reliability(
            graph, 0, target, present_edges=list(edge_map(graph)), samples=24
        )
        # All edges pinned up: reachability is the certain-graph indicator.
        reachable = graph.bfs_distances(0)[target] >= 0
        assert value == (1.0 if reachable else 0.0)

    @given(small_graph_parts)
    @settings(max_examples=25, deadline=None)
    def test_conditioning_all_edges_absent_gives_zero(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        value = conditional_reliability(
            graph, 0, node_count - 1,
            absent_edges=list(edge_map(graph)), samples=24,
        )
        assert value == 0.0

    @given(small_graph_parts)
    @settings(max_examples=20, deadline=None)
    def test_failing_every_other_node_isolates(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        target = node_count - 1
        others = [v for v in range(node_count) if v not in (0, target)]
        conditioned = condition_graph(graph, failed_nodes=others)
        # Only a direct edge can survive, so the exact value is its
        # probability and the estimate is its frequency.
        direct = graph.edge_probability(0, target) or 0.0
        assert reliability_exact(conditioned, 0, target) == pytest.approx(direct)
        value = conditional_reliability(
            graph, 0, target, failed_nodes=others, samples=64
        )
        assert 0.0 <= value <= 1.0
        if direct in (0.0, 1.0):
            assert value == direct


class TestFailureImpact:
    def test_critical_node_ranked_first(self):
        # 0 -> 1 -> 3 strong path; 0 -> 2 -> 3 weak path: node 1 failure
        # hurts much more than node 2 failure.
        graph = UncertainGraph(
            4, [(0, 1, 0.9), (1, 3, 0.9), (0, 2, 0.2), (2, 3, 0.2)]
        )
        ranking = failure_impact(graph, 0, 3, [1, 2], samples=8_000)
        assert ranking[0][0] == 1
        assert ranking[0][2] > ranking[1][2]

    def test_endpoints_excluded(self, diamond_graph):
        ranking = failure_impact(diamond_graph, 0, 3, [0, 1, 3], samples=500)
        assert [node for node, _, _ in ranking] == [1]

    def test_drop_is_nonnegative_in_expectation(self, diamond_graph):
        ranking = failure_impact(
            diamond_graph, 0, 3, [1, 2], samples=8_000, seed=1
        )
        for _, _, drop in ranking:
            assert drop > -0.02  # sampling noise only
