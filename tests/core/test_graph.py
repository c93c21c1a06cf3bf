"""Tests for the UncertainGraph CSR structure and builder."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.graph import EdgeStatistics, GraphBuilder, UncertainGraph, or_combine
from tests.conftest import small_graph_parts


class TestOrCombine:
    def test_basic(self):
        assert or_combine(0.5, 0.5) == pytest.approx(0.75)

    def test_identity(self):
        assert or_combine(0.0, 0.3) == pytest.approx(0.3)

    def test_certain_edge_dominates(self):
        assert or_combine(1.0, 0.2) == pytest.approx(1.0)


class TestConstruction:
    def test_basic_csr_layout(self):
        graph = UncertainGraph(3, [(0, 1, 0.5), (0, 2, 0.4), (1, 2, 0.9)])
        assert graph.node_count == 3
        assert graph.edge_count == 3
        np.testing.assert_array_equal(graph.indptr, [0, 2, 3, 3])
        np.testing.assert_array_equal(graph.targets, [1, 2, 2])
        np.testing.assert_allclose(graph.probs, [0.5, 0.4, 0.9])

    def test_parallel_edges_or_merged(self):
        graph = UncertainGraph(2, [(0, 1, 0.5), (0, 1, 0.5)])
        assert graph.edge_count == 1
        assert graph.probs[0] == pytest.approx(0.75)

    def test_self_loops_dropped(self):
        graph = UncertainGraph(2, [(0, 0, 0.9), (0, 1, 0.5)])
        assert graph.edge_count == 1
        assert graph.targets[0] == 1

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            UncertainGraph(2, [(0, 1, 0.0)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            UncertainGraph(2, [(0, 5, 0.5)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            UncertainGraph(-1, [])

    def test_empty_graph(self):
        graph = UncertainGraph(0, [])
        assert graph.node_count == 0
        assert graph.edge_count == 0

    def test_isolated_nodes(self):
        graph = UncertainGraph(10, [(0, 1, 0.5)])
        assert graph.out_degree(5) == 0
        assert graph.in_degree(5) == 0


class TestAccessors:
    @pytest.fixture
    def graph(self) -> UncertainGraph:
        return UncertainGraph(
            4, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3), (2, 3, 0.4), (3, 0, 0.5)]
        )

    def test_edge_source(self, graph):
        np.testing.assert_array_equal(graph.edge_sources, [0, 0, 1, 2, 3])

    def test_edge_probability_lookup(self, graph):
        assert graph.edge_probability(0, 2) == pytest.approx(0.2)
        assert graph.edge_probability(2, 0) is None

    def test_iter_edges_roundtrip(self, graph):
        rebuilt = UncertainGraph(4, graph.iter_edges())
        assert rebuilt == graph

    def test_reverse_csr(self, graph):
        sources, edge_ids = graph.in_edges(2)
        assert sorted(sources.tolist()) == [0, 1]
        # Reverse edge ids must map back to forward probabilities.
        probs = sorted(graph.probs[edge_ids].tolist())
        assert probs == pytest.approx([0.2, 0.3])

    def test_degrees(self, graph):
        assert graph.out_degree(0) == 2
        assert graph.in_degree(0) == 1

    def test_memory_bytes_positive(self, graph):
        assert graph.memory_bytes() > 0


class TestEquality:
    EDGES = [(0, 1, 0.1), (1, 2, 0.3), (2, 0, 0.5)]

    def test_edge_order_does_not_matter(self):
        assert UncertainGraph(3, self.EDGES) == UncertainGraph(3, self.EDGES[::-1])

    def test_probability_change_breaks_equality(self):
        changed = [(0, 1, 0.1), (1, 2, 0.3), (2, 0, 0.6)]
        assert UncertainGraph(3, self.EDGES) != UncertainGraph(3, changed)

    def test_extra_isolated_node_breaks_equality(self):
        assert UncertainGraph(3, self.EDGES) != UncertainGraph(4, self.EDGES)

    def test_other_types_are_not_equal(self):
        assert UncertainGraph(3, self.EDGES) != list(self.EDGES)

    def test_from_edge_arrays_matches_constructor(self):
        sources, targets, probs = (np.array(column) for column in zip(*self.EDGES))
        built = UncertainGraph.from_edge_arrays(3, sources, targets, probs)
        assert built == UncertainGraph(3, self.EDGES)


class TestBfsDistances:
    def test_chain_distances(self, chain_graph):
        distances = chain_graph.bfs_distances(0)
        np.testing.assert_array_equal(distances, [0, 1, 2, 3])

    def test_unreachable_is_minus_one(self):
        graph = UncertainGraph(3, [(0, 1, 0.5)])
        assert graph.bfs_distances(0)[2] == -1

    def test_max_hops_truncates(self, chain_graph):
        distances = chain_graph.bfs_distances(0, max_hops=2)
        np.testing.assert_array_equal(distances, [0, 1, 2, -1])

    def test_distances_ignore_probabilities(self):
        graph = UncertainGraph(2, [(0, 1, 1e-9)])
        assert graph.bfs_distances(0)[1] == 1


class TestStatistics:
    def test_uniform_probabilities(self):
        graph = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        stats = graph.edge_statistics()
        assert stats.mean == pytest.approx(0.5)
        assert stats.std == pytest.approx(0.0)
        assert stats.quartiles == pytest.approx((0.5, 0.5, 0.5))

    def test_empty_graph_statistics(self):
        stats = UncertainGraph(3, []).edge_statistics()
        assert stats.mean == 0.0

    def test_str_contains_mean(self):
        text = str(EdgeStatistics(0.25, 0.1, (0.1, 0.2, 0.3)))
        assert "0.25" in text


class TestGraphBuilder:
    def test_incremental_build(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1, 0.5)
        builder.add_edge(1, 4, 0.25)
        graph = builder.build()
        assert graph.node_count == 5
        assert graph.edge_count == 2

    def test_undirected_edge_adds_both_directions(self):
        builder = GraphBuilder()
        builder.add_undirected_edge(0, 1, 0.3)
        graph = builder.build()
        assert graph.edge_probability(0, 1) == pytest.approx(0.3)
        assert graph.edge_probability(1, 0) == pytest.approx(0.3)

    def test_edge_count_property(self):
        builder = GraphBuilder()
        builder.add_edge(0, 1, 0.5)
        assert builder.edge_count == 1


class TestGraphProperties:
    @given(small_graph_parts)
    @settings(max_examples=60, deadline=None)
    def test_csr_invariants(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        # indptr is monotone and bounds the edge arrays.
        assert (np.diff(graph.indptr) >= 0).all()
        assert graph.indptr[0] == 0
        assert graph.indptr[-1] == graph.edge_count
        # Probabilities are valid, no self-loops survive, targets in range.
        assert ((graph.probs > 0) & (graph.probs <= 1)).all()
        for u, v, _ in graph.iter_edges():
            assert u != v
            assert 0 <= v < node_count

    @given(small_graph_parts)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_through_iter_edges(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        rebuilt = UncertainGraph(node_count, graph.iter_edges())
        assert rebuilt == graph
