"""Tests for the ProbTree FWD index: structure, losslessness, coupling."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.estimators import prob_tree as prob_tree_module
from repro.core.estimators.prob_tree import (
    ROOT_BAG,
    FWDProbTreeIndex,
    ProbTreeEstimator,
)
from repro.core.estimators.recursive_rhh import RecursiveSamplingEstimator
from repro.core.exact import reliability_exact
from repro.core.graph import UncertainGraph
from tests.conftest import random_graph, small_graph_parts


class TestIndexStructure:
    def test_every_node_covered_once_or_in_root(self, diamond_graph):
        index = FWDProbTreeIndex(diamond_graph)
        covered = set(index.bag_of_covered)
        assert covered.isdisjoint(index.root_nodes)
        assert covered | index.root_nodes == set(range(4))

    def test_bags_have_unique_covered_nodes(self):
        graph = random_graph(0, node_count=12, edge_probability=0.25)
        index = FWDProbTreeIndex(graph)
        covered = [bag.covered for bag in index.bags]
        assert len(covered) == len(set(covered))

    def test_parents_are_later_bags_or_root(self):
        graph = random_graph(1, node_count=12, edge_probability=0.25)
        index = FWDProbTreeIndex(graph)
        for bag in index.bags:
            assert bag.parent == ROOT_BAG or bag.parent > bag.bag_id

    def test_chain_decomposes_fully(self):
        # A path graph is a tree: width-1 eliminations leave a trivial root.
        graph = UncertainGraph(6, [(i, i + 1, 0.5) for i in range(5)])
        index = FWDProbTreeIndex(graph)
        assert len(index.bags) >= 4
        assert len(index.root_nodes) <= 2

    def test_dense_graph_keeps_core_in_root(self):
        # A 5-clique (undirected degree 4 > w) cannot be decomposed.
        edges = [
            (u, v, 0.5) for u in range(5) for v in range(5) if u != v
        ]
        graph = UncertainGraph(5, edges)
        index = FWDProbTreeIndex(graph)
        assert len(index.root_nodes) == 5
        assert not index.bags

    def test_statistics_keys(self, diamond_graph):
        stats = FWDProbTreeIndex(diamond_graph).statistics()
        assert {"bags", "height", "root_nodes", "root_edges"} <= set(stats)

    def test_size_bytes_positive(self, diamond_graph):
        assert FWDProbTreeIndex(diamond_graph).size_bytes() > 0

    def test_save_load_roundtrip(self, tmp_path):
        graph = random_graph(2, node_count=10, edge_probability=0.3)
        index = FWDProbTreeIndex(graph)
        path = tmp_path / "probtree.pkl"
        index.save(path)
        loaded = FWDProbTreeIndex.load(path, graph)
        assert len(loaded.bags) == len(index.bags)
        assert loaded.root_nodes == index.root_nodes
        assert loaded.root_edges == index.root_edges


class TestLosslessness:
    """The paper's w<=2 claim: the assembled query graph has *exactly* the
    original graph's s-t reliability."""

    @pytest.mark.parametrize("seed", range(8))
    def test_query_graph_preserves_reliability(self, seed):
        graph = random_graph(seed, node_count=7, edge_probability=0.3)
        index = FWDProbTreeIndex(graph)
        for source, target in [(0, 6), (1, 5), (6, 0)]:
            original = reliability_exact(graph, source, target)
            query_graph, s, t, _ = index.query_graph(source, target)
            assembled = reliability_exact(query_graph, s, t)
            assert assembled == pytest.approx(original, abs=1e-9), (
                f"seed={seed} pair=({source},{target})"
            )

    def test_chain_lossless(self):
        graph = UncertainGraph(6, [(i, i + 1, 0.7) for i in range(5)])
        index = FWDProbTreeIndex(graph)
        query_graph, s, t, _ = index.query_graph(0, 5)
        assert reliability_exact(query_graph, s, t) == pytest.approx(0.7**5)

    def test_bidirected_cycle_lossless(self):
        edges = []
        for i in range(5):
            j = (i + 1) % 5
            edges.append((i, j, 0.6))
            edges.append((j, i, 0.6))
        graph = UncertainGraph(5, edges)
        index = FWDProbTreeIndex(graph)
        original = reliability_exact(graph, 0, 2)
        query_graph, s, t, _ = index.query_graph(0, 2)
        assert reliability_exact(query_graph, s, t) == pytest.approx(
            original, abs=1e-9
        )

    @given(small_graph_parts)
    @settings(max_examples=40, deadline=None)
    def test_property_losslessness(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        if graph.edge_count > 12:
            return
        index = FWDProbTreeIndex(graph)
        original = reliability_exact(graph, 0, node_count - 1)
        query_graph, s, t, _ = index.query_graph(0, node_count - 1)
        assembled = reliability_exact(query_graph, s, t)
        assert assembled == pytest.approx(original, abs=1e-9)

    def test_query_graph_no_larger_than_original(self):
        graph = random_graph(3, node_count=14, edge_probability=0.2)
        index = FWDProbTreeIndex(graph)
        query_graph, _, _, _ = index.query_graph(0, 13)
        assert query_graph.node_count <= graph.node_count


class TestEstimator:
    def test_matches_exact(self, diamond_graph):
        estimator = ProbTreeEstimator(diamond_graph, seed=0)
        estimate = estimator.estimate(0, 3, 30_000)
        assert estimate == pytest.approx(0.4375, abs=0.015)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exact_on_random_graphs(self, seed):
        graph = random_graph(seed)
        exact = reliability_exact(graph, 0, 7)
        estimator = ProbTreeEstimator(graph, seed=seed)
        estimate = estimator.estimate(0, 7, 20_000)
        assert estimate == pytest.approx(exact, abs=0.025)

    def test_coupling_with_rhh(self, diamond_graph):
        # §3.8: ProbTree + recursive estimators.
        estimator = ProbTreeEstimator(
            diamond_graph,
            estimator_factory=lambda g: RecursiveSamplingEstimator(g),
            seed=0,
        )
        estimate = estimator.estimate(0, 3, 10_000)
        assert estimate == pytest.approx(0.4375, abs=0.02)

    def test_attach_index(self, diamond_graph):
        index = FWDProbTreeIndex(diamond_graph)
        estimator = ProbTreeEstimator(diamond_graph)
        estimator.attach_index(index)
        assert estimator.index is index

    def test_attach_foreign_index_rejected(self, diamond_graph, chain_graph):
        index = FWDProbTreeIndex(chain_graph)
        estimator = ProbTreeEstimator(diamond_graph)
        with pytest.raises(ValueError):
            estimator.attach_index(index)

    def test_memory_includes_index(self, diamond_graph):
        estimator = ProbTreeEstimator(diamond_graph, seed=0)
        before = estimator.memory_bytes()
        estimator.prepare()
        assert estimator.memory_bytes() > before

    def test_query_statistics_merged_from_inner(self, diamond_graph):
        estimator = ProbTreeEstimator(diamond_graph, seed=0)
        estimator.estimate(0, 3, 100)
        assert estimator.last_query_statistics.samples_requested >= 100


class TestLiftedGraphReuse:
    """The bag-pair keying behind the batch fast path."""

    def test_same_bags_share_a_lift_key(self):
        graph = random_graph(4, node_count=14, edge_probability=0.2)
        index = FWDProbTreeIndex(graph)
        for s in range(graph.node_count):
            for t in range(graph.node_count):
                key = index.lift_key(s, t)
                assert key == (
                    index.bag_of_covered.get(s, ROOT_BAG),
                    index.bag_of_covered.get(t, ROOT_BAG),
                )

    def test_lifted_graph_reproduces_query_graph(self):
        graph = random_graph(5, node_count=12, edge_probability=0.25)
        index = FWDProbTreeIndex(graph)
        for s, t in [(0, 11), (3, 7), (11, 0), (2, 2)]:
            lifted, node_map = index.lifted_graph(index.lift_key(s, t))
            q_graph, q_s, q_t, q_map = index.query_graph(s, t)
            assert node_map == q_map
            assert (q_s, q_t) == (node_map[s], node_map[t])
            assert lifted.node_count == q_graph.node_count
            np.testing.assert_array_equal(lifted.probs, q_graph.probs)

    def test_every_node_is_mapped(self):
        # Covered nodes live in their bag; everything else is root-alive —
        # so the lifted graph always contains both endpoints.
        graph = random_graph(6, node_count=10, edge_probability=0.3)
        index = FWDProbTreeIndex(graph)
        for s in range(graph.node_count):
            for t in range(graph.node_count):
                _, node_map = index.lifted_graph(index.lift_key(s, t))
                assert s in node_map and t in node_map


class TestBatchFastPath:
    """Bag-grouped batches: one lifted graph per (s, t) bag pair."""

    def test_duplicates_and_order_do_not_matter(self):
        graph = random_graph(7, node_count=10, edge_probability=0.3)
        estimator = ProbTreeEstimator(graph, seed=0)
        queries = [(0, 9, 200), (1, 8, 200), (0, 9, 200), (2, 7, 150)]
        forward = estimator.estimate_batch(queries, seed=11)
        assert forward[0] == forward[2]
        backward = ProbTreeEstimator(graph, seed=0).estimate_batch(
            list(reversed(queries)), seed=11
        )
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_statistically_matches_exact_on_lossless_graphs(self):
        graph = random_graph(8, node_count=9, edge_probability=0.3)
        estimator = ProbTreeEstimator(graph, seed=0)
        estimates = estimator.estimate_batch([(0, 8, 2_000)], seed=3)
        exact = reliability_exact(graph, 0, 8)
        assert abs(estimates[0] - exact) < 0.06

    def test_rejects_hop_bounded_queries(self):
        graph = random_graph(9, node_count=8, edge_probability=0.3)
        estimator = ProbTreeEstimator(graph, seed=0)
        with pytest.raises(NotImplementedError, match="hop"):
            estimator.estimate_batch([(0, 7, 100, 2)], seed=1)

    def test_coupled_estimator_factory_is_honoured(self):
        graph = random_graph(10, node_count=9, edge_probability=0.3)
        estimator = ProbTreeEstimator(
            graph, seed=0,
            estimator_factory=lambda g: RecursiveSamplingEstimator(g, seed=0),
        )
        estimates = estimator.estimate_batch([(0, 8, 500)], seed=3)
        exact = reliability_exact(graph, 0, 8)
        assert abs(estimates[0] - exact) < 0.1

    def test_replays_bit_for_bit_under_one_seed(self):
        graph = random_graph(11, node_count=10, edge_probability=0.25)
        queries = [(0, 9, 300), (4, 2, 200)]
        a = ProbTreeEstimator(graph, seed=0).estimate_batch(queries, seed=5)
        b = ProbTreeEstimator(graph, seed=0).estimate_batch(queries, seed=5)
        np.testing.assert_array_equal(a, b)


class TestLiftCache:
    """The estimator-level LRU of assembled lifted graphs (ROADMAP item)."""

    def _estimator(self, seed=12):
        graph = random_graph(seed, node_count=14, edge_probability=0.25)
        estimator = ProbTreeEstimator(graph, seed=0)
        estimator.prepare()
        return estimator

    def test_per_query_path_hits_the_cache(self):
        estimator = self._estimator()
        rng = np.random.default_rng(0)
        estimator.estimate(0, 13, 50, rng=rng)
        assert estimator.lift_cache_misses == 1
        estimator.estimate(0, 13, 50, rng=rng)
        assert estimator.lift_cache_hits == 1
        assert estimator.lift_cache_misses == 1

    def test_batch_path_lifts_each_key_once(self):
        estimator = self._estimator()
        queries = [(0, 13, 50), (0, 13, 80), (3, 9, 50), (0, 13, 50)]
        estimator.estimate_batch(queries, seed=3)
        index = estimator.index
        distinct_keys = {
            index.lift_key(s, t) for s, t, *_ in queries
        }
        assert estimator.lift_cache_misses == len(distinct_keys)

    def test_batch_then_per_query_reuses_assemblies(self):
        estimator = self._estimator()
        estimator.estimate_batch([(0, 13, 50)], seed=3)
        misses = estimator.lift_cache_misses
        estimator.estimate(0, 13, 50, rng=np.random.default_rng(0))
        assert estimator.lift_cache_misses == misses  # no re-assembly
        assert estimator.lift_cache_hits >= 1

    def test_cached_estimates_are_bit_identical_to_uncached(self, monkeypatch):
        graph = random_graph(13, node_count=14, edge_probability=0.25)
        cached = ProbTreeEstimator(graph, seed=0)
        monkeypatch.setattr(prob_tree_module, "DEFAULT_LIFT_CACHE_CAPACITY", 0)
        uncached = ProbTreeEstimator(graph, seed=0)
        queries = [(0, 13, 200), (3, 9, 150), (0, 13, 200)]
        np.testing.assert_array_equal(
            cached.estimate_batch(queries, seed=5),
            uncached.estimate_batch(queries, seed=5),
        )
        assert len(cached._lift_cache) > 0
        assert len(uncached._lift_cache) == 0

    def test_capacity_bounds_the_cache(self, monkeypatch):
        monkeypatch.setattr(prob_tree_module, "DEFAULT_LIFT_CACHE_CAPACITY", 2)
        estimator = self._estimator()
        index = estimator.index
        keys = set()
        for s in range(estimator.graph.node_count):
            for t in range(estimator.graph.node_count):
                if s != t:
                    keys.add(index.lift_key(s, t))
        for key in keys:
            estimator.lifted_graph(key)
        assert len(estimator._lift_cache) <= 2

    def test_lru_eviction_order(self, monkeypatch):
        monkeypatch.setattr(prob_tree_module, "DEFAULT_LIFT_CACHE_CAPACITY", 2)
        estimator = self._estimator()
        index = estimator.index
        keys = []
        for s in range(estimator.graph.node_count):
            for t in range(estimator.graph.node_count):
                key = index.lift_key(s, t)
                if key not in keys:
                    keys.append(key)
                if len(keys) == 3:
                    break
            if len(keys) == 3:
                break
        assert len(keys) == 3, "graph too small for three distinct keys"
        a, b, c = keys
        estimator.lifted_graph(a)
        estimator.lifted_graph(b)
        estimator.lifted_graph(a)  # refresh a: b is now least recent
        estimator.lifted_graph(c)  # evicts b
        assert a in estimator._lift_cache
        assert c in estimator._lift_cache
        assert b not in estimator._lift_cache

    def test_prepare_clears_the_cache(self):
        estimator = self._estimator()
        estimator.estimate(0, 13, 20, rng=np.random.default_rng(0))
        assert len(estimator._lift_cache) > 0
        estimator.prepare()
        assert len(estimator._lift_cache) == 0

    def test_cached_graph_is_the_same_object(self):
        # Reuse keeps the memoised fingerprint, so downstream result
        # caches skip re-hashing the lifted graph too.
        estimator = self._estimator()
        key = estimator.index.lift_key(0, 13)
        first, _ = estimator.lifted_graph(key)
        second, _ = estimator.lifted_graph(key)
        assert first is second
