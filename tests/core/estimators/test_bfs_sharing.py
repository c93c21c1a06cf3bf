"""Tests for BFS Sharing: index structure and shared-BFS equivalence."""

import numpy as np
import pytest

from repro.core.estimators.bfs_sharing import BFSSharingEstimator, BFSSharingIndex
from repro.core.exact import reliability_exact
from repro.core.possible_world import reachable_in_world
from repro.util import bitset
from tests.conftest import random_graph


class TestIndex:
    def test_shape_matches_capacity(self, diamond_graph):
        index = BFSSharingIndex(diamond_graph, capacity=130, rng=0)
        assert index.edge_bits.shape == (4, bitset.packed_words(130))

    def test_refresh_changes_worlds(self, diamond_graph):
        index = BFSSharingIndex(diamond_graph, capacity=256, rng=0)
        before = index.edge_bits.copy()
        index.refresh(rng=1)
        assert not np.array_equal(before, index.edge_bits)

    def test_world_frequencies_match_probabilities(self, diamond_graph):
        index = BFSSharingIndex(diamond_graph, capacity=20_000, rng=0)
        frequencies = bitset.popcount_rows(index.edge_bits) / 20_000
        np.testing.assert_allclose(frequencies, diamond_graph.probs, atol=0.02)

    def test_size_bytes(self, diamond_graph):
        index = BFSSharingIndex(diamond_graph, capacity=64, rng=0)
        assert index.size_bytes() == index.edge_bits.nbytes

    def test_save_load_roundtrip(self, tmp_path, diamond_graph):
        index = BFSSharingIndex(diamond_graph, capacity=100, rng=0)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = BFSSharingIndex.load(path, diamond_graph)
        np.testing.assert_array_equal(loaded.edge_bits, index.edge_bits)
        assert loaded.capacity == 100

    def test_load_wrong_graph_rejected(self, tmp_path, diamond_graph, chain_graph):
        index = BFSSharingIndex(diamond_graph, capacity=10, rng=0)
        path = tmp_path / "index.npz"
        index.save(path)
        with pytest.raises(ValueError):
            BFSSharingIndex.load(path, chain_graph)

    def test_invalid_capacity(self, diamond_graph):
        with pytest.raises(ValueError):
            BFSSharingIndex(diamond_graph, capacity=0)


class TestSharedBfsEquivalence:
    """The core correctness claim: the shared BFS over bit-vectors computes
    exactly the per-world BFS reachability of every pre-sampled world."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_world_bfs(self, seed):
        graph = random_graph(seed, node_count=7, edge_probability=0.35)
        samples = 64
        estimator = BFSSharingEstimator(graph, capacity=samples, seed=seed)
        estimator.prepare()
        estimate = estimator.estimate(0, 6, samples)
        # Reconstruct every sampled world from the index and BFS it.
        edge_bits = estimator.index.edge_bits
        hits = 0
        for world in range(samples):
            mask = np.array(
                [bitset.get_bit(edge_bits[e], world) for e in range(graph.edge_count)]
            )
            hits += reachable_in_world(graph, mask, 0, 6)
        assert estimate == pytest.approx(hits / samples, abs=1e-12)

    def test_uses_only_first_k_worlds(self, diamond_graph):
        estimator = BFSSharingEstimator(diamond_graph, capacity=128, seed=0)
        estimator.prepare()
        value = estimator.estimate(0, 3, 32)
        assert (value * 32) == pytest.approx(round(value * 32))


class TestEstimator:
    def test_matches_exact(self, diamond_graph):
        estimator = BFSSharingEstimator(
            diamond_graph, capacity=30_000, seed=0
        )
        estimate = estimator.estimate(0, 3, 30_000)
        assert estimate == pytest.approx(0.4375, abs=0.015)

    def test_capacity_grows_on_demand(self, diamond_graph):
        estimator = BFSSharingEstimator(diamond_graph, capacity=10, seed=0)
        estimator.estimate(0, 3, 50)
        assert estimator.capacity == 50

    def test_refresh_per_query_gives_independent_estimates(self, diamond_graph):
        estimator = BFSSharingEstimator(
            diamond_graph, capacity=200, refresh_per_query=True, seed=0
        )
        a = estimator.estimate(0, 3, 200, rng=np.random.default_rng(1))
        b = estimator.estimate(0, 3, 200, rng=np.random.default_rng(2))
        assert a != b  # virtually certain with 200 worlds

    def test_without_refresh_estimates_repeat(self, diamond_graph):
        estimator = BFSSharingEstimator(
            diamond_graph, capacity=200, refresh_per_query=False, seed=0
        )
        a = estimator.estimate(0, 3, 200, rng=np.random.default_rng(1))
        b = estimator.estimate(0, 3, 200, rng=np.random.default_rng(2))
        assert a == b

    def test_attach_external_index(self, diamond_graph):
        index = BFSSharingIndex(diamond_graph, capacity=64, rng=0)
        estimator = BFSSharingEstimator(diamond_graph)
        estimator.attach_index(index)
        assert estimator.capacity == 64
        assert estimator.index is index

    def test_attach_foreign_index_rejected(self, diamond_graph, chain_graph):
        index = BFSSharingIndex(chain_graph, capacity=8, rng=0)
        estimator = BFSSharingEstimator(diamond_graph)
        with pytest.raises(ValueError):
            estimator.attach_index(index)

    def test_memory_includes_index(self, diamond_graph):
        estimator = BFSSharingEstimator(diamond_graph, capacity=6400, seed=0)
        before = estimator.memory_bytes()
        estimator.prepare()
        assert estimator.memory_bytes() > before


class TestBatchFastPath:
    """The engine-chunk batch path: packed index built from world chunks."""

    WORKLOAD = [(0, 3, 300), (0, 2, 200), (1, 3, 300), (0, 3, 300)]

    def test_matches_engine_bit_for_bit(self, diamond_graph):
        from repro.engine.batch import BatchEngine

        estimator = BFSSharingEstimator(diamond_graph, seed=0)
        via_estimator = estimator.estimate_batch(self.WORKLOAD, seed=5)
        via_engine = BatchEngine(diamond_graph, seed=5).run(self.WORKLOAD)
        np.testing.assert_array_equal(via_estimator, via_engine.estimates)
        assert estimator.last_batch_result.worlds_sampled == 300

    def test_matches_mc_fast_path_bit_for_bit(self, diamond_graph):
        from repro.core.estimators.monte_carlo import MonteCarloEstimator

        bfs = BFSSharingEstimator(diamond_graph, seed=0)
        mc = MonteCarloEstimator(diamond_graph, seed=0)
        np.testing.assert_array_equal(
            bfs.estimate_batch(self.WORKLOAD, seed=5),
            mc.estimate_batch(self.WORKLOAD, seed=5),
        )

    def test_serves_hop_bounded_queries(self, diamond_graph):
        from repro.engine.batch import BatchEngine

        queries = [(0, 3, 250, 1), (0, 3, 250, 2), (0, 3, 250)]
        estimator = BFSSharingEstimator(diamond_graph, seed=0)
        estimates = estimator.estimate_batch(queries, seed=5)
        oracle = BatchEngine(diamond_graph, seed=5).run(queries).estimates
        np.testing.assert_array_equal(estimates, oracle)
        assert estimates[0] == 0.0  # 0 -> 3 needs two hops in the diamond
        assert estimates[1] == estimates[2]  # the diamond is 2 hops deep

    def test_does_not_build_the_offline_index(self, diamond_graph):
        estimator = BFSSharingEstimator(diamond_graph, seed=0)
        estimator.estimate_batch(self.WORKLOAD, seed=5)
        assert estimator._index is None

    def test_memory_after_batch_holds_no_index(self, diamond_graph):
        estimator = BFSSharingEstimator(diamond_graph, seed=0)
        estimator.estimate_batch(self.WORKLOAD, seed=5)
        assert estimator.memory_bytes() == diamond_graph.memory_bytes()

    def test_estimates_are_plausible(self):
        graph = random_graph(3, node_count=9, edge_probability=0.3)
        estimator = BFSSharingEstimator(graph, seed=0)
        estimates = estimator.estimate_batch([(0, 8, 2_000)], seed=5)
        exact = reliability_exact(graph, 0, 8)
        assert abs(estimates[0] - exact) < 0.06
