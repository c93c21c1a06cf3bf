"""Tests for the shared-world batch engine.

The load-bearing properties (see the determinism contract in
:mod:`repro.engine.batch`): batch and sequential evaluation agree exactly
under a shared seed, results are independent of ``chunk_size``, the result
cache serves repeats without re-sampling, and degenerate workloads (empty,
duplicated) are handled.
"""

import numpy as np
import pytest

from repro.core.estimators.base import Estimator
from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.engine.batch import BatchEngine
from repro.engine.cache import ResultCache

from tests.conftest import random_graph

WORKLOAD = [
    (0, 3, 400),
    (0, 5, 400),
    (1, 4, 250),
    (2, 6, 300),
    (0, 3, 400),  # duplicate on purpose
    (5, 2, 150),
]


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


class TestAgreement:
    def test_batch_equals_sequential_exactly(self, graph):
        engine = BatchEngine(graph, seed=5)
        batch = engine.run(WORKLOAD)
        sequential = BatchEngine(graph, seed=5).run_sequential(WORKLOAD)
        np.testing.assert_array_equal(batch.estimates, sequential.estimates)

    def test_estimates_are_probabilities(self, graph):
        estimates = BatchEngine(graph, seed=5).run(WORKLOAD).estimates
        assert ((estimates >= 0.0) & (estimates <= 1.0)).all()

    def test_batch_converges_to_exact_reliability(self, diamond_graph):
        result = BatchEngine(diamond_graph, seed=3).run([(0, 3, 4000)])
        assert result.estimates[0] == pytest.approx(0.4375, abs=0.03)

    def test_different_seeds_differ(self, graph):
        a = BatchEngine(graph, seed=1).run(WORKLOAD).estimates
        b = BatchEngine(graph, seed=2).run(WORKLOAD).estimates
        assert not np.array_equal(a, b)

    def test_world_sampling_is_amortised(self, graph):
        batch = BatchEngine(graph, seed=5).run(WORKLOAD)
        sequential = BatchEngine(graph, seed=5).run_sequential(WORKLOAD)
        assert batch.worlds_sampled == 400  # max K, once
        assert sequential.worlds_sampled == sum(
            k for _, _, k in set(WORKLOAD)
        )


class TestPerWorldOracle:
    """The packed sweep against ``run_sequential``, the per-world walk."""

    @pytest.mark.parametrize("chunk_size", [1, 5, 64])
    def test_packed_sweep_equals_the_oracle_at_any_chunk_size(
        self, graph, chunk_size
    ):
        # Budgets of 150..400 clip inside, at and across chunk boundaries.
        oracle = BatchEngine(graph, seed=5).run_sequential(WORKLOAD)
        packed = BatchEngine(graph, seed=5, chunk_size=chunk_size).run(
            WORKLOAD
        )
        np.testing.assert_array_equal(oracle.estimates, packed.estimates)

    @pytest.mark.parametrize("chunk_size", [1, 5, 64])
    def test_oracle_is_chunk_independent(self, graph, chunk_size):
        reference = BatchEngine(graph, seed=5).run_sequential(WORKLOAD)
        chunked = BatchEngine(
            graph, seed=5, chunk_size=chunk_size
        ).run_sequential(WORKLOAD)
        np.testing.assert_array_equal(
            reference.estimates, chunked.estimates
        )


class TestChunkedStreaming:
    @pytest.mark.parametrize("chunk_size", [1, 3, 64, 1000])
    def test_results_independent_of_chunk_size(self, graph, chunk_size):
        reference = BatchEngine(graph, seed=5, chunk_size=17).run(WORKLOAD)
        chunked = BatchEngine(graph, seed=5, chunk_size=chunk_size).run(
            WORKLOAD
        )
        np.testing.assert_array_equal(
            reference.estimates, chunked.estimates
        )

    def test_chunk_size_must_be_positive(self, graph):
        with pytest.raises(Exception):
            BatchEngine(graph, chunk_size=0)


class TestCacheBehaviour:
    def test_first_run_misses_second_run_hits(self, graph):
        engine = BatchEngine(graph, seed=5)
        first = engine.run(WORKLOAD)
        unique = len(set(WORKLOAD))
        assert first.cache_hits == 0
        assert first.cache_misses == unique
        second = engine.run(WORKLOAD)
        assert second.cache_hits == unique
        assert second.cache_misses == 0
        assert second.worlds_sampled == 0  # served without sampling
        np.testing.assert_array_equal(first.estimates, second.estimates)

    def test_shared_cache_across_engines(self, graph):
        cache = ResultCache(capacity=64)
        BatchEngine(graph, seed=5, cache=cache).run(WORKLOAD)
        replay = BatchEngine(graph, seed=5, cache=cache).run(WORKLOAD)
        assert replay.worlds_sampled == 0

    def test_seed_partitions_the_cache(self, graph):
        cache = ResultCache(capacity=64)
        BatchEngine(graph, seed=5, cache=cache).run(WORKLOAD)
        other = BatchEngine(graph, seed=6, cache=cache).run(WORKLOAD)
        assert other.cache_hits == 0

    def test_partial_hit_only_samples_for_misses(self, graph):
        engine = BatchEngine(graph, seed=5)
        engine.run([(0, 3, 400)])
        mixed = engine.run([(0, 3, 400), (1, 4, 250)])
        assert mixed.cache_hits == 1
        assert mixed.cache_misses == 1
        assert mixed.worlds_sampled == 250  # only the missing query's K


class TestEdgeCases:
    def test_empty_workload(self, graph):
        result = BatchEngine(graph, seed=5).run([])
        assert len(result) == 0
        assert result.estimates.shape == (0,)
        assert result.worlds_sampled == 0

    def test_duplicates_evaluate_once_and_agree(self, graph):
        result = BatchEngine(graph, seed=5).run(WORKLOAD)
        assert result.estimates[0] == result.estimates[4]
        assert result.cache_misses == len(set(WORKLOAD))

    def test_source_equals_target_is_certain(self, graph):
        result = BatchEngine(graph, seed=5).run([(2, 2, 100)])
        assert result.estimates[0] == 1.0

    def test_invalid_query_raises(self, graph):
        with pytest.raises(Exception):
            BatchEngine(graph, seed=5).run([(0, 999, 10)])

    def test_seed_none_draws_fresh_stream(self, graph):
        a = BatchEngine(graph, seed=None)
        b = BatchEngine(graph, seed=None)
        assert a.seed != b.seed


class TestEstimatorIntegration:
    def test_mc_override_matches_engine(self, graph):
        mc = MonteCarloEstimator(graph, seed=0)
        via_estimator = mc.estimate_batch(WORKLOAD, seed=5)
        via_engine = BatchEngine(graph, seed=5).run(WORKLOAD).estimates
        np.testing.assert_array_equal(via_estimator, via_engine)

    def test_base_fallback_loops_per_query(self, graph):
        mc = MonteCarloEstimator(graph, seed=0)
        fallback = Estimator.estimate_batch(mc, WORKLOAD, seed=5)
        assert fallback.shape == (len(WORKLOAD),)
        assert ((fallback >= 0.0) & (fallback <= 1.0)).all()
        # duplicate queries share a substream, hence agree
        assert fallback[0] == fallback[4]

    def test_fallback_deterministic_under_seed(self, graph):
        mc = MonteCarloEstimator(graph, seed=0)
        a = Estimator.estimate_batch(mc, WORKLOAD, seed=5)
        b = Estimator.estimate_batch(mc, WORKLOAD, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_engine_factory_builds_the_batch_engine(self, graph):
        cache = ResultCache(capacity=64)
        built = []

        def factory(factory_graph, *, seed):
            built.append(
                BatchEngine(factory_graph, seed=seed, cache=cache)
            )
            return built[-1]

        mc = MonteCarloEstimator(graph, seed=0)
        first = mc.estimate_batch(WORKLOAD, seed=5, engine=factory)
        second = mc.estimate_batch(WORKLOAD, seed=5, engine=factory)
        assert [engine.graph for engine in built] == [graph, graph]
        assert [engine.seed for engine in built] == [5, 5]
        # The factory's cache is the one the runs used.
        assert mc.last_batch_result.worlds_sampled == 0
        assert mc.last_batch_result.cache_hits == len(set(WORKLOAD))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(
            first, BatchEngine(graph, seed=5).run(WORKLOAD).estimates
        )


class TestSeedFallback:
    def test_seedless_call_uses_constructor_seed(self, graph):
        # Two freshly built estimators with the same constructor seed must
        # agree when estimate_batch is called without an explicit seed.
        a = MonteCarloEstimator(graph, seed=7).estimate_batch(WORKLOAD)
        b = MonteCarloEstimator(graph, seed=7).estimate_batch(WORKLOAD)
        np.testing.assert_array_equal(a, b)

    def test_successive_seedless_calls_are_independent(self, graph):
        mc = MonteCarloEstimator(graph, seed=7)
        first = mc.estimate_batch(WORKLOAD)
        second = mc.estimate_batch(WORKLOAD)
        assert not np.array_equal(first, second)


class TestInstrumentation:
    def test_sequential_reports_zero_cache_traffic(self, graph):
        result = BatchEngine(graph, seed=5).run_sequential(WORKLOAD)
        assert result.cache_hits == 0
        assert result.cache_misses == 0

    def test_mc_memory_is_the_per_query_working_set(self, graph):
        # memory_bytes() is the estimator's own structural footprint; a
        # batch leaves nothing behind on the estimator to report.
        mc = MonteCarloEstimator(graph, seed=0)
        lazy_bytes = mc.memory_bytes()
        mc.estimate_batch(WORKLOAD, seed=5)
        assert mc.memory_bytes() == lazy_bytes


class TestCacheProvenance:
    """`BatchResult.from_cache`: per-query cached-vs-evaluated flags."""

    def test_cold_run_marks_nothing_cached(self):
        graph = random_graph(21)
        result = BatchEngine(graph, seed=3).run(WORKLOAD)
        assert result.from_cache is not None
        assert not result.from_cache.any()
        assert result.from_cache.tolist() == [False] * 6

    def test_warm_run_marks_everything_cached(self):
        graph = random_graph(21)
        engine = BatchEngine(graph, seed=3)
        engine.run(WORKLOAD)
        warm = engine.run(WORKLOAD)
        assert warm.from_cache.all()
        assert warm.worlds_sampled == 0
        assert warm.from_cache.tolist() == [True] * 6

    def test_partial_overlap_is_flagged_per_query(self):
        graph = random_graph(21)
        engine = BatchEngine(graph, seed=3)
        engine.run([(0, 3, 400)])
        mixed = engine.run([(0, 3, 400), (1, 4, 250)])
        np.testing.assert_array_equal(mixed.from_cache, [True, False])

    def test_duplicates_share_their_provenance(self):
        graph = random_graph(21)
        result = BatchEngine(graph, seed=3).run(
            [(0, 3, 400), (0, 3, 400)]
        )
        assert list(result.from_cache) == [False, False]

    def test_sequential_oracle_reports_uncached(self):
        graph = random_graph(21)
        engine = BatchEngine(graph, seed=3)
        engine.run(WORKLOAD)  # populate the cache...
        sequential = engine.run_sequential(WORKLOAD)
        assert not sequential.from_cache.any()  # ...which the oracle bypasses
