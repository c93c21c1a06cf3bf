"""Tests for :meth:`BatchEngine.run_range` — the shard-tier primitive.

The distributed tier is only correct if evaluating a partition of the
world range ``[0, K)`` piecewise and summing the integer hit counts is
bit-identical to one process sweeping the whole range.  These tests pin
that property directly at the engine layer, including the awkward
cases: partitions that do not align with ``chunk_size``, hop-bounded
and duplicated queries, empty ranges, and ranges beyond every budget.
"""

import numpy as np
import pytest

from repro.engine.batch import BatchEngine, RangeResult

from tests.conftest import random_graph

WORKLOAD = [
    (0, 3, 400),
    (0, 5, 400),
    (1, 4, 250),
    (2, 6, 300),
    (0, 3, 400),  # duplicate on purpose
    (0, 7, 220, 2),  # hop-bounded
]


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


def merged_estimates(graph, splits, **engine_options):
    """Sum per-range hits over ``splits`` and divide by the budgets."""
    engine = BatchEngine(graph, seed=5, **engine_options)
    hits = np.zeros(len(WORKLOAD), dtype=np.int64)
    sweeps = 0
    for start, stop in splits:
        part = engine.run_range(WORKLOAD, start, stop)
        assert isinstance(part, RangeResult)
        assert len(part) == len(WORKLOAD)
        assert part.fingerprint == engine.fingerprint
        hits += part.hits
        sweeps += part.sweeps
    budgets = np.asarray([q[2] for q in WORKLOAD], dtype=np.int64)
    return hits / budgets, sweeps


class TestPartitionSumEqualsFullRun:
    def test_chunk_aligned_partition_is_bit_identical(self, graph):
        engine = BatchEngine(graph, seed=5, chunk_size=64)
        full = engine.run(WORKLOAD)
        estimates, sweeps = merged_estimates(
            graph, [(0, 192), (192, 320), (320, 400)], chunk_size=64
        )
        np.testing.assert_array_equal(estimates, full.estimates)
        assert sweeps == full.sweeps

    def test_unaligned_partition_still_merges_exactly(self, graph):
        # Cut points that ignore chunk boundaries change the sweep
        # bookkeeping but never the integer hit counts.
        full = BatchEngine(graph, seed=5).run(WORKLOAD)
        estimates, _ = merged_estimates(
            graph, [(0, 7), (7, 130), (130, 131), (131, 400)]
        )
        np.testing.assert_array_equal(estimates, full.estimates)

    def test_single_range_covers_everything(self, graph):
        full = BatchEngine(graph, seed=5).run(WORKLOAD)
        estimates, sweeps = merged_estimates(graph, [(0, 400)])
        np.testing.assert_array_equal(estimates, full.estimates)
        assert sweeps == full.sweeps

    @pytest.mark.parametrize("kernels", ["vectorized", "python"])
    def test_kernel_modes_agree(self, graph, kernels):
        full = BatchEngine(graph, seed=5, kernels=kernels).run(WORKLOAD)
        estimates, _ = merged_estimates(
            graph, [(0, 100), (100, 400)], kernels=kernels
        )
        np.testing.assert_array_equal(estimates, full.estimates)

    def test_merged_ranges_agree_with_the_per_world_oracle(self, graph):
        oracle = BatchEngine(graph, seed=5).run_sequential(WORKLOAD)
        estimates, _ = merged_estimates(graph, [(0, 100), (100, 400)])
        np.testing.assert_array_equal(estimates, oracle.estimates)


class TestRangeSemantics:
    def test_empty_range_evaluates_nothing(self, graph):
        part = BatchEngine(graph, seed=5).run_range(WORKLOAD, 100, 100)
        assert part.worlds_evaluated == 0
        assert part.sweeps == 0
        assert (part.hits == 0).all()

    def test_range_beyond_every_budget_is_clipped(self, graph):
        engine = BatchEngine(graph, seed=5)
        clipped = engine.run_range(WORKLOAD, 400, 900)
        assert clipped.worlds_evaluated == 0
        assert (clipped.hits == 0).all()
        partial = engine.run_range(WORKLOAD, 300, 900)
        assert partial.worlds_evaluated == 100

    def test_duplicate_queries_get_identical_hits(self, graph):
        part = BatchEngine(graph, seed=5).run_range(WORKLOAD, 0, 250)
        assert part.hits[0] == part.hits[4]

    def test_hits_are_int64_and_bounded_by_range(self, graph):
        part = BatchEngine(graph, seed=5).run_range(WORKLOAD, 50, 150)
        assert part.hits.dtype == np.int64
        assert (part.hits >= 0).all()
        assert (part.hits <= 100).all()

    def test_result_echoes_provenance(self, graph):
        engine = BatchEngine(graph, seed=9)
        part = engine.run_range(WORKLOAD, 10, 20)
        assert part.start == 10
        assert part.stop == 20
        assert part.seed == 9
        assert part.fingerprint == engine.fingerprint

    def test_negative_or_inverted_range_rejected(self, graph):
        engine = BatchEngine(graph, seed=5)
        with pytest.raises(ValueError, match="world range"):
            engine.run_range(WORKLOAD, -1, 10)
        with pytest.raises(ValueError, match="world range"):
            engine.run_range(WORKLOAD, 10, 5)

    def test_range_results_never_touch_the_cache(self, graph):
        engine = BatchEngine(graph, seed=5)
        engine.run_range(WORKLOAD, 0, 400)
        assert len(engine.cache) == 0
        # And a warm cache is not consulted: partial counts must be
        # recomputed, not served from full-range estimates.
        engine.run(WORKLOAD)
        part = BatchEngine(graph, seed=5).run_range(WORKLOAD, 0, 100)
        again = engine.run_range(WORKLOAD, 0, 100)
        np.testing.assert_array_equal(part.hits, again.hits)
