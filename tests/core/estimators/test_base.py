"""Tests for the shared Estimator contract (validation, edge cases)."""

import numpy as np
import pytest

from repro.core.estimators.base import (
    BatchQuery,
    QueryStatistics,
    coerce_batch_queries,
)
from repro.core.registry import PAPER_ESTIMATORS, create_estimator


@pytest.fixture(params=PAPER_ESTIMATORS + ["lp"])
def any_estimator(request, diamond_graph):
    return create_estimator(request.param, diamond_graph, seed=0)


class TestEstimatorContract:
    def test_source_equals_target_is_one(self, any_estimator):
        assert any_estimator.estimate(1, 1, 10) == 1.0

    def test_estimate_in_unit_interval(self, any_estimator):
        value = any_estimator.estimate(0, 3, 100)
        assert 0.0 <= value <= 1.0

    def test_disconnected_target_is_zero(self, any_estimator):
        # Node 3 has no out-edges in the diamond; 3 -> 0 is impossible.
        assert any_estimator.estimate(3, 0, 100) == 0.0

    def test_invalid_source_rejected(self, any_estimator):
        with pytest.raises(ValueError):
            any_estimator.estimate(-1, 3, 10)

    def test_invalid_target_rejected(self, any_estimator):
        with pytest.raises(ValueError):
            any_estimator.estimate(0, 99, 10)

    def test_invalid_samples_rejected(self, any_estimator):
        with pytest.raises(ValueError):
            any_estimator.estimate(0, 3, 0)

    def test_rng_override_reproducible(self, any_estimator):
        a = any_estimator.estimate(0, 3, 200, rng=np.random.default_rng(5))
        b = any_estimator.estimate(0, 3, 200, rng=np.random.default_rng(5))
        assert a == b

    def test_memory_bytes_positive(self, any_estimator):
        any_estimator.estimate(0, 3, 50)
        assert any_estimator.memory_bytes() > 0

    def test_query_statistics_populated(self, any_estimator):
        any_estimator.estimate(0, 3, 50)
        stats = any_estimator.last_query_statistics
        assert isinstance(stats, QueryStatistics)
        assert stats.samples_requested == 50

    def test_repr_mentions_class(self, any_estimator):
        assert type(any_estimator).__name__ in repr(any_estimator)


class TestCoerceBatchQueries:
    def test_every_form_becomes_a_batch_query(self):
        workload = coerce_batch_queries(
            [(0, 3, 10), [1, 2, 5, None], BatchQuery(2, 3, 7)],
            estimator_name="X",
            allow_hops=False,
        )
        assert workload == [
            BatchQuery(0, 3, 10),
            BatchQuery(1, 2, 5),
            BatchQuery(2, 3, 7),
        ]
        assert all(type(query) is BatchQuery for query in workload)

    def test_consumes_a_generator_once(self):
        items = ((0, target, 4) for target in range(3))
        workload = coerce_batch_queries(items, estimator_name="X", allow_hops=False)
        assert [query.target for query in workload] == [0, 1, 2]

    def test_hop_bound_kept_when_allowed(self):
        workload = coerce_batch_queries(
            [(0, 3, 10, 2)], estimator_name="X", allow_hops=True
        )
        assert workload == [BatchQuery(0, 3, 10, 2)]

    def test_hop_bound_rejected_with_default_advice(self):
        with pytest.raises(NotImplementedError, match="Slow has no d-hop") as info:
            coerce_batch_queries(
                [(0, 3, 10), (0, 3, 10, 2)], estimator_name="Slow", allow_hops=False
            )
        assert "'mc' or 'bfs_sharing'" in str(info.value)

    def test_hops_reason_replaces_the_default_advice(self):
        with pytest.raises(NotImplementedError, match="because bags") as info:
            coerce_batch_queries(
                [(0, 3, 10, 1)],
                estimator_name="Slow",
                allow_hops=False,
                hops_reason="because bags",
            )
        assert "bfs_sharing" not in str(info.value)

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="a query is"):
            coerce_batch_queries([(0, 3)], estimator_name="X", allow_hops=True)
