"""Tests for workload planning: validation, dedup, source grouping."""

import numpy as np
import pytest

from repro.core.estimators.base import BatchQuery, as_query
from repro.engine.plan import plan_queries


class TestAsQuery:
    def test_tuple_coerces(self):
        assert as_query((1, 2, 3)) == BatchQuery(1, 2, 3)

    def test_batch_query_passes_through(self):
        query = BatchQuery(0, 1, 10)
        assert as_query(query) is query

    def test_numpy_integers_coerce(self):
        query = as_query((np.int64(1), np.int64(2), np.int64(3)))
        assert query == BatchQuery(1, 2, 3)
        assert all(isinstance(part, int) for part in query[:3])
        assert query.max_hops is None

    def test_four_tuple_carries_hop_bound(self):
        query = as_query((1, 2, 3, np.int64(4)))
        assert query == BatchQuery(1, 2, 3, 4)
        assert isinstance(query.max_hops, int)

    def test_explicit_none_hop_bound(self):
        assert as_query((1, 2, 3, None)) == BatchQuery(1, 2, 3, None)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="source, target, samples"):
            as_query((1, 2, 3, 4, 5))
        with pytest.raises(ValueError):
            as_query((1, 2))


class TestPlanQueries:
    def test_empty_workload_is_valid(self, diamond_graph):
        plan = plan_queries(diamond_graph, [])
        assert len(plan) == 0
        assert plan.unique_count == 0
        assert plan.k_max == 0
        assert plan.groups == ()
        assert plan.scatter(np.empty(0)).shape == (0,)

    def test_duplicates_collapse(self, diamond_graph):
        plan = plan_queries(
            diamond_graph, [(0, 3, 100), (0, 3, 100), (1, 3, 50)]
        )
        assert plan.unique_count == 2
        assert len(plan) == 3
        assert plan.assignment == (0, 0, 1)

    def test_same_pair_different_k_stays_distinct(self, diamond_graph):
        plan = plan_queries(diamond_graph, [(0, 3, 100), (0, 3, 200)])
        assert plan.unique_count == 2

    def test_scatter_restores_original_order(self, diamond_graph):
        plan = plan_queries(
            diamond_graph, [(0, 3, 10), (1, 3, 10), (0, 3, 10)]
        )
        values = np.asarray([0.25, 0.75])
        assert plan.scatter(values).tolist() == [0.25, 0.75, 0.25]

    def test_groups_share_source(self, diamond_graph):
        plan = plan_queries(
            diamond_graph, [(0, 3, 100), (0, 1, 60), (2, 3, 40)]
        )
        assert len(plan.groups) == 2
        by_source = {group.source: group for group in plan.groups}
        assert by_source[0].targets.tolist() == [3, 1]
        assert by_source[0].samples.tolist() == [100, 60]
        assert by_source[0].k_max == 100
        assert by_source[2].k_max == 40
        assert plan.k_max == 100

    def test_invalid_node_rejected(self, diamond_graph):
        with pytest.raises(Exception):
            plan_queries(diamond_graph, [(0, 99, 10)])

    def test_nonpositive_samples_rejected(self, diamond_graph):
        with pytest.raises(Exception):
            plan_queries(diamond_graph, [(0, 3, 0)])
