"""Distance-constrained (d-hop, §2.9) batch queries through the engine.

Semantics: a ``BatchQuery`` with ``max_hops=d`` estimates the probability
that the target is within ``d`` edges of the source — per world, the
hop-bounded BFS indicator.  These tests check the semantics against
closed-form values on the conftest toy graphs, the grouping in the
planner, and that the result cache never serves an estimate across
different hop bounds.
"""

import functools

import numpy as np
import pytest

from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.core.registry import create_estimator
from repro.engine.batch import BatchEngine
from repro.engine.plan import plan_queries
from tests.conftest import random_graph


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


class TestSemantics:
    def test_unreachable_within_bound_is_exactly_zero(self, diamond_graph):
        # 0 -> 3 needs two edges; within one hop the indicator is false in
        # every possible world, so the estimate is identically 0.
        result = BatchEngine(diamond_graph, seed=3).run([(0, 3, 500, 1)])
        assert result.estimates[0] == 0.0

    def test_diamond_two_hop_matches_exact(self, diamond_graph):
        # Within two hops both disjoint paths count: exact 0.4375.
        result = BatchEngine(diamond_graph, seed=3).run([(0, 3, 4000, 2)])
        assert result.estimates[0] == pytest.approx(0.4375, abs=0.03)

    def test_chain_needs_full_length(self, chain_graph):
        result = BatchEngine(chain_graph, seed=3).run(
            [(0, 3, 4000, 2), (0, 3, 4000, 3)]
        )
        assert result.estimates[0] == 0.0
        assert result.estimates[1] == pytest.approx(0.512, abs=0.03)

    def test_sequential_oracle_agrees_on_dhop(self, graph):
        # Mixed bounds from one source, a bounded/unbounded pair on one
        # (s, t), and budgets that clip mid-chunk.
        workload = [
            (0, 3, 300, 2), (0, 5, 150, 1), (2, 6, 200, 3), (0, 3, 300),
        ]
        batch = BatchEngine(graph, seed=5).run(workload)
        sequential = BatchEngine(graph, seed=5).run_sequential(workload)
        np.testing.assert_array_equal(batch.estimates, sequential.estimates)

    def test_report_rows_carry_hop_bound(self, diamond_graph):
        result = BatchEngine(diamond_graph, seed=3).run(
            [(0, 3, 10, 2), (0, 3, 10)]
        )
        assert [query.max_hops for query in result.queries] == [2, None]
        assert result.estimates.shape == (2,)

    def test_hop_bound_can_only_shrink_an_estimate(self, graph):
        # Same worlds, stricter indicator: estimates can only shrink.
        pairs = [(0, 3), (1, 4), (2, 6)]
        bounded = BatchEngine(graph, seed=0).run(
            [(source, target, 200, 2) for source, target in pairs]
        )
        unbounded = BatchEngine(graph, seed=0).run(
            [(source, target, 200) for source, target in pairs]
        )
        assert (bounded.estimates <= unbounded.estimates).all()


class TestPlanning:
    def test_hop_bound_distinguishes_queries(self, diamond_graph):
        plan = plan_queries(
            diamond_graph, [(0, 3, 100), (0, 3, 100, 2), (0, 3, 100, 2)]
        )
        assert plan.unique_count == 2
        assert plan.assignment == (0, 1, 1)

    def test_groups_split_by_hop_bound(self, diamond_graph):
        plan = plan_queries(
            diamond_graph,
            [(0, 3, 100), (0, 1, 60, 2), (0, 2, 40, 2), (0, 3, 20, 1)],
        )
        keys = [(group.source, group.max_hops) for group in plan.groups]
        assert keys == [(0, 1), (0, 2), (0, None)]
        by_key = {key: group for key, group in zip(keys, plan.groups)}
        assert by_key[(0, 2)].targets.tolist() == [1, 2]
        assert by_key[(0, None)].targets.tolist() == [3]

    def test_invalid_hop_bound_rejected(self, diamond_graph):
        with pytest.raises(ValueError, match="max_hops"):
            plan_queries(diamond_graph, [(0, 3, 100, 0)])
        with pytest.raises(ValueError, match="max_hops"):
            plan_queries(diamond_graph, [(0, 3, 100, -2)])


class TestEstimatorWiring:
    def test_mc_estimate_batch_serves_dhop(self, graph):
        mc = MonteCarloEstimator(graph, seed=0)
        via_estimator = mc.estimate_batch([(0, 3, 200, 2)], seed=5)
        via_engine = BatchEngine(graph, seed=5).run([(0, 3, 200, 2)])
        np.testing.assert_array_equal(
            via_estimator, via_engine.estimates
        )

    def test_the_engine_factory_cannot_change_a_dhop_batch(self, graph):
        queries = [(0, 3, 300, 2), (1, 4, 300, 2), (2, 6, 300)]
        serial = MonteCarloEstimator(graph, seed=0).estimate_batch(
            queries, seed=0
        )
        parallel = MonteCarloEstimator(graph, seed=0).estimate_batch(
            queries, seed=0,
            engine=functools.partial(BatchEngine, workers=2, chunk_size=64),
        )
        np.testing.assert_array_equal(serial, parallel)

    def test_fallback_estimators_reject_hop_bounded_batches(self, graph):
        rhh = create_estimator("rhh", graph, seed=0)
        with pytest.raises(NotImplementedError, match="max_hops"):
            rhh.estimate_batch([(0, 3, 50, 2)], seed=1)

    def test_fallback_accepts_explicit_none_hop_bound(self, graph):
        rhh = create_estimator("rhh", graph, seed=0)
        estimates = rhh.estimate_batch([(0, 3, 50, None)], seed=1)
        assert estimates.shape == (1,)


class TestCacheKeying:
    """A ``(s, t, K, seed)`` hit must never cross hop bounds."""

    def test_unbounded_hit_not_served_for_hop_bounded_query(self, graph):
        engine = BatchEngine(graph, seed=5)
        engine.run([(0, 3, 200)])
        bounded = engine.run([(0, 3, 200, 2)])
        assert bounded.cache_hits == 0
        assert bounded.worlds_sampled == 200  # re-swept, not replayed

    def test_hop_bounded_hit_not_served_for_unbounded_query(self, graph):
        engine = BatchEngine(graph, seed=5)
        engine.run([(0, 3, 200, 2)])
        unbounded = engine.run([(0, 3, 200)])
        assert unbounded.cache_hits == 0
        assert unbounded.worlds_sampled == 200

    def test_distinct_hop_bounds_cache_separately(self, graph):
        engine = BatchEngine(graph, seed=5)
        engine.run([(0, 3, 200, 2)])
        other_bound = engine.run([(0, 3, 200, 3)])
        assert other_bound.cache_hits == 0
        same_bound = engine.run([(0, 3, 200, 2)])
        assert same_bound.cache_hits == 1
        assert same_bound.worlds_sampled == 0

    def test_hop_bounded_replay_is_exact(self, graph):
        engine = BatchEngine(graph, seed=5)
        first = engine.run([(0, 3, 200, 2)])
        replay = engine.run([(0, 3, 200, 2)])
        np.testing.assert_array_equal(first.estimates, replay.estimates)
        assert replay.worlds_sampled == 0
