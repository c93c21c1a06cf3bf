"""The one-source queries: a row of the engine's world stream, ranked,
thresholded, or re-bounded (top-k, reliable set, distance profile)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.exact import reliability_exact
from repro.core.graph import UncertainGraph
from repro.engine.batch import BatchEngine
from repro.queries.top_k import (
    all_reliabilities,
    distance_profile,
    reliable_set,
    top_k_reliable_targets,
)
from tests.conftest import random_graph, small_graph_parts


@pytest.fixture
def star_graph():
    """Hub 0 with spokes of descending probability."""
    return UncertainGraph(
        5, [(0, 1, 0.9), (0, 2, 0.6), (0, 3, 0.3), (0, 4, 0.05)]
    )


class TestAllReliabilities:
    def test_source_reliability_is_one(self, diamond_graph):
        assert all_reliabilities(diamond_graph, 0, samples=400)[0] == 1.0

    def test_matches_exact_per_node(self):
        graph = random_graph(1, node_count=6, edge_probability=0.4)
        values = all_reliabilities(graph, 0, samples=20_000)
        for node in range(1, 6):
            exact = reliability_exact(graph, 0, node)
            assert values[node] == pytest.approx(exact, abs=0.02), node

    def test_row_is_the_engines_batch_answer(self):
        graph = random_graph(2, node_count=7, edge_probability=0.4)
        for seed in (0, 9):
            batch = BatchEngine(graph, seed=seed).run(
                [(3, node, 300) for node in range(7)]
            )
            row = all_reliabilities(graph, 3, samples=300, seed=seed)
            assert row.tolist() == batch.estimates.tolist()

    def test_engine_factory_cannot_change_a_bit(self):
        graph = random_graph(3, node_count=7, edge_probability=0.4)
        reference = all_reliabilities(graph, 0, samples=300, seed=5)
        configured = functools.partial(
            BatchEngine, chunk_size=64, kernels="vectorized"
        )
        row = all_reliabilities(
            graph, 0, samples=300, seed=5, engine=configured
        )
        assert row.tolist() == reference.tolist()

    def test_invalid_arguments(self, diamond_graph):
        with pytest.raises(ValueError, match="samples"):
            all_reliabilities(diamond_graph, 0, samples=0)
        with pytest.raises(ValueError, match="source"):
            all_reliabilities(diamond_graph, 4)

    @given(small_graph_parts)
    @settings(max_examples=20, deadline=None)
    def test_values_are_probabilities_and_source_is_one(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        values = all_reliabilities(graph, 0, samples=64)
        assert values.shape == (node_count,)
        assert ((values >= 0.0) & (values <= 1.0)).all()
        assert values[0] == 1.0
        # A node unreachable in the certain graph must score 0.
        unreachable = graph.bfs_distances(0) < 0
        assert (values[unreachable] == 0.0).all()


class TestTopK:
    def test_ranking_order(self):
        # 0 -> 1 strong, 0 -> 2 weak, 0 -> 3 via 1 (medium).
        graph = UncertainGraph(4, [(0, 1, 0.95), (0, 2, 0.1), (1, 3, 0.6)])
        ranking = top_k_reliable_targets(graph, 0, k=3, samples=4_000)
        assert [node for node, _ in ranking] == [1, 3, 2]

    def test_k_truncates(self, diamond_graph):
        ranking = top_k_reliable_targets(diamond_graph, 0, k=2, samples=400)
        assert len(ranking) == 2

    def test_source_excluded_by_default(self, diamond_graph):
        ranking = top_k_reliable_targets(diamond_graph, 0, k=4, samples=400)
        assert sorted(node for node, _ in ranking) == [1, 2, 3]

    def test_source_included_on_request(self, diamond_graph):
        ranking = top_k_reliable_targets(
            diamond_graph, 0, k=4, samples=400, include_source=True
        )
        assert ranking[0] == (0, 1.0)

    def test_unreached_nodes_scored_zero(self):
        graph = UncertainGraph(4, [(0, 1, 0.9)])  # nodes 2, 3 isolated
        scores = dict(top_k_reliable_targets(graph, 0, k=4, samples=400))
        assert scores[2] == 0.0
        assert scores[3] == 0.0

    def test_ties_break_by_node_id(self):
        # 2 and 1 are certain (tied at 1.0), 4 and 3 unreachable (tied at 0).
        graph = UncertainGraph(5, [(0, 2, 1.0), (0, 1, 1.0)])
        ranking = top_k_reliable_targets(graph, 0, k=4, samples=50)
        assert ranking == [(1, 1.0), (2, 1.0), (3, 0.0), (4, 0.0)]

    def test_invalid_k(self, diamond_graph):
        with pytest.raises(ValueError):
            top_k_reliable_targets(diamond_graph, 0, k=0)


class TestReliableSet:
    def test_threshold_filters(self, star_graph):
        members = reliable_set(star_graph, 0, threshold=0.5, samples=4_000)
        assert [node for node, _ in members] == [1, 2]

    def test_low_threshold_includes_more(self, star_graph):
        members = reliable_set(star_graph, 0, threshold=0.02, samples=4_000)
        assert len(members) == 4

    def test_sorted_by_reliability(self, star_graph):
        members = reliable_set(star_graph, 0, threshold=0.02, samples=4_000)
        values = [value for _, value in members]
        assert values == sorted(values, reverse=True)

    def test_members_are_the_thresholded_row(self, star_graph):
        row = all_reliabilities(star_graph, 0, samples=500, seed=2)
        members = reliable_set(
            star_graph, 0, threshold=0.25, samples=500, seed=2
        )
        assert dict(members) == {
            node: row[node] for node in range(1, 5) if row[node] >= 0.25
        }

    def test_source_excluded_by_default(self, star_graph):
        members = reliable_set(star_graph, 0, threshold=0.5, samples=500)
        assert all(node != 0 for node, _ in members)

    def test_source_included_on_request(self, star_graph):
        members = reliable_set(
            star_graph, 0, threshold=0.5, samples=500, include_source=True
        )
        assert members[0] == (0, 1.0)

    def test_invalid_threshold(self, star_graph):
        with pytest.raises(ValueError):
            reliable_set(star_graph, 0, threshold=0.0)
        with pytest.raises(ValueError):
            reliable_set(star_graph, 0, threshold=1.5)


class TestDistanceProfile:
    def test_too_short_budget_gives_zero(self, chain_graph):
        # Target is 3 hops away; 1 or 2 hops cannot reach it.
        profile = distance_profile(chain_graph, 0, 3, 3, samples=30_000)
        assert profile[0] == 0.0 and profile[1] == 0.0
        assert profile[2] == pytest.approx(0.8**3, abs=0.01)

    def test_profile_monotone_and_saturating(self, diamond_graph):
        profile = distance_profile(
            diamond_graph, 0, 3, max_distance=4, samples=20_000, seed=2
        )
        assert profile.shape == (4,)
        # d=1: no direct edge -> 0; d>=2: both 2-hop paths -> 0.4375.
        assert profile[0] == 0.0
        assert profile[1] == pytest.approx(0.4375, abs=0.015)
        # Shared worlds: past the longest path the profile is flat, exactly.
        assert profile[1] == profile[2] == profile[3]

    def test_detour_adds_mass(self):
        # Direct unreliable edge vs a longer reliable detour.
        graph = UncertainGraph(
            4, [(0, 3, 0.2), (0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]
        )
        profile = distance_profile(graph, 0, 3, 3, samples=20_000, seed=1)
        assert profile[0] == pytest.approx(0.2, abs=0.01)
        assert profile[2] > profile[0] + 0.4  # detour adds 0.9^3 ~ 0.73

    def test_profile_is_the_engines_max_hops_answer(self, diamond_graph):
        batch = BatchEngine(diamond_graph, seed=7).run(
            [(0, 3, 300, hops) for hops in (1, 2, 3)]
        )
        profile = distance_profile(diamond_graph, 0, 3, 3, 300, seed=7)
        assert profile.tolist() == batch.estimates.tolist()

    def test_source_equals_target(self, chain_graph):
        assert distance_profile(chain_graph, 2, 2, 2, 10).tolist() == [1.0, 1.0]

    def test_invalid_arguments(self, diamond_graph):
        with pytest.raises(ValueError):
            distance_profile(diamond_graph, 0, 3, max_distance=0)
        with pytest.raises(ValueError):
            distance_profile(diamond_graph, 0, 3, 2, samples=0)

    @given(small_graph_parts)
    @settings(max_examples=25, deadline=None)
    def test_monotone_up_to_the_unconstrained_row(self, parts):
        node_count, triples = parts
        graph = UncertainGraph(node_count, triples)
        target = node_count - 1
        profile = distance_profile(graph, 0, target, node_count, samples=128)
        assert (np.diff(profile) >= 0.0).all()
        # A simple path has at most n - 1 edges: the bound stops binding.
        assert profile[-1] == all_reliabilities(graph, 0, samples=128)[target]
