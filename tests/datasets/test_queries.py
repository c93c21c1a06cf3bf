"""Tests for query-workload generation (paper §3.1.3, §3.9)."""

import pytest

from repro.core.graph import UncertainGraph
from repro.datasets.queries import WorkloadError, generate_workload
from repro.datasets.suite import load_dataset


@pytest.fixture(scope="module")
def tiny_graph():
    return load_dataset("lastfm", "tiny", seed=0).graph


class TestGenerateWorkload:
    def test_pair_count(self, tiny_graph):
        workload = generate_workload(tiny_graph, pair_count=12, seed=0)
        assert len(workload) == 12

    def test_pairs_at_exact_distance(self, tiny_graph):
        workload = generate_workload(
            tiny_graph, pair_count=15, hop_distance=2, seed=1
        )
        for source, target in workload:
            distances = tiny_graph.bfs_distances(source, max_hops=2)
            assert distances[target] == 2

    def test_sources_distinct(self, tiny_graph):
        workload = generate_workload(tiny_graph, pair_count=15, seed=2)
        sources = [source for source, _ in workload]
        assert len(set(sources)) == len(sources)

    def test_deterministic(self, tiny_graph):
        a = generate_workload(tiny_graph, pair_count=8, seed=5)
        b = generate_workload(tiny_graph, pair_count=8, seed=5)
        assert a.pairs == b.pairs

    def test_different_seeds_differ(self, tiny_graph):
        a = generate_workload(tiny_graph, pair_count=8, seed=5)
        b = generate_workload(tiny_graph, pair_count=8, seed=6)
        assert a.pairs != b.pairs

    def test_impossible_distance_raises(self):
        graph = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        with pytest.raises(WorkloadError):
            generate_workload(graph, pair_count=2, hop_distance=9, seed=0)

    def test_invalid_parameters(self, tiny_graph):
        with pytest.raises(ValueError):
            generate_workload(tiny_graph, pair_count=0)
        with pytest.raises(ValueError):
            generate_workload(tiny_graph, pair_count=5, hop_distance=0)

class TestDistanceSweep:
    def test_one_workload_per_distance(self):
        graph = load_dataset("biomine", "tiny", seed=0).graph
        # The §3.9 sweep: one generator call per hop distance.
        workloads = {
            distance: generate_workload(
                graph, pair_count=5, hop_distance=distance, seed=distance
            )
            for distance in (2, 3)
        }
        assert set(workloads) == {2, 3}
        for distance, workload in workloads.items():
            assert workload.hop_distance == distance
            for source, target in workload:
                assert graph.bfs_distances(source)[target] == distance
