"""Tests for the LRU result cache and graph fingerprinting."""

from repro.core.graph import UncertainGraph
from repro.engine.cache import (
    UNBOUNDED_HOPS,
    ResultCache,
    graph_fingerprint,
    result_key,
)


class TestGraphFingerprint:
    def test_identical_graphs_share_fingerprint(self):
        edges = [(0, 1, 0.5), (1, 2, 0.25)]
        a = UncertainGraph(3, edges)
        b = UncertainGraph(3, edges)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_probability_change_changes_fingerprint(self):
        a = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.25)])
        b = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.26)])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_structure_change_changes_fingerprint(self):
        a = UncertainGraph(3, [(0, 1, 0.5)])
        b = UncertainGraph(3, [(0, 2, 0.5)])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_fingerprint_is_memoised(self):
        graph = UncertainGraph(3, [(0, 1, 0.5)])
        assert graph_fingerprint(graph) is graph_fingerprint(graph)

    def test_in_place_mutation_invalidates_the_memo(self):
        # Regression: the memo used to be a bare attribute stamped once,
        # so a graph whose probabilities changed in place kept serving
        # its *old* digest — silently aliasing cache entries across
        # versions.  The memo is version-aware now.
        from repro.core.mutation import set_edge_probability

        graph = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.25)])
        before = graph_fingerprint(graph)
        set_edge_probability(graph, 0, 1, 0.75)
        after = graph_fingerprint(graph)
        assert before != after
        # And the new digest matches a fresh graph with the new edges.
        fresh = UncertainGraph(3, [(0, 1, 0.75), (1, 2, 0.25)])
        assert after == graph_fingerprint(fresh)

    def test_successor_graph_gets_its_own_fingerprint(self):
        from repro.core.mutation import apply_update

        graph = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.25)])
        before = graph_fingerprint(graph)
        mutation = apply_update(graph, set_edges=[(0, 1, 0.9)])
        assert graph_fingerprint(mutation.graph) != before
        # The predecessor is untouched: same digest, memo still valid.
        assert graph_fingerprint(graph) is before


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key = result_key("fp", 0, 1, 100, 7)
        assert cache.get(key) is None
        cache.put_many([(key, 0.5)])
        assert cache.get(key) == 0.5
        assert cache.hits == 1
        assert cache.misses == 1

    def test_distinct_seeds_do_not_collide(self):
        cache = ResultCache(capacity=4)
        cache.put_many([(result_key("fp", 0, 1, 100, 7), 0.5)])
        assert cache.get(result_key("fp", 0, 1, 100, 8)) is None

    def test_hop_bounds_partition_keys(self):
        # The d-hop indicator is a different random variable over the same
        # worlds: (s, t, K, seed) must never alias across max_hops values.
        unbounded = result_key("fp", 0, 1, 100, 7)
        hop2 = result_key("fp", 0, 1, 100, 7, max_hops=2)
        hop3 = result_key("fp", 0, 1, 100, 7, max_hops=3)
        assert len({unbounded, hop2, hop3}) == 3
        assert unbounded[-1] == UNBOUNDED_HOPS

    def test_default_hop_encoding_matches_explicit_none(self):
        assert result_key("fp", 0, 1, 100, 7) == result_key(
            "fp", 0, 1, 100, 7, max_hops=None
        )

    def test_cache_never_serves_across_hop_bounds(self):
        cache = ResultCache(capacity=8)
        cache.put_many([(result_key("fp", 0, 1, 100, 7), 0.5)])
        cache.put_many([(result_key("fp", 0, 1, 100, 7, max_hops=2), 0.25)])
        assert cache.get(result_key("fp", 0, 1, 100, 7, max_hops=3)) is None
        assert cache.get(result_key("fp", 0, 1, 100, 7, max_hops=2)) == 0.25
        assert cache.get(result_key("fp", 0, 1, 100, 7)) == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        first = result_key("fp", 0, 1, 10, 0)
        second = result_key("fp", 0, 2, 10, 0)
        third = result_key("fp", 0, 3, 10, 0)
        cache.put_many([(first, 0.1)])
        cache.put_many([(second, 0.2)])
        assert cache.get(first) == 0.1  # promote `first`
        cache.put_many([(third, 0.3)])  # evicts `second`, the LRU entry
        assert second not in cache
        assert first in cache and third in cache
        assert len(cache) == 2

    def test_statistics_shape(self):
        cache = ResultCache(capacity=3)
        cache.put_many([(result_key("fp", 0, 1, 10, 0), 0.1)])
        cache.get(result_key("fp", 0, 1, 10, 0))
        stats = cache.statistics()
        assert stats == {"size": 1, "capacity": 3, "hits": 1, "misses": 0}

    def test_clear(self):
        cache = ResultCache(capacity=3)
        cache.put_many([(result_key("fp", 0, 1, 10, 0), 0.1)])
        cache.clear()
        assert len(cache) == 0

    def test_put_many_equals_individual_puts(self):
        batched = ResultCache(capacity=8)
        looped = ResultCache(capacity=8)
        items = [
            (result_key("fp", 0, target, 10, 0), target / 10.0)
            for target in range(5)
        ]
        batched.put_many(items)
        for key, value in items:
            looped.put_many([(key, value)])
        for key, value in items:
            assert batched.get(key) == value
        assert len(batched) == len(looped)

    def test_put_many_respects_capacity(self):
        cache = ResultCache(capacity=3)
        cache.put_many(
            (result_key("fp", 0, target, 10, 0), 0.5) for target in range(9)
        )
        assert len(cache) == 3


class TestThreadSafety:
    """The cache is shared by one engine per concurrently served request."""

    def test_concurrent_gets_and_puts_stay_consistent(self):
        import threading

        cache = ResultCache(capacity=64)
        keys = [result_key("fp", 0, target, 100, 7) for target in range(32)]
        errors = []

        def hammer(worker: int) -> None:
            try:
                for round_number in range(300):
                    key = keys[(worker + round_number) % len(keys)]
                    value = cache.get(key)
                    # Exactness: a present value is always the right one.
                    if value is not None and value != key[2] / 32.0:
                        errors.append((key, value))
                    cache.put_many([(key, key[2] / 32.0)])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64
        stats = cache.statistics()
        assert stats["hits"] + stats["misses"] == 8 * 300

    def test_concurrent_eviction_pressure_keeps_the_bound(self):
        import threading

        cache = ResultCache(capacity=4)  # far below the working set
        errors = []

        def writer(worker: int) -> None:
            try:
                for round_number in range(200):
                    key = result_key("fp", worker, round_number, 10, 0)
                    cache.put_many([(key, 0.5)])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 4
