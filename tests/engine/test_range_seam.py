"""One seam, four places to sweep: the range-evaluator conformance suite.

:meth:`BatchEngine.run` owns planning, cache lookups, the merge and the
cache write; *where* the pending worlds ``[0, K)`` are swept is the one
thing that varies — inline, an attached :class:`WorkerPool`, the
registry pool a multi-worker engine borrows, or a
:class:`ShardCoordinator` over shard servers.  Every evaluator gets the
same workload over the same partially-warm cache and must report the
same result in every field that is not a wall clock.
"""

import inspect
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReliabilityService
from repro.distributed import ShardCoordinator, ShardTierConfig, coordinator
from repro.engine import pool as pool_module
from repro.engine.batch import BatchEngine, partition_ranges
from repro.engine.cache import ResultCache
from repro.engine.pool import WorkerPool, close_shared_pools, shared_pool
from repro.serve import create_server
from tests.conftest import random_graph

SEED = 5
CHUNK = 64

#: Mixed budgets, two hop bounds, shared sources, and duplicates.
WORKLOAD = [
    (0, 3, 400),
    (0, 5, 400),
    (1, 4, 250),
    (2, 6, 300),
    (0, 3, 400),  # duplicate on purpose
    (5, 2, 150),
    (0, 3, 400, 2),
    (1, 4, 250, 3),
    (1, 4, 250, 3),  # duplicate of a hop-bounded query
    (2, 7, 90, 2),
]

#: The keys the cache already holds when the workload arrives: the whole
#: (1, hops=3) group, part of source 0's group, none of the rest.
WARM = [(1, 4, 250, 3), (0, 5, 400)]


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


def warm_cache(graph, seed=SEED):
    cache = ResultCache(capacity=64)
    BatchEngine(graph, seed=seed, chunk_size=CHUNK, workers=1, cache=cache).run(
        WARM
    )
    return cache


def run_through(graph, seed=SEED, **options):
    options.setdefault("workers", 1)
    engine = BatchEngine(
        graph, seed=seed, chunk_size=CHUNK, cache=warm_cache(graph, seed),
        **options,
    )
    return engine.run(WORKLOAD)


@pytest.fixture(scope="module")
def inline(graph):
    # The reference sweeps here with the per-node Python kernels; every
    # evaluator below sweeps its ranges with the default ones.
    return run_through(graph, kernels="python")


@pytest.fixture()
def shard_urls(graph):
    """Two real shard servers (HTTP, ephemeral ports) over ``graph``."""
    workers = []
    for _ in range(2):
        service = ReliabilityService(graph, seed=SEED)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        workers.append((service, server, thread))
    try:
        yield [server.url for _, server, _ in workers]
    finally:
        for service, server, thread in workers:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)
            assert not thread.is_alive()


def assert_same_run(result, reference, contributors):
    np.testing.assert_array_equal(result.estimates, reference.estimates)
    np.testing.assert_array_equal(result.from_cache, reference.from_cache)
    assert result.queries == reference.queries
    assert result.sweeps == reference.sweeps
    assert result.worlds_sampled == reference.worlds_sampled
    assert result.cache_hits == reference.cache_hits
    assert result.cache_misses == reference.cache_misses
    assert result.fingerprint == reference.fingerprint
    assert result.workers == contributors


class TestSeamConformance:
    def test_the_reference_run_is_the_interesting_one(self, graph, inline):
        # Guards the suite itself: some keys replayed, some swept, and
        # more than one chunk so there is something to partition.
        assert inline.cache_hits == len(WARM)
        assert inline.cache_misses == len(set(WORKLOAD)) - len(WARM)
        assert inline.from_cache.any() and not inline.from_cache.all()
        assert inline.worlds_sampled == 400  # max K over the *pending* keys
        assert inline.workers == 1
        cold = BatchEngine(graph, seed=SEED, chunk_size=CHUNK, workers=1).run(
            WORKLOAD
        )
        np.testing.assert_array_equal(inline.estimates, cold.estimates)
        assert inline.sweeps < cold.sweeps  # warm groups were not swept

    def test_attached_worker_pool(self, graph, inline):
        with WorkerPool(graph, 2) as pool:
            pooled = run_through(graph, workers=2, pool=pool)
            assert pool.statistics()["runs"] == 1
        assert_same_run(pooled, inline, contributors=2)

    def test_registry_pool_is_borrowed_and_reused(self, graph, inline):
        close_shared_pools()
        try:
            first = run_through(graph, workers=2)
            registry_pool = shared_pool(graph, 2)
            pids = set(registry_pool.worker_pids())
            assert len(pids) == 2
            assert registry_pool.statistics()["runs"] == 1
            # A fresh engine, a fresh seed: same registry pool, same
            # worker processes — no per-run forking.
            other = run_through(graph, seed=SEED + 1, workers=2)
            assert shared_pool(graph, 2) is registry_pool
            assert set(registry_pool.worker_pids()) == pids
            assert registry_pool.statistics()["runs"] == 2
        finally:
            close_shared_pools()
        assert_same_run(first, inline, contributors=2)
        assert_same_run(
            other, run_through(graph, seed=SEED + 1), contributors=2
        )

    def test_shard_coordinator(self, graph, inline, shard_urls):
        tier = ShardCoordinator(
            shard_urls,
            config=ShardTierConfig(
                timeout=10.0, retries=0, backoff=0.0, cooldown=300.0,
                local_fallback=False,
            ),
        )
        sharded = run_through(graph, pool=tier)
        assert_same_run(sharded, inline, contributors=2)
        statistics = tier.statistics()
        assert statistics["batches"] == 1
        assert statistics["ranges_dispatched"] == 2
        assert statistics["local_fallbacks"] == 0

    @pytest.mark.parametrize("chunk_size,expected", [(1000, 1), (200, 2)])
    def test_workers_is_min_of_workers_and_chunks(
        self, graph, chunk_size, expected
    ):
        with WorkerPool(graph, 2) as pool:
            result = BatchEngine(
                graph, seed=SEED, chunk_size=chunk_size, workers=8, pool=pool
            ).run(WORKLOAD)
        assert result.workers == expected

    def test_both_evaluators_share_one_signature_and_partitioner(self):
        def shape(function):
            return [
                (parameter.name, parameter.kind)
                for parameter in inspect.signature(function).parameters.values()
            ]

        assert shape(WorkerPool.evaluate) == shape(ShardCoordinator.evaluate)
        assert pool_module.partition_ranges is partition_ranges
        assert coordinator.partition_ranges is partition_ranges


class TestPartitionRanges:
    """The partitioner's contract, exercised from its home in the engine."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        total=st.integers(min_value=1, max_value=5_000),
        chunk_size=st.integers(min_value=1, max_value=300),
        parts=st.integers(min_value=-2, max_value=40),
    )
    def test_contiguous_disjoint_aligned_cover(self, total, chunk_size, parts):
        ranges = partition_ranges(total, chunk_size, parts)
        chunks = -(-total // chunk_size)
        assert len(ranges) == max(1, min(parts, chunks))
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        for (start, stop), (next_start, _) in zip(ranges, ranges[1:]):
            assert stop == next_start  # contiguous and disjoint
        spans = []
        for start, stop in ranges:
            assert start < stop
            assert start % chunk_size == 0  # chunk-aligned starts
            spans.append(-(-(stop - start) // chunk_size))
        assert sum(spans) == chunks
        assert max(spans) - min(spans) <= 1  # balanced to within a chunk

    def test_empty_interval_has_no_ranges(self):
        assert partition_ranges(0, 64, 3) == []
        assert partition_ranges(-5, 64, 3) == []

    def test_union_of_ranges_reproduces_the_whole_sweep(self, graph):
        engine = BatchEngine(graph, seed=SEED, chunk_size=CHUNK, workers=1)
        whole = engine.run_range(WORKLOAD, 0, 400)
        for parts in (2, 3, 7):
            pieces = [
                engine.run_range(WORKLOAD, start, stop)
                for start, stop in partition_ranges(400, CHUNK, parts)
            ]
            np.testing.assert_array_equal(
                sum(piece.hits for piece in pieces), whole.hits
            )
            assert sum(piece.sweeps for piece in pieces) == whole.sweeps
