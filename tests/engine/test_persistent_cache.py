"""Tests for the persistent result cache: the SQLite sidecar.

The sidecar is an accelerator, never a correctness dependency, so the
failure modes matter as much as the happy path: a corrupted file must be
quarantined (not crash the run), a re-fingerprinted graph must never be
served stale rows, concurrent readers must all see committed results, and
hop bounds must partition keys on disk exactly as they do in memory.
"""

import sqlite3
import threading

import numpy as np
import pytest

from repro.core.graph import UncertainGraph
from repro.engine import cache as cache_module
from repro.engine.batch import BatchEngine
from repro.engine.cache import (
    RESULT_CACHE_FILENAME,
    PersistentResultCache,
    graph_fingerprint,
    open_result_cache,
    result_key,
)


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


def sidecar_of(cache_dir):
    return cache_dir / RESULT_CACHE_FILENAME


class TestRoundTrip:
    def test_survives_the_instance(self, cache_dir):
        key = result_key("fp", 0, 1, 100, 7)
        first = open_result_cache(cache_dir)
        first.put(key, 0.5)
        first.close()
        second = open_result_cache(cache_dir)
        assert second.get(key) == 0.5
        assert second.disk_hits == 1

    def test_disk_hit_promotes_into_memory(self, cache_dir):
        key = result_key("fp", 0, 1, 100, 7)
        writer = open_result_cache(cache_dir)
        writer.put(key, 0.25)
        writer.close()
        reader = open_result_cache(cache_dir)
        assert reader.get(key) == 0.25
        assert reader.get(key) == 0.25  # now a pure memory hit
        assert reader.disk_hits == 1
        assert reader.hits == 2

    def test_huge_unsigned_seeds_round_trip(self, cache_dir):
        # Engine seeds span the full uint64 range, which SQLite's signed
        # INTEGER cannot hold — seeds are stored as TEXT.
        key = result_key("fp", 0, 1, 100, 2**64 - 1)
        writer = open_result_cache(cache_dir)
        writer.put(key, 0.125)
        writer.close()
        assert open_result_cache(cache_dir).get(key) == 0.125

    def test_statistics_extend_the_base_counters(self, cache_dir):
        cache = open_result_cache(cache_dir)
        cache.put(result_key("fp", 0, 1, 10, 0), 0.1)
        stats = cache.statistics()
        assert stats["disk_size"] == 1
        assert stats["persistent"] is True
        assert {"size", "capacity", "hits", "misses"} <= set(stats)


class TestCorruptedSidecar:
    def test_garbage_file_is_quarantined_not_fatal(self, cache_dir):
        cache_dir.mkdir(parents=True)
        sidecar_of(cache_dir).write_bytes(b"this is not a sqlite file" * 64)
        cache = open_result_cache(cache_dir)
        assert not cache.disabled
        key = result_key("fp", 0, 1, 100, 7)
        assert cache.get(key) is None
        cache.put(key, 0.5)
        assert cache.get(key) == 0.5
        assert sidecar_of(cache_dir).with_suffix(".corrupt").exists()

    def test_fresh_sidecar_persists_after_quarantine(self, cache_dir):
        cache_dir.mkdir(parents=True)
        sidecar_of(cache_dir).write_bytes(b"\x00" * 512)
        key = result_key("fp", 0, 1, 100, 7)
        first = open_result_cache(cache_dir)
        first.put(key, 0.75)
        first.close()
        assert open_result_cache(cache_dir).get(key) == 0.75

    def test_runtime_sqlite_failure_degrades_to_memory(self, cache_dir):
        cache = open_result_cache(cache_dir)
        key = result_key("fp", 0, 1, 100, 7)
        cache.put(key, 0.5)
        # Yank the connection out from under the cache: subsequent disk
        # operations fail, persistence turns off, memory keeps serving.
        cache._connection.close()
        other = result_key("fp", 0, 2, 100, 7)
        cache.put(other, 0.25)
        assert cache.disabled
        assert cache.get(key) == 0.5
        assert cache.get(other) == 0.25


class TestFingerprintIsolation:
    def test_mutated_graph_never_served_stale_rows(self, tmp_path):
        cache_dir = tmp_path / "cache"
        original = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.25)])
        mutated = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.26)])
        assert graph_fingerprint(original) != graph_fingerprint(mutated)

        first = BatchEngine(original, seed=0, cache=open_result_cache(cache_dir))
        warm = BatchEngine(original, seed=0, cache=open_result_cache(cache_dir))
        cold = BatchEngine(mutated, seed=0, cache=open_result_cache(cache_dir))
        workload = [(0, 2, 150)]
        first.run(workload)
        assert warm.run(workload).worlds_sampled == 0
        mutated_result = cold.run(workload)
        assert mutated_result.worlds_sampled == 150
        assert mutated_result.cache_hits == 0

    def test_distinct_fingerprints_coexist_in_one_sidecar(self, cache_dir):
        cache = open_result_cache(cache_dir)
        cache.put(result_key("fp-a", 0, 1, 100, 7), 0.5)
        cache.put(result_key("fp-b", 0, 1, 100, 7), 0.75)
        cache.close()
        reopened = open_result_cache(cache_dir)
        assert reopened.get(result_key("fp-a", 0, 1, 100, 7)) == 0.5
        assert reopened.get(result_key("fp-b", 0, 1, 100, 7)) == 0.75


class TestUpdateLifecycle:
    """The sidecar across a live service update (the PR 7 tentpole)."""

    def test_pre_update_entries_survive_and_new_keys_miss_then_fill(
        self, tmp_path
    ):
        from repro.api import (
            BatchRequest,
            ReliabilityService,
            UpdateRequest,
            coerce_query_specs,
        )

        cache_dir = str(tmp_path / "cache")
        graph = UncertainGraph(
            4, [(0, 1, 0.8), (1, 2, 0.7), (2, 3, 0.6), (0, 2, 0.5)]
        )
        request = BatchRequest(queries=coerce_query_specs([[0, 3, 150]]))
        with ReliabilityService(
            graph, seed=5, cache_dir=cache_dir
        ) as service:
            service.estimate_batch(request)
            disk_before = service.stats()["cache"]["disk_size"]
            service.update(UpdateRequest(set_edges=((1, 2, 0.9),)))
            # Post-update, the same request misses (new fingerprint)
            # and then fills the sidecar with new-version rows...
            cold = service.estimate_batch(request)
            assert cold.engine.cache_hits == 0
            assert cold.engine.cache_misses == 1
            assert service.stats()["cache"]["disk_size"] == disk_before + 1
            warm = service.estimate_batch(request)
            assert warm.engine.worlds_sampled == 0

        # ...and both versions' rows are durable across a restart: a new
        # service over the *original* graph warm-starts from the
        # pre-update entries, untouched by the update.
        with ReliabilityService(
            graph, seed=5, cache_dir=cache_dir
        ) as service:
            replay = service.estimate_batch(request)
            assert replay.engine.cache_hits == 1
            assert replay.engine.worlds_sampled == 0


class TestHopBoundIsolation:
    def test_hop_bounds_partition_disk_keys(self, cache_dir):
        writer = open_result_cache(cache_dir)
        writer.put(result_key("fp", 0, 1, 100, 7), 0.5)
        writer.put(result_key("fp", 0, 1, 100, 7, max_hops=2), 0.25)
        writer.close()
        reader = open_result_cache(cache_dir)
        assert reader.get(result_key("fp", 0, 1, 100, 7, max_hops=3)) is None
        assert reader.get(result_key("fp", 0, 1, 100, 7, max_hops=2)) == 0.25
        assert reader.get(result_key("fp", 0, 1, 100, 7)) == 0.5

    def test_engine_dhop_rerun_warm_starts_without_aliasing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        graph = UncertainGraph(4, [(0, 1, 0.8), (1, 2, 0.8), (2, 3, 0.8)])
        bounded = [(0, 3, 120, 2)]
        unbounded = [(0, 3, 120)]
        first = BatchEngine(graph, seed=0, cache=open_result_cache(cache_dir))
        first.run(bounded)
        # The unbounded query must not be served the 2-hop number.
        second = BatchEngine(graph, seed=0, cache=open_result_cache(cache_dir))
        cold = second.run(unbounded)
        assert cold.cache_hits == 0
        third = BatchEngine(graph, seed=0, cache=open_result_cache(cache_dir))
        assert third.run(bounded).worlds_sampled == 0


class TestConcurrentReaders:
    def test_many_connections_read_committed_results(self, cache_dir):
        keys = [result_key("fp", 0, t, 100, 7) for t in range(16)]
        writer = open_result_cache(cache_dir)
        for offset, key in enumerate(keys):
            writer.put(key, offset / 16.0)
        writer.close()

        failures = []

        def reader() -> None:
            try:
                cache = open_result_cache(cache_dir)
                for offset, key in enumerate(keys):
                    value = cache.get(key)
                    if value != offset / 16.0:
                        failures.append((key, value))
                cache.close()
            except sqlite3.Error as error:  # pragma: no cover
                failures.append(error)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_interleaved_writers_serialise_on_the_file_lock(self, cache_dir):
        a = open_result_cache(cache_dir)
        b = open_result_cache(cache_dir)
        a.put(result_key("fp", 0, 1, 100, 7), 0.5)
        b.put(result_key("fp", 0, 2, 100, 7), 0.25)
        assert a.get(result_key("fp", 0, 2, 100, 7)) == 0.25
        assert b.get(result_key("fp", 0, 1, 100, 7)) == 0.5


class TestDiskEviction:
    def test_disk_capacity_bounds_the_table(self, cache_dir, monkeypatch):
        monkeypatch.setattr(cache_module, "DEFAULT_DISK_CAPACITY", 4)
        cache = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        for target in range(10):
            cache.put(result_key("fp", 0, target, 100, 7), target / 10.0)
        assert cache._disk_size() <= 4

    def test_replacing_puts_do_not_trigger_spurious_eviction(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "DEFAULT_DISK_CAPACITY", 4)
        # The row bound overcounts REPLACEs; the resync on overflow must
        # recognise that the table never actually grew.
        cache = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        key = result_key("fp", 0, 1, 100, 7)
        for round_number in range(20):
            cache.put(key, round_number / 20.0)
        assert cache._disk_size() == 1

    def test_row_bound_survives_reopen(self, cache_dir, monkeypatch):
        monkeypatch.setattr(cache_module, "DEFAULT_DISK_CAPACITY", 8)
        first = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        for target in range(5):
            first.put(result_key("fp", 0, target, 100, 7), 0.5)
        first.close()
        second = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        assert second._row_bound == 5

    def test_least_recently_touched_rows_evicted_first(self, cache_dir, monkeypatch):
        monkeypatch.setattr(cache_module, "DEFAULT_DISK_CAPACITY", 3)
        cache = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        keys = [result_key("fp", 0, t, 100, 7) for t in range(3)]
        for offset, key in enumerate(keys):
            cache.put(key, offset / 4.0)
        cache.close()
        # A *disk* read refreshes recency (memory-layer hits do not, by
        # design — the hot path stays write-free).
        toucher = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        assert toucher.get(keys[0]) == 0.0  # disk hit bumps keys[0]
        toucher.put(result_key("fp", 0, 99, 100, 7), 0.99)  # evicts keys[1]
        toucher.close()
        survivor = open_result_cache(cache_dir)
        assert survivor.get(keys[0]) == 0.0
        assert survivor.get(keys[1]) is None


class TestEngineIntegration:
    def test_second_engine_samples_zero_worlds(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        graph = UncertainGraph(4, [(0, 1, 0.8), (1, 2, 0.8), (2, 3, 0.8)])
        workload = [(0, 3, 200), (0, 2, 150)]
        cold = BatchEngine(
            graph, seed=3, cache=open_result_cache(cache_dir)
        ).run(workload)
        assert cold.worlds_sampled == 200
        warm_engine = BatchEngine(graph, seed=3, cache=open_result_cache(cache_dir))
        warm = warm_engine.run(workload)
        assert warm.worlds_sampled == 0
        assert warm.cache_hits == len(workload)
        np.testing.assert_array_equal(cold.estimates, warm.estimates)


class CountingConnection:
    """Delegating proxy that counts commits (sqlite3 methods are C-locked)."""

    def __init__(self, connection):
        self._inner = connection
        self.commits = 0

    def commit(self):
        self.commits += 1
        return self._inner.commit()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def counting(cache) -> CountingConnection:
    proxy = CountingConnection(cache._connection)
    cache._connection = proxy
    return proxy


class TestBatchedWrites:
    def test_put_many_commits_once(self, cache_dir):
        cache = open_result_cache(cache_dir)
        connection = counting(cache)
        cache.put_many(
            (result_key("fp", 0, target, 100, 7), target / 32.0)
            for target in range(32)
        )
        assert connection.commits == 1
        assert cache._disk_size() == 32
        cache.close()
        reopened = open_result_cache(cache_dir)
        for target in range(32):
            assert (
                reopened.get(result_key("fp", 0, target, 100, 7))
                == target / 32.0
            )

    def test_individual_puts_still_commit_each(self, cache_dir):
        # Durability contract: a crash after put() loses nothing.
        cache = open_result_cache(cache_dir)
        connection = counting(cache)
        for target in range(4):
            cache.put(result_key("fp", 0, target, 100, 7), 0.5)
        assert connection.commits == 4

    def test_empty_put_many_touches_nothing(self, cache_dir):
        cache = open_result_cache(cache_dir)
        connection = counting(cache)
        cache.put_many([])
        assert connection.commits == 0


class TestBatchedTouches:
    def test_disk_hits_defer_their_recency_commit(self, cache_dir):
        writer = open_result_cache(cache_dir)
        keys = [result_key("fp", 0, target, 100, 7) for target in range(8)]
        writer.put_many((key, 0.5) for key in keys)
        writer.close()

        reader = PersistentResultCache(sidecar_of(cache_dir))
        connection = counting(reader)
        for key in keys:
            assert reader.get(key) == 0.5  # all disk hits
        # The legacy behaviour paid one UPDATE+commit per hit; deferral
        # pays none until a flush point.
        assert connection.commits == 0
        assert len(reader._pending_touches) == 8
        reader.close()  # the final flush happens here
        assert not reader._pending_touches

    def test_touch_threshold_triggers_a_flush(self, cache_dir, monkeypatch):
        monkeypatch.setattr(cache_module, "DEFAULT_TOUCH_FLUSH_EVERY", 3)
        writer = open_result_cache(cache_dir)
        keys = [result_key("fp", 0, target, 100, 7) for target in range(6)]
        writer.put_many((key, 0.25) for key in keys)
        writer.close()

        reader = PersistentResultCache(sidecar_of(cache_dir))
        connection = counting(reader)
        for key in keys:
            assert reader.get(key) == 0.25
        assert connection.commits == 2  # 6 hits / threshold 3
        assert not reader._pending_touches

    def test_deferred_touches_survive_close(self, cache_dir, monkeypatch):
        monkeypatch.setattr(cache_module, "DEFAULT_DISK_CAPACITY", 3)
        # Recency written only at close must still order eviction in the
        # next process: the closed reader's disk hit keeps its row alive.
        cache = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        keys = [result_key("fp", 0, target, 100, 7) for target in range(3)]
        for offset, key in enumerate(keys):
            cache.put(key, offset / 4.0)
        cache.close()

        toucher = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        assert toucher.get(keys[0]) == 0.0  # deferred disk-hit tick
        toucher.close()  # tick flushed here, not at hit time

        # keys[0] is now the most recently touched row on disk.
        evictor = PersistentResultCache(sidecar_of(cache_dir), capacity=64)
        evictor.put(result_key("fp", 0, 99, 100, 7), 0.99)
        evictor.close()
        survivor = open_result_cache(cache_dir)
        assert survivor.get(keys[0]) == 0.0
        assert survivor.get(keys[1]) is None  # the true LRU was evicted

    def test_statistics_flushes_pending_recency(self, cache_dir):
        writer = open_result_cache(cache_dir)
        key = result_key("fp", 0, 1, 100, 7)
        writer.put(key, 0.5)
        writer.close()
        reader = open_result_cache(cache_dir)
        assert reader.get(key) == 0.5
        assert reader._pending_touches
        reader.statistics()
        assert not reader._pending_touches


class TestThreadSafety:
    """One sidecar, many handler threads — the serving layer's shape."""

    def test_threaded_hammer_never_corrupts_or_disables(self, cache_dir, monkeypatch):
        monkeypatch.setattr(cache_module, "DEFAULT_TOUCH_FLUSH_EVERY", 5)
        cache = PersistentResultCache(sidecar_of(cache_dir), capacity=32)
        keys = [result_key("fp", 0, target, 100, 7) for target in range(24)]
        errors = []

        def hammer(worker: int) -> None:
            try:
                for round_number in range(120):
                    key = keys[(worker * 7 + round_number) % len(keys)]
                    value = cache.get(key)
                    if value is not None and value != key[2] / 24.0:
                        errors.append(("wrong value", key, value))
                    cache.put(key, key[2] / 24.0)
                    if round_number % 40 == 0:
                        cache.statistics()
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
        assert not cache.disabled
        stats = cache.statistics()
        assert stats["persistent"] is True
        assert stats["disk_size"] == len(keys)
        cache.close()
        # Every value survived the stampede bit-exactly.
        reopened = open_result_cache(cache_dir)
        for key in keys:
            assert reopened.get(key) == key[2] / 24.0

    def test_concurrent_put_many_batches_interleave_safely(self, cache_dir):
        cache = open_result_cache(cache_dir)
        errors = []

        def writer(worker: int) -> None:
            try:
                cache.put_many(
                    (result_key("fp", worker, target, 100, 7), 0.5)
                    for target in range(50)
                )
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
        assert not cache.disabled
        assert cache._disk_size() == 300

    def test_flush_publishes_recency_without_closing(self, cache_dir):
        # flush() is the on-demand flush point for operators that want
        # cross-process recency visibility from a still-open cache.
        writer = open_result_cache(cache_dir)
        key = result_key("fp", 0, 1, 100, 7)
        writer.put(key, 0.5)
        writer.close()
        reader = open_result_cache(cache_dir)
        connection = counting(reader)
        assert reader.get(key) == 0.5
        assert reader._pending_touches
        reader.flush()
        assert not reader._pending_touches
        assert connection.commits == 1
        assert not reader.disabled  # still open and serving
        assert reader.get(key) == 0.5
