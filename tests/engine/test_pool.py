"""Lifecycle, failure-path and conformance tests for the worker pool.

The pool is an *accelerator*, never a correctness dependency: every test
here pins either a lifecycle transition (lazy start, respawn after a
worker crash, idempotent close, graph-update rejection), a failure path
(a range raising inside a worker, a pool closed before or during a run)
or the bit-for-bit agreement between pooled and in-process evaluation
that the engine's determinism contract promises.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.estimators.base import BatchQuery
from repro.engine import pool as pool_module
from repro.engine.batch import BatchEngine
from repro.engine.pool import (
    PoolClosedError,
    WorkerPool,
    close_shared_pools,
    registered_pool,
    shared_pool,
)
from tests.conftest import random_graph

WORKLOAD = [
    (0, 3, 400),
    (0, 5, 400),
    (1, 4, 250),
    (2, 6, 300),
    (0, 3, 400, 2),
    (5, 2, 150),
]


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


@pytest.fixture
def pool(graph):
    with WorkerPool(graph, workers=2) as pool:
        yield pool


def run_pooled(graph, pool, **kwargs):
    engine = BatchEngine(
        graph, seed=5, chunk_size=64, workers=2, pool=pool, **kwargs
    )
    return engine.run(WORKLOAD)


class TestConformance:
    def test_pooled_run_bit_identical_to_serial(self, graph, pool):
        serial = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        pooled = run_pooled(graph, pool)
        np.testing.assert_array_equal(pooled.estimates, serial.estimates)
        assert pooled.sweeps == serial.sweeps
        assert pooled.worlds_sampled == serial.worlds_sampled

    def test_pool_is_reused_across_runs(self, graph, pool):
        first = run_pooled(graph, pool)
        pids = set(pool.worker_pids())
        second = run_pooled(graph, pool)
        np.testing.assert_array_equal(first.estimates, second.estimates)
        # Same workers served both runs: no per-request forking.
        assert set(pool.worker_pids()) == pids
        assert pool.statistics()["runs"] == 2

    def test_pooled_run_matches_the_inline_python_kernel(self, graph, pool):
        # Ranges sweep the default kernels in the workers; the per-node
        # Python kernels, run inline, are the reference they must match.
        oracle = BatchEngine(
            graph, seed=5, chunk_size=64, workers=1, kernels="python"
        ).run(WORKLOAD)
        pooled = run_pooled(graph, pool)
        assert pooled.workers == 2
        np.testing.assert_array_equal(pooled.estimates, oracle.estimates)
        assert pooled.sweeps == oracle.sweeps


class TestLifecycle:
    def test_lazy_start(self, graph):
        pool = WorkerPool(graph, workers=2)
        assert not pool.started
        assert pool.worker_pids() == ()
        assert pool.healthy()
        assert pool.started
        pool.close()

    def test_crashed_worker_respawn(self, graph, pool):
        baseline = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        assert pool.healthy()
        for pid in pool.worker_pids():
            os.kill(pid, signal.SIGKILL)
        # The dead workers surface as BrokenProcessPool on the next run;
        # the pool must re-fork and retry it transparently.
        pooled = run_pooled(graph, pool)
        np.testing.assert_array_equal(pooled.estimates, baseline.estimates)
        stats = pool.statistics()
        assert stats["respawns"] >= 1
        assert pool.healthy()

    def test_close_is_idempotent(self, graph):
        pool = WorkerPool(graph, workers=2)
        assert pool.healthy()
        pool.close()
        pool.close()
        assert pool.closed
        assert not pool.started

    def test_closed_pool_raises_and_engine_falls_back(self, graph):
        pool = WorkerPool(graph, workers=2)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.evaluate(
                BatchEngine(graph, seed=5, chunk_size=64, workers=2),
                [BatchQuery(0, 3, 400)],
                400,
            )
        # The engine treats the closed pool as "no pool": the run still
        # completes (inline loop) with bit-identical results, and no
        # worker process is ever forked for it.
        serial = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        fallback = run_pooled(graph, pool)
        np.testing.assert_array_equal(fallback.estimates, serial.estimates)
        assert fallback.sweeps == serial.sweeps
        assert fallback.workers == 1  # nobody but this thread swept
        assert not pool.started

    def test_nothing_to_split_never_starts_the_pool(self, graph):
        # One chunk, or a one-worker engine: a lone range stays here.
        with WorkerPool(graph, workers=2) as pool:
            single_chunk = BatchEngine(
                graph, seed=5, chunk_size=1000, workers=2, pool=pool
            ).run(WORKLOAD)
            one_worker = BatchEngine(
                graph, seed=5, chunk_size=64, workers=1, pool=pool
            ).run(WORKLOAD)
            assert not pool.started
        serial = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        for result in (single_chunk, one_worker):
            np.testing.assert_array_equal(result.estimates, serial.estimates)
            assert result.workers == 1

    def test_graph_update_rejected(self, graph, pool):
        other = random_graph(seed=12, node_count=12, edge_probability=0.25)
        engine = BatchEngine(other, seed=5, chunk_size=64, workers=2, pool=pool)
        with pytest.raises(ValueError, match="does not match this pool"):
            engine.run(WORKLOAD)

    def test_healthy_false_after_close(self, graph):
        pool = WorkerPool(graph, workers=2)
        pool.close()
        assert not pool.healthy(timeout=5.0)

    def test_context_manager_closes(self, graph):
        with WorkerPool(graph, workers=1) as pool:
            assert pool.healthy()
        assert pool.closed


class TestSharedRegistry:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        close_shared_pools()
        yield
        close_shared_pools()

    def test_same_graph_shares_one_pool(self, graph):
        first = shared_pool(graph, workers=2)
        second = shared_pool(graph, workers=4)
        assert first is second  # first-seen worker count wins

    def test_distinct_graphs_get_distinct_pools(self, graph):
        other = random_graph(seed=12, node_count=12, edge_probability=0.25)
        assert shared_pool(graph, 1) is not shared_pool(other, 1)

    def test_closed_registry_pool_is_replaced(self, graph):
        first = shared_pool(graph, workers=1)
        first.close()
        second = shared_pool(graph, workers=1)
        assert second is not first
        assert not second.closed

    def test_multi_worker_engine_without_a_pool_borrows_the_registry(
        self, graph
    ):
        serial = BatchEngine(graph, seed=5, chunk_size=64, workers=1).run(
            WORKLOAD
        )
        pooled = BatchEngine(graph, seed=5, chunk_size=64, workers=2).run(
            WORKLOAD
        )
        np.testing.assert_array_equal(pooled.estimates, serial.estimates)
        registry_pool = shared_pool(graph, workers=2)
        assert registry_pool.statistics()["runs"] == 1

    def test_a_single_chunk_run_claims_no_registry_slot(self, graph):
        # Nothing to split: the run stays in-thread and must not register
        # (or, at capacity, evict) a pool on its way.
        result = BatchEngine(graph, seed=5, chunk_size=512, workers=2).run(
            WORKLOAD
        )
        assert result.workers == 1
        assert registered_pool(graph) is None

    def test_one_graphs_pool_is_retired_alone(self, graph):
        other = random_graph(seed=12, node_count=12, edge_probability=0.25)
        kept, retired = shared_pool(other, 1), shared_pool(graph, 1)
        assert close_shared_pools(graph) == 1
        assert retired.closed and not kept.closed
        assert registered_pool(graph) is None
        assert registered_pool(other) is kept
        assert close_shared_pools(graph) == 0


class RangeBoom(RuntimeError):
    """Marker raised inside a worker to simulate a mid-fan-out failure."""


#: Only a workload carrying this budget explodes, so one forked pool can
#: serve a failing run and then an honest one.
DOOMED_SAMPLES = 2_000

_REAL_RUN_RANGE = pool_module._run_range


def _exploding_run_range(stream, queries, start, stop):
    # Module-level so it pickles by reference into the forked workers; the
    # captured original keeps every other range honest.
    if start == 0 and queries[0].samples == DOOMED_SAMPLES:
        raise RangeBoom("range 0 exploded")
    return _REAL_RUN_RANGE(stream, queries, start, stop)


def _slow_run_range(stream, queries, start, stop):
    time.sleep(0.3)
    return _REAL_RUN_RANGE(stream, queries, start, stop)


class TestFanOutFailure:
    """A range failing (or the pool vanishing) mid-fan-out.

    Ported from the per-run fork's regression suite: the error must
    reach the caller with its original type, queued ranges must not run
    on, no process beyond the pool's own workers may be left behind —
    and, new with a long-lived executor, the *same* pool must answer the
    next run bit-identically.
    """

    def test_worker_exception_propagates_and_pool_survives(
        self, graph, monkeypatch
    ):
        monkeypatch.setattr(pool_module, "_run_range", _exploding_run_range)
        baseline = {child.pid for child in multiprocessing.active_children()}
        with WorkerPool(graph, workers=2) as pool:
            # 8 ranges over 2 workers: most are still queued when range 0
            # raises, so the cancellation path really has work to cancel.
            engine = BatchEngine(
                graph, seed=5, chunk_size=16, workers=8, pool=pool
            )
            for _ in range(3):
                with pytest.raises(RangeBoom, match="range 0 exploded"):
                    engine.run([(0, 3, DOOMED_SAMPLES)])
            pids = set(pool.worker_pids())
            assert len(pids) == 2
            # Repeated failures neither respawn nor accumulate processes.
            children = {
                child.pid for child in multiprocessing.active_children()
            }
            assert children - baseline == pids
            assert pool.statistics()["respawns"] == 0
            assert pool.statistics()["runs"] == 0  # failed runs don't count
            # The same workers then answer an honest run bit-identically.
            recovered = BatchEngine(
                graph, seed=5, chunk_size=16, workers=2, pool=pool
            ).run(WORKLOAD)
            assert set(pool.worker_pids()) == pids
        # workers=1 explicitly: under REPRO_ENGINE_WORKERS the reference
        # must not fork a registry pool into the process census below.
        serial = BatchEngine(graph, seed=5, chunk_size=16, workers=1).run(
            WORKLOAD
        )
        np.testing.assert_array_equal(recovered.estimates, serial.estimates)
        assert recovered.sweeps == serial.sweeps
        _wait_for_no_children_beyond(baseline)

    def test_queued_ranges_are_cancelled_on_failure(self, graph, monkeypatch):
        monkeypatch.setattr(pool_module, "_run_range", _exploding_run_range)
        with WorkerPool(graph, workers=1) as pool:
            executor = pool._ensure_started()
            submitted = []
            real_submit = executor.submit

            def recording_submit(*args, **kwargs):
                future = real_submit(*args, **kwargs)
                submitted.append(future)
                return future

            monkeypatch.setattr(executor, "submit", recording_submit)
            engine = BatchEngine(
                graph, seed=5, chunk_size=16, workers=64, pool=pool
            )
            with pytest.raises(RangeBoom):
                engine.run([(0, 3, DOOMED_SAMPLES)])
            assert len(submitted) == 64
            # One worker, range 0 fails first: the tail of the queue never
            # started and must have been cancelled, not left to run on.
            assert any(future.cancelled() for future in submitted)
            assert all(future.done() for future in submitted[-8:])

    def test_pool_closed_mid_run_completes_inline(self, graph, monkeypatch):
        monkeypatch.setattr(pool_module, "_run_range", _slow_run_range)
        serial = BatchEngine(graph, seed=5, chunk_size=16).run(WORKLOAD)
        pool = WorkerPool(graph, workers=1)
        assert pool.healthy()
        # 25 slow ranges on one worker: close() lands while most of the
        # run is still queued and cancels it under the engine.
        engine = BatchEngine(
            graph, seed=5, chunk_size=16, workers=64, pool=pool
        )
        closer = threading.Timer(0.4, pool.close)
        closer.start()
        try:
            result = engine.run(WORKLOAD)
        finally:
            closer.join(timeout=30)
        assert not closer.is_alive()
        assert pool.closed
        np.testing.assert_array_equal(result.estimates, serial.estimates)
        assert result.sweeps == serial.sweeps
        assert result.workers == 1  # the inline loop finished the job
        assert pool.statistics()["runs"] == 0


def _wait_for_no_children_beyond(baseline, timeout=15.0):
    deadline = time.monotonic() + timeout
    while True:
        leaked = {
            child.pid for child in multiprocessing.active_children()
        } - baseline
        if not leaked or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    assert not leaked, f"pool left worker processes behind: {leaked}"


class TestRespawnTiming:
    def test_respawn_does_not_leak_old_workers(self, graph):
        with WorkerPool(graph, workers=2) as pool:
            assert pool.healthy()
            old_pids = set(pool.worker_pids())
            for pid in old_pids:
                os.kill(pid, signal.SIGKILL)
            run_pooled(graph, pool)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                alive = {pid for pid in old_pids if _process_alive(pid)}
                if not alive:
                    break
                time.sleep(0.05)
            assert not alive, f"old workers still alive: {alive}"


def _process_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Reaped zombies raise ProcessLookupError; an unreaped child is
    # "alive" only until the executor joins it, which close() guarantees.
    return True
