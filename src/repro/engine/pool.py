"""A long-lived, shared worker-process pool: the process range evaluator.

One of the two things a :class:`~repro.engine.batch.BatchEngine` can be
handed as ``pool=`` (the other is a shard tier's
:class:`~repro.distributed.coordinator.ShardCoordinator`); both have the
same shape — partition ``[0, K)`` with
:func:`~repro.engine.batch.partition_ranges`, run
:meth:`~repro.engine.batch.BatchEngine.run_range` somewhere else, add
the int64 hit counts.  Here "somewhere else" is a worker process forked
**once** with the graph pre-loaded: workers live as long as their pool
— one per graph fingerprint in the process-wide registry, shared by
every engine run over that graph — and each run ships only its pending
queries and one ``(start, stop)`` per range.

Determinism is untouched: a worker sweeps its range with the very same
:meth:`~repro.engine.batch.BatchEngine.run_range` a shard server (or the
caller itself) would, per-range hit counts are integers, and integer
addition is associative — pooled and in-process sweeps agree **bit for
bit** (the engine's determinism contract; hammer-tested in
``tests/serve``).

Lifecycle:

* **lazy start** — constructing a :class:`WorkerPool` forks nothing;
  the executor spins up on the first :meth:`evaluate` that has more
  than one range to place (or a :meth:`healthy` call);
* **health check** — :meth:`healthy` round-trips a ping task through a
  worker with a timeout;
* **crashed-worker respawn** — a ``BrokenProcessPool`` (a worker died
  mid-task) discards the executor, re-forks, and retries the run once;
  the retry is free because range tasks are pure;
* **graph-update rejection** — the pool is pinned to its graph's
  fingerprint at construction; dispatching an engine over any other
  graph raises instead of silently sweeping stale workers;
* **clean shutdown** — :meth:`close` is idempotent; a closed pool makes
  :meth:`evaluate` raise :class:`PoolClosedError`, which the engine
  treats as "no pool" and sweeps inline, so closing a service never
  corrupts an in-flight request.

An engine with ``workers >= 2`` and no attached pool borrows one from
the module-level registry (:func:`shared_pool`), keyed by graph
fingerprint — versioned by construction, like cache keys: a live
update's successor graph gets its own pool and the service retires the
predecessor's (:func:`close_shared_pools`).  Nothing else owns a pool,
so ``--workers 2`` on a served process and ``REPRO_ENGINE_WORKERS=2``
on a whole process (the CI pool leg: the whole test suite) take the
same road.
"""

from __future__ import annotations

import atexit
import os
import threading
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimators.base import BatchQuery
from repro.core.graph import UncertainGraph
from repro.engine.batch import BatchEngine, partition_ranges
from repro.engine.cache import graph_fingerprint
from repro.util.validation import check_positive

#: Pools the module-level registry keeps alive; above this, the least
#: recently used pool is closed and evicted.
_REGISTRY_CAPACITY = 4


class PoolClosedError(RuntimeError):
    """Raised by :meth:`WorkerPool.evaluate` after :meth:`WorkerPool.close`.

    Engines catch this and sweep inline — a closed pool means "no
    accelerator", never a failed request.
    """


# ----------------------------------------------------------------------
# Worker-side plumbing (runs in the forked processes)
# ----------------------------------------------------------------------

# Pinned once per worker by the initializer; the graph never travels again.
_WORKER_GRAPH = None


def _initialise_worker(graph) -> None:
    """Pin the pool's graph in this worker; everything else arrives per range."""
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def _run_range(
    stream: Tuple[int, int],
    queries: Sequence[BatchQuery],
    start: int,
    stop: int,
) -> Tuple[np.ndarray, int]:
    """Worker-side task: ``run_range`` on an engine over the pinned graph."""
    assert _WORKER_GRAPH is not None, "pool worker used before initialisation"
    seed, chunk_size = stream
    engine = BatchEngine(
        _WORKER_GRAPH,
        seed=seed,
        chunk_size=chunk_size,
        workers=1,  # workers never nest pools
        cache_capacity=1,  # the parent owns the real result cache
    )
    result = engine.run_range(queries, start, stop)
    return result.hits, result.sweeps


def _ping() -> int:
    """Health-check task: prove a worker is alive (and name it)."""
    return os.getpid()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


class WorkerPool:
    """A reusable process pool pinned to one graph.

    Thread-safe: concurrent served requests may :meth:`evaluate` on the
    same pool (``ProcessPoolExecutor.submit`` is thread-safe; lifecycle
    transitions serialise on an internal lock).
    """

    def __init__(self, graph: UncertainGraph, workers: int) -> None:
        self.graph = graph
        self.workers = check_positive(workers, "workers")
        self.fingerprint = graph_fingerprint(graph)
        self._executor: Optional[ProcessPoolExecutor] = None  # guarded-by: _lock
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._runs = 0  # guarded-by: _lock
        self._respawns = 0  # guarded-by: _lock

    # -- lifecycle ------------------------------------------------------

    def _ensure_started(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise PoolClosedError("worker pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_initialise_worker,
                    initargs=(self.graph,),
                )
            return self._executor

    @property
    def started(self) -> bool:
        """Whether worker processes currently exist (lazy start)."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def healthy(self, timeout: float = 30.0) -> bool:
        """Round-trip a ping through a worker (starts the pool if lazy)."""
        try:
            executor = self._ensure_started()
            executor.submit(_ping).result(timeout=timeout)
        except Exception:  # noqa: BLE001 — any failure means "not healthy"
            return False
        return True

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the live worker processes (diagnostics and tests)."""
        executor = self._executor
        processes = getattr(executor, "_processes", None) or {}
        return tuple(processes.keys())

    def _respawn(self, broken: ProcessPoolExecutor) -> None:
        """Discard a broken executor so the next start forks fresh workers."""
        with self._lock:
            if self._executor is broken:
                self._executor = None
                self._respawns += 1
        broken.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the workers down; idempotent, waits for running tasks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation -----------------------------------------------------

    def evaluate(
        self, engine: BatchEngine, queries: Sequence[BatchQuery], k_needed: int
    ) -> Tuple[np.ndarray, int, int]:
        """Hit counts for worlds ``[0, k_needed)``, fanned across workers.

        The range-evaluator contract (shared with
        :meth:`~repro.distributed.coordinator.ShardCoordinator.evaluate`):
        ``queries`` are the run's pending unique queries, ``engine``
        supplies the stream identity; returns ``(hits, sweeps,
        contributors)`` with int64 ``hits`` aligned with ``queries``.
        The range is split ``engine.workers`` ways; with nothing to
        split (one chunk, or a one-worker engine) it is swept here —
        shipping a lone range would buy latency, not parallelism.
        """
        if engine.fingerprint != self.fingerprint:
            raise ValueError(
                "engine graph does not match this pool's graph (the pool "
                "was forked for a different fingerprint); build a new "
                "pool after a graph update"
            )
        ranges = partition_ranges(k_needed, engine.chunk_size, engine.workers)
        if len(ranges) < 2:
            result = engine.run_range(queries, 0, k_needed)
            return result.hits, result.sweeps, 1
        stream = (engine.seed, engine.chunk_size)
        try:
            hits, sweeps = self._dispatch(
                self._ensure_started(), stream, queries, ranges
            )
        except BrokenProcessPool as error:
            self._respawn(error.__self_executor__)
            # One deterministic retry on fresh workers: range tasks are
            # pure, so re-evaluating them cannot change any result.
            hits, sweeps = self._dispatch(
                self._ensure_started(), stream, queries, ranges
            )
        return hits, sweeps, len(ranges)

    def _dispatch(
        self,
        executor: ProcessPoolExecutor,
        stream: Tuple[int, int],
        queries: Sequence[BatchQuery],
        ranges: Sequence[Tuple[int, int]],
    ) -> Tuple[np.ndarray, int]:
        try:
            futures = [
                executor.submit(_run_range, stream, queries, start, stop)
                for start, stop in ranges
            ]
        except RuntimeError as error:
            if self._closed:  # close() raced the submit loop
                raise PoolClosedError("worker pool is closed") from None
            raise self._tag(error, executor)
        hits = np.zeros(len(queries), dtype=np.int64)
        sweeps = 0
        try:
            for future in futures:
                range_hits, range_sweeps = future.result()
                hits += range_hits
                sweeps += range_sweeps
        except BaseException as error:
            # A failure mid-fan-out must not leave the remaining ranges
            # running: cancel whatever has not started, then propagate.
            for future in futures:
                future.cancel()
            if isinstance(error, CancelledError) and self._closed:
                # close(cancel_futures=True) raced an in-flight run: the
                # queued ranges were cancelled under us.  That is the
                # pool going away, not a failed computation — surface it
                # as PoolClosedError so the engine re-sweeps inline
                # instead of erroring the request.
                raise PoolClosedError("worker pool is closed") from None
            raise self._tag(error, executor)
        with self._lock:
            self._runs += 1
        return hits, sweeps

    @staticmethod
    def _tag(error: BaseException, executor: ProcessPoolExecutor):
        # BrokenProcessPool does not say *which* executor broke; remember
        # it so `evaluate` respawns the right one (close() or a racing
        # respawn may have replaced self._executor meanwhile).
        if isinstance(error, BrokenProcessPool):
            error.__self_executor__ = executor
        return error

    def statistics(self) -> Dict[str, object]:
        """Lifecycle counters (surfaced by the service's ``stats()``)."""
        return {
            "workers": self.workers,
            "started": self.started,
            "closed": self._closed,
            "runs": self._runs,
            "respawns": self._respawns,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "started" if self.started else "lazy"
        )
        return f"WorkerPool(workers={self.workers}, {state})"


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------

_REGISTRY: "OrderedDict[bytes, WorkerPool]" = (  # guarded-by: _REGISTRY_LOCK
    OrderedDict()
)
_REGISTRY_LOCK = threading.Lock()


def shared_pool(graph: UncertainGraph, workers: int) -> WorkerPool:
    """The process-wide pool for ``graph``, created (LRU-bounded) on demand.

    Keyed by graph fingerprint: engines over equal graphs share workers;
    a new graph gets a new pool, and the least recently used pool is
    closed once the registry outgrows its small bound.  The pool keeps
    its first-seen worker count — later callers share the same workers
    (worker count is a wall-clock lever, never a results lever).
    """
    key = graph_fingerprint(graph)
    with _REGISTRY_LOCK:
        pool = _REGISTRY.get(key)
        if pool is not None and not pool.closed:
            _REGISTRY.move_to_end(key)
            return pool
        pool = WorkerPool(graph, workers)
        _REGISTRY[key] = pool
        evicted = []
        while len(_REGISTRY) > _REGISTRY_CAPACITY:
            evicted.append(_REGISTRY.popitem(last=False)[1])
    for old in evicted:
        old.close()
    return pool


def registered_pool(graph: UncertainGraph) -> Optional[WorkerPool]:
    """The registry's pool for ``graph`` if there is one; never creates it."""
    key = graph_fingerprint(graph)
    with _REGISTRY_LOCK:
        return _REGISTRY.get(key)


def close_shared_pools(graph: Optional[UncertainGraph] = None) -> int:
    """Close and forget registry pools; returns how many there were.

    Every pool (test isolation, atexit), or only ``graph``'s — how a
    service retires the pool of a graph version it stops serving.  Runs
    still dispatching on a retired pool finish inline
    (:class:`PoolClosedError`); a later run over the same fingerprint
    simply registers a fresh pool.
    """
    key = None if graph is None else graph_fingerprint(graph)
    with _REGISTRY_LOCK:
        if key is None:
            pools = list(_REGISTRY.values())
            _REGISTRY.clear()
        else:
            pool = _REGISTRY.pop(key, None)
            pools = [] if pool is None else [pool]
    for pool in pools:
        pool.close()
    return len(pools)


atexit.register(close_shared_pools)


__all__ = [
    "PoolClosedError",
    "WorkerPool",
    "shared_pool",
    "registered_pool",
    "close_shared_pools",
]
