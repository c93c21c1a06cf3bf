"""The shard coordinator: partition, dispatch, merge — exactly.

One :class:`ShardCoordinator` owns the worker membership of a
coordinator-mode ``repro serve`` and turns a pending workload's world
range ``[0, K)`` into per-shard sub-ranges:

* **partitioning** is chunk-aligned and contiguous (the engine's
  :func:`~repro.engine.batch.partition_ranges`, the same partitioner
  the process pool uses), so the union of every shard's chunk
  boundaries is precisely the boundary set a single process would have
  used — even the ``sweeps`` counter merges exactly;
* **dispatch** fans the ranges out in parallel (one thread per range —
  the work happens on the shards, threads just wait on sockets);
* **failure handling** is two-tier: a transport failure is retried
  against the same shard with exponential backoff, then the shard is
  marked down and the *exact same range* is re-dispatched to the next
  healthy shard — bit-identical by the determinism contract, so a
  SIGKILLed worker mid-request costs latency, never correctness.  When
  every shard has failed a range, the coordinator evaluates it locally
  (unless local fallback is disabled, in which case the batch fails
  with a structured 503);
* **structured rejections** (a worker's
  :class:`~repro.api.errors.ReliabilityError`, e.g. a fingerprint
  mismatch after an un-synced ``/v1/update``) are *not* retried — they
  are deterministic verdicts — and propagate to the client with their
  original type and status;
* **membership/health** is tracked per shard and surfaced under the
  ``shards`` section of ``/v1/stats``; a downed shard is optimistically
  re-probed with real work after a cooldown.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.errors import ShardUnavailableError
from repro.api.types import QuerySpec, ShardRunRequest
from repro.distributed.client import ShardClient, ShardDispatchError
from repro.distributed.config import ShardTierConfig
from repro.engine.batch import partition_ranges

#: The contributor tag of ranges the coordinator evaluated itself.
LOCAL_CONTRIBUTOR = "local"


class ShardMember:
    """Live bookkeeping for one shard worker (mutated under the
    coordinator's lock)."""

    def __init__(self, url: str, client: ShardClient) -> None:
        self.url = url
        self.client = client
        self.healthy = True
        self.down_since: Optional[float] = None  # time.monotonic()
        self.dispatches = 0
        self.failures = 0
        self.last_error: Optional[str] = None

    def snapshot(self, now: float, cooldown: float) -> dict:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "cooling_down": (
                not self.healthy
                and self.down_since is not None
                and (now - self.down_since) < cooldown
            ),
            "dispatches": self.dispatches,
            "failures": self.failures,
            "last_error": self.last_error,
        }


class ShardCoordinator:
    """Dispatches world ranges across a fixed shard membership.

    A range evaluator: attach it to a
    :class:`~repro.engine.batch.BatchEngine` as ``pool=`` and the
    engine's pending worlds are swept by the shards (:meth:`evaluate`
    has the signature and return shape of
    :meth:`~repro.engine.pool.WorkerPool.evaluate`).
    """

    #: The ``engine.mode`` a served batch reports when this evaluator
    #: is the one attached to its engine.
    mode = "distributed"

    def __init__(
        self,
        shard_urls: Sequence[str],
        config: Optional[ShardTierConfig] = None,
    ) -> None:
        if not shard_urls:
            raise ValueError("a shard coordinator needs at least one shard")
        self.config = config if config is not None else ShardTierConfig.from_env()
        self.members: Tuple[ShardMember, ...] = tuple(
            ShardMember(url, ShardClient(url, timeout=self.config.timeout))
            for url in shard_urls
        )
        self._lock = threading.Lock()
        self._rotation = 0
        self._batches = 0
        self._ranges = 0
        self._retries = 0
        self._redispatches = 0
        self._local_fallbacks = 0

    # ------------------------------------------------------------------
    # Membership / health
    # ------------------------------------------------------------------

    def _is_available(self, member: ShardMember, now: float) -> bool:
        if member.healthy:
            return True
        # Optimistic revival: after the cooldown the next range *is* the
        # health probe — a correct reply marks the shard back up, and a
        # failed one just re-dispatches (free, by determinism).
        return (
            member.down_since is not None
            and (now - member.down_since) >= self.config.cooldown
        )

    def available_count(self) -> int:
        """How many shards a new batch may currently partition across."""
        now = time.monotonic()
        with self._lock:
            return sum(
                1 for member in self.members if self._is_available(member, now)
            )

    def _pick(self, tried: List[ShardMember]) -> Optional[ShardMember]:
        with self._lock:
            now = time.monotonic()
            candidates = [
                member
                for member in self.members
                if member not in tried and self._is_available(member, now)
            ]
            if not candidates:
                return None
            member = candidates[self._rotation % len(candidates)]
            self._rotation += 1
            member.dispatches += 1
            return member

    def _mark_down(self, member: ShardMember, error: object) -> None:
        with self._lock:
            member.healthy = False
            member.down_since = time.monotonic()
            member.failures += 1
            member.last_error = str(error)

    def _mark_up(self, member: ShardMember) -> None:
        with self._lock:
            if not member.healthy:
                member.healthy = True
                member.down_since = None
                member.last_error = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _call_with_retry(self, member: ShardMember, request):
        """Bounded same-shard retries with exponential backoff."""
        delay = self.config.backoff
        for attempt in range(self.config.retries + 1):
            try:
                return member.client.shard_run(request)
            except ShardDispatchError:
                if attempt == self.config.retries:
                    raise
                with self._lock:
                    self._retries += 1
                if delay > 0:
                    time.sleep(delay)
                delay *= 2

    def _dispatch_range(
        self,
        make_request,
        start: int,
        stop: int,
        query_count: int,
        local_evaluator: Callable[[int, int], Tuple[np.ndarray, int]],
    ) -> Tuple[np.ndarray, int, str]:
        """One range, to completion: ``(hits, sweeps, contributor)``.

        Walks healthy shards until one answers correctly; every failed
        shard is marked down and the identical range moves on (the
        re-dispatch whose bit-identity the determinism contract
        guarantees).  Structured rejections propagate immediately.
        """
        tried: List[ShardMember] = []
        while True:
            member = self._pick(tried)
            if member is None:
                if self.config.local_fallback:
                    with self._lock:
                        self._local_fallbacks += 1
                    hits, sweeps = local_evaluator(start, stop)
                    return hits, sweeps, LOCAL_CONTRIBUTOR
                raise ShardUnavailableError(
                    f"no healthy shard left for worlds [{start}, {stop}) "
                    f"({len(self.members)} configured, "
                    f"{len(tried)} failed this range) and local fallback "
                    f"is disabled"
                )
            request = make_request(start, stop)
            try:
                response = self._call_with_retry(member, request)
            except ShardDispatchError as error:
                self._mark_down(member, error)
                tried.append(member)
                with self._lock:
                    self._redispatches += 1
                continue
            # A reply that answers a different stream, range, or
            # workload than dispatched is a protocol failure — treat it
            # like a vanished worker, never merge it.
            if (
                response.fingerprint != request.fingerprint
                or response.seed != request.seed
                or response.start != start
                or response.stop != stop
                or len(response.hits) != query_count
            ):
                self._mark_down(
                    member,
                    f"protocol mismatch: reply does not match the "
                    f"dispatched range [{start}, {stop})",
                )
                tried.append(member)
                with self._lock:
                    self._redispatches += 1
                continue
            self._mark_up(member)
            return (
                np.asarray(response.hits, dtype=np.int64),
                int(response.sweeps),
                member.url,
            )

    def evaluate(
        self, engine, queries, k_needed: int
    ) -> Tuple[np.ndarray, int, int]:
        """Hit counts for worlds ``[0, k_needed)``, fanned across shards.

        ``queries`` are the plan's *pending* unique queries (already
        resolved); ``engine`` supplies the stream identity (graph
        fingerprint, seed, chunk size) and serves as the local
        fallback evaluator.  Returns ``(hits, sweeps, contributors)``
        with ``hits`` aligned with ``queries`` and ``contributors`` the
        number of distinct hosts (local included) that served ranges.
        """
        specs = tuple(
            QuerySpec(
                source=query.source,
                target=query.target,
                samples=query.samples,
                max_hops=query.max_hops,
            )
            for query in queries
        )
        ranges = partition_ranges(
            k_needed, engine.chunk_size, max(self.available_count(), 1)
        )

        def make_request(start: int, stop: int) -> ShardRunRequest:
            return ShardRunRequest(
                queries=specs,
                start=start,
                stop=stop,
                seed=engine.seed,
                fingerprint=engine.fingerprint,
                chunk_size=engine.chunk_size,
            )

        def local_evaluator(start: int, stop: int):
            result = engine.run_range(queries, start, stop)
            return np.asarray(result.hits, dtype=np.int64), result.sweeps

        if len(ranges) == 1:
            outcomes = [
                self._dispatch_range(
                    make_request, ranges[0][0], ranges[0][1],
                    len(specs), local_evaluator,
                )
            ]
        else:
            with ThreadPoolExecutor(max_workers=len(ranges)) as executor:
                futures = [
                    executor.submit(
                        self._dispatch_range, make_request, start, stop,
                        len(specs), local_evaluator,
                    )
                    for start, stop in ranges
                ]
                outcomes = [future.result() for future in futures]
        hits = np.zeros(len(specs), dtype=np.int64)
        sweeps = 0
        contributors = set()
        for range_hits, range_sweeps, contributor in outcomes:
            hits += range_hits
            sweeps += range_sweeps
            contributors.add(contributor)
        with self._lock:
            self._batches += 1
            self._ranges += len(ranges)
        return hits, sweeps, max(len(contributors), 1)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def statistics(self) -> dict:
        """The ``shards`` section of a coordinator's ``/v1/stats``."""
        now = time.monotonic()
        with self._lock:
            members = [
                member.snapshot(now, self.config.cooldown)
                for member in self.members
            ]
            return {
                "total": len(self.members),
                "healthy": sum(
                    1 for member in self.members if member.healthy
                ),
                "members": members,
                "batches": self._batches,
                "ranges_dispatched": self._ranges,
                "retries": self._retries,
                "redispatches": self._redispatches,
                "local_fallbacks": self._local_fallbacks,
                "config": self.config.to_dict(),
            }


__all__ = [
    "LOCAL_CONTRIBUTOR",
    "ShardCoordinator",
    "ShardMember",
    "partition_ranges",
]
