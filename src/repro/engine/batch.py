"""The shared-world batch engine (paper §2.2 cost model, §3.7 world sharing).

The paper's running theme is that the *sampling* of possible worlds, not
the per-world arithmetic, dominates s-t reliability estimation; its two
index-based methods (BFS Sharing §2.3, ProbTree §2.7) both win by making
sampled work reusable.  This engine applies the same lever at the workload
level: given many ``(source, target, K)`` queries over one graph, it draws
each possible world **once** and evaluates every query whose budget covers
that world against it, instead of re-sampling K worlds per query the way a
per-query loop does.

Determinism contract
--------------------
World ``i`` is a pure function of ``(graph, seed, i)`` — see
:meth:`BatchEngine.world_mask`.  Consequences:

* batch and sequential evaluation over the same stream agree **exactly**
  (tested in ``tests/engine/``);
* results are independent of ``chunk_size``, which only bounds how many
  ``(chunk, m)`` world masks are resident at once (memory-bounded
  streaming, the anti-``O(Km)`` stance of §2.3's corrected analysis);
* results are independent of *where* worlds are swept: any slice
  ``[start, stop)`` of the stream can be evaluated anywhere
  (:meth:`BatchEngine.run_range`), per-range hit counts are integers,
  and integer addition is associative — so partitioning ``[0, K)`` with
  :func:`partition_ranges` over a process pool
  (:mod:`repro.engine.pool`) or a shard tier (:mod:`repro.distributed`)
  reduces to the very same counts the inline loop accumulates, **bit
  for bit**;
* estimates are cacheable by ``(graph fingerprint, s, t, K, seed,
  max_hops)`` — see :mod:`repro.engine.cache` — because nothing else
  enters the value.

Distance-constrained workloads (§2.9): a :class:`~repro.engine.plan.
BatchQuery` may carry ``max_hops``, in which case its indicator becomes
"reaches within ``max_hops`` edges".  The planner groups queries by
``(source, max_hops)`` and the sweep bounds its walk (the
level-synchronous mode of
:func:`~repro.core.estimators.bfs_sharing.shared_reachability_fixpoint`),
so d-hop and plain queries are served from one world stream.

The sweep: each chunk of worlds is packed into the uint64 bit-matrix
layout of BFS Sharing (§2.3) and one dataflow fixpoint per distinct
source answers *all* of that source's targets in *all* of the chunk's
worlds at once.  Its per-world reference oracle is
:meth:`BatchEngine.run_sequential` — one
:meth:`~repro.core.possible_world.ReachabilitySampler.reach_targets`
walk per (query, world) over the identical world stream, so the two
agree exactly (property-tested in ``tests/engine/``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.estimators.bfs_sharing import shared_reachability_fixpoint
from repro.core.graph import UncertainGraph
from repro.core.possible_world import (
    ReachabilitySampler,
    forced_from_mask,
    sample_world,
)
from repro.engine.cache import (
    DEFAULT_CACHE_CAPACITY,
    ResultCache,
    graph_fingerprint,
    result_key,
)
from repro.engine.kernels import KERNEL_MODES, shared_fixpoint_vectorized
from repro.engine.plan import BatchQuery, QueryLike, plan_queries
from repro.util import bitset
from repro.util.rng import stable_substream
from repro.util.validation import check_positive

#: Default number of world masks materialised per streaming step.  A
#: multiple of 64 keeps the packed chunks' last words fully used.
DEFAULT_CHUNK_SIZE = 256

#: Namespace key separating the engine's world stream from the substreams
#: used elsewhere (experiment repeats, CLI queries, ...).
_WORLD_STREAM = 0x57

#: Environment variable supplying the default worker count; lets CI (and
#: operators) route an unmodified test suite or workload through the
#: multiprocess path.
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a ``workers`` knob: explicit value, else env var, else 1."""
    if workers is not None:
        return check_positive(workers, "workers")
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        # Zero, negative and non-integer values all name the variable.
        return check_positive(raw, WORKERS_ENV_VAR)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class RangeResult:
    """Integer hit counts for one world range of a workload.

    The primitive every off-thread sweep is built on (pool workers
    and shard servers alike): whoever evaluates worlds ``[start, stop)``
    returns raw per-query hit *counts* — not estimates — because integer
    counts are what the caller can merge exactly.
    ``hits`` is aligned with the submitted query order (duplicates
    kept, like :attr:`BatchResult.estimates`).
    """

    queries: Tuple[BatchQuery, ...]  # original order, duplicates kept
    hits: np.ndarray  # int64, aligned with `queries`
    start: int
    stop: int
    worlds_evaluated: int  # worlds actually swept (budgets clip the range)
    sweeps: int
    seconds: float
    seed: int
    fingerprint: str

    def __len__(self) -> int:
        return len(self.queries)


def partition_ranges(
    total: int, chunk_size: int, parts: int
) -> List[Tuple[int, int]]:
    """Split ``[0, total)`` into at most ``parts`` chunk-aligned ranges.

    The one partitioner of every range evaluator (process pool and
    shard coordinator).  Ranges are contiguous, disjoint, cover the
    whole interval, and are balanced to within one chunk.  Alignment
    matters for one reason only: it keeps every range's chunk
    boundaries identical to the single-process run's, so merged sweep
    counts match exactly.  Hit counts are bit-identical under *any*
    partition.
    """
    if total <= 0:
        return []
    chunks = -(-total // chunk_size)  # ceil
    parts = max(1, min(int(parts), chunks))
    base, extra = divmod(chunks, parts)
    ranges: List[Tuple[int, int]] = []
    chunk_cursor = 0
    for index in range(parts):
        span = base + (1 if index < extra else 0)
        start = chunk_cursor * chunk_size
        stop = min((chunk_cursor + span) * chunk_size, total)
        ranges.append((start, stop))
        chunk_cursor += span
    return ranges


@dataclass(frozen=True)
class BatchResult:
    """Estimates plus engine instrumentation for one workload run."""

    queries: Tuple[BatchQuery, ...]  # original order, duplicates kept
    estimates: np.ndarray  # aligned with `queries`
    seed: int
    worlds_sampled: int  # worlds drawn during this run
    sweeps: int  # per-group BFS sweeps performed
    cache_hits: int
    cache_misses: int
    seconds: float
    workers: int = 1  # who swept: ranges placed / hosts answering (1 = inline)
    #: Per-query cache provenance aligned with ``queries``: ``True`` where
    #: the estimate was replayed from the result cache without sampling,
    #: ``False`` where this run evaluated it.  ``None`` when the run had
    #: no provenance to report (externally constructed results).
    from_cache: Optional[np.ndarray] = None
    #: Fingerprint of the graph this run answered against — the version
    #: provenance live-update clients (and the mid-update hammer tests)
    #: need to know *which* graph produced each response.  ``None`` for
    #: externally constructed results.
    fingerprint: Optional[str] = None

    def __len__(self) -> int:
        return len(self.queries)


class BatchEngine:
    """Answers workloads of s-t reliability queries over one graph.

    Parameters
    ----------
    graph:
        The uncertain graph all queries address.
    seed:
        Root of the world stream; ``None`` draws a fresh random root so
        separate engines are independent (at the cost of cacheability
        across engine instances).
    chunk_size:
        How many world masks are sampled per streaming step; memory is
        bounded by ``O(chunk_size * edge_count)`` bits regardless of K.
    workers:
        How many ranges a run's pending worlds are split into for a
        process pool.  ``None`` reads the ``REPRO_ENGINE_WORKERS``
        environment variable (default 1 — everything inline).  With
        ``workers >= 2`` and no attached ``pool``, runs of more than one
        chunk borrow the process-wide
        :func:`~repro.engine.pool.shared_pool` for this graph; the
        per-range hit counts are summed in the parent — bit-identical to
        the inline sweep by the determinism contract.
    kernels:
        ``"vectorized"`` (the default: the frontier-bulk kernels of
        :mod:`repro.engine.kernels`) or ``"python"`` (the historical
        per-node loops, kept as the in-process reference the kernel
        conformance suite compares against).  Both compute the identical
        fixpoint, so estimates are bit-identical either way.  Only this
        thread's sweeps honour it: ranges handed to a ``pool`` always
        sweep the default kernels.
    pool:
        The range evaluator: where a run's pending worlds ``[0, K)`` are
        swept when not in this thread.  Anything with ``evaluate(engine,
        pending_queries, k_needed) -> (int64 hits aligned with the
        queries, sweeps, contributors)`` — a long-lived
        :class:`~repro.engine.pool.WorkerPool` or a shard tier's
        :class:`~repro.distributed.coordinator.ShardCoordinator`; both
        partition with :func:`partition_ranges` and run
        :meth:`run_range` elsewhere.  A closed pool
        (:class:`~repro.engine.pool.PoolClosedError`) is treated as "no
        pool" — the run sweeps inline — never as an error.
    cache:
        A shared :class:`ResultCache`; by default each engine owns one of
        ``DEFAULT_CACHE_CAPACITY`` entries.  The cache is internally
        thread-safe, so many engines — one per concurrently served
        request — may share a single instance; exact keys make the
        sharing value-transparent (two engines that race on a key write
        the same float).  Hand in an
        :func:`~repro.engine.cache.open_result_cache` sidecar and
        estimates survive the process; whoever opened it closes it.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        seed: Optional[int] = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        workers: Optional[int] = None,
        kernels: str = "vectorized",
        pool=None,
        cache: Optional[ResultCache] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        self.graph = graph
        if seed is None:
            seed = int(np.random.default_rng().integers(2**63))
        self.seed = int(seed)
        self.chunk_size = check_positive(chunk_size, "chunk_size")
        self.workers = resolve_workers(workers)
        if kernels not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {kernels!r}; "
                f"known: {', '.join(KERNEL_MODES)}"
            )
        self.kernels = kernels
        self.pool = pool
        self.cache = ResultCache(cache_capacity) if cache is None else cache
        self.fingerprint = graph_fingerprint(graph)
        self._sampler = ReachabilitySampler(graph)

    # ------------------------------------------------------------------
    # The world stream
    # ------------------------------------------------------------------

    def world_mask(self, index: int) -> np.ndarray:
        """Materialise world ``index`` as a boolean mask over edge ids.

        Pure in ``(graph, seed, index)``: every evaluation strategy — batch,
        sequential, chunked or not — sees the same world at the same index,
        which is what makes batch-vs-sequential agreement exact and cache
        keys sound.
        """
        rng = stable_substream(self.seed, _WORLD_STREAM, index)
        return sample_world(self.graph, rng)

    def _forced_world(self, index: int) -> np.ndarray:
        """World ``index`` as a fully-forced edge-state vector (±1)."""
        return forced_from_mask(self.world_mask(index))

    def world_masks(self, start: int, count: int) -> np.ndarray:
        """Worlds ``start .. start + count`` as a ``(count, m)`` mask block.

        One block is the engine's entire world-residency: resident memory
        is ``O(chunk_size * edge_count)`` bits however large K grows.
        Each row comes from its own world substream, so the block's
        content is independent of the chunk boundaries.  Public because
        calibration passes (the importance sampler's occurrence counts)
        reuse the engine's world stream: calibration worlds are then
        exactly the worlds an engine with the same seed would sweep.
        """
        masks = np.empty((count, self.graph.edge_count), dtype=bool)
        for offset in range(count):
            masks[offset] = self.world_mask(start + offset)
        return masks

    # ------------------------------------------------------------------
    # The chunk sweep
    # ------------------------------------------------------------------

    def _sweep_chunk(
        self,
        masks: np.ndarray,
        chunk_start: int,
        count: int,
        groups,
        pending: np.ndarray,
        hits: np.ndarray,
    ) -> int:
        """Packed sweep: one fixpoint per group covers the whole chunk.

        The chunk's masks become a BFS-Sharing-style edge bit matrix; the
        shared fixpoint then resolves every (source, target, world) triple
        at once, and per-query prefix masks keep each budget exact.
        Hop-bounded groups run the fixpoint in its level-synchronous
        ``max_hops`` mode (the §2.9 d-hop indicator).
        """
        edge_bits = bitset.pack_bool_matrix(masks)
        words = edge_bits.shape[1]
        fixpoint = (
            shared_fixpoint_vectorized
            if self.kernels == "vectorized"
            else shared_reachability_fixpoint
        )
        mask_by_limit: Dict[int, np.ndarray] = {}

        def budget_mask(limit: int) -> np.ndarray:
            # Budgets repeat heavily (uniform-K workloads have one value),
            # so prefix masks are built once per distinct limit per chunk.
            cached = mask_by_limit.get(limit)
            if cached is None:
                cached = bitset.prefix_mask(limit, words)
                mask_by_limit[limit] = cached
            return cached

        sweeps = 0
        for group in groups:
            live_counts = np.minimum(group.samples - chunk_start, count)
            live = pending[group.query_indices] & (live_counts > 0)
            if not live.any():
                continue
            node_bits, _ = fixpoint(
                self.graph, edge_bits, group.source, count,
                max_hops=group.max_hops,
            )
            rows = node_bits[group.targets[live]]
            budget_masks = np.stack(
                [budget_mask(int(limit)) for limit in live_counts[live]]
            )
            hits[group.query_indices[live]] += bitset.popcount_rows(
                rows & budget_masks
            )
            sweeps += 1
        return sweeps

    def evaluate_chunk(
        self,
        chunk_start: int,
        count: int,
        groups,
        pending: np.ndarray,
        unique_count: int,
    ) -> Tuple[np.ndarray, int]:
        """Evaluate worlds ``chunk_start .. chunk_start + count`` standalone.

        Returns fresh per-unique-query hit counts plus the number of sweeps
        performed.  Pure in ``(graph, seed, arguments)`` — it reads
        no mutable engine state — which is what lets any process sweep
        any range and the counts be summed in any order without changing
        a single bit.
        """
        masks = self.world_masks(chunk_start, count)
        hits = np.zeros(unique_count, dtype=np.int64)
        sweeps = self._sweep_chunk(
            masks, chunk_start, count, groups, pending, hits
        )
        return hits, sweeps

    # ------------------------------------------------------------------
    # Evaluation strategies
    # ------------------------------------------------------------------

    def query_key(self, query: BatchQuery):
        """The exact result-cache key of ``query`` under this engine."""
        return result_key(
            self.fingerprint, query.source, query.target,
            query.samples, self.seed, query.max_hops,
        )

    def _sweep_range(
        self, groups, pending: np.ndarray, unique_count: int,
        start: int, stop: int,
    ) -> Tuple[np.ndarray, int]:
        """The one chunk loop: hits and sweeps for worlds ``[start, stop)``.

        Chunk boundaries fall at ``start + i * chunk_size``; per-chunk
        int64 counts are summed here, in this thread.
        """
        hits = np.zeros(unique_count, dtype=np.int64)
        sweeps = 0
        for chunk_start in range(start, stop, self.chunk_size):
            chunk_hits, chunk_sweeps = self.evaluate_chunk(
                chunk_start, min(self.chunk_size, stop - chunk_start),
                groups, pending, unique_count,
            )
            hits += chunk_hits
            sweeps += chunk_sweeps
        return hits, sweeps

    def _sweep_pending(
        self, plan, pending: np.ndarray, k_needed: int
    ) -> Tuple[np.ndarray, int, int]:
        """Sweep worlds ``[0, k_needed)`` for the plan's pending queries.

        The seam for *where* a run's worlds are swept.  An attached
        ``pool`` (or, for ``workers >= 2`` and more than one chunk to
        split, the registry pool of this graph) partitions the range and
        runs :meth:`run_range` elsewhere; otherwise — and whenever that
        pool turns out closed — the chunk loop runs inline.  Returns
        ``(hits aligned with the pending queries, sweeps,
        contributors)``.
        """
        from repro.engine.pool import PoolClosedError, shared_pool

        pool = self.pool
        if pool is None and self.workers > 1 and k_needed > self.chunk_size:
            # A single chunk stays in this thread whatever the pool, so
            # it does not claim (or evict) a registry slot either.
            pool = shared_pool(self.graph, self.workers)
        if pool is not None:
            try:
                return pool.evaluate(
                    self,
                    [plan.queries[index] for index in np.nonzero(pending)[0]],
                    k_needed,
                )
            except PoolClosedError:
                pass  # a closed pool is "no pool", not a failed run
        groups = [
            group
            for group in plan.groups
            if pending[group.query_indices].any()
        ]
        hits, sweeps = self._sweep_range(
            groups, pending, plan.unique_count, 0, k_needed
        )
        return hits[pending], sweeps, 1

    def run(self, queries: Iterable[QueryLike]) -> BatchResult:
        """Answer a workload with the shared-world fast path.

        The only code that plans a workload, reads the result cache,
        merges hit counts into estimates and writes them back.  Worlds
        stream in ``chunk_size`` blocks; each world is swept once per
        ``(source, max_hops)`` group still holding unresolved queries.
        Cached queries are served without sampling at all.  *Where* the
        pending worlds are swept — inline, a process pool, a shard tier
        — is :meth:`_sweep_pending`'s business and cannot change a bit
        (see the determinism contract).
        """
        started = time.perf_counter()
        plan = plan_queries(self.graph, queries)
        unique_estimates = np.zeros(plan.unique_count, dtype=np.float64)
        pending = np.zeros(plan.unique_count, dtype=bool)
        cache_hits = cache_misses = 0

        for index, query in enumerate(plan.queries):
            cached = self.cache.get(self.query_key(query))
            if cached is None:
                cache_misses += 1
                pending[index] = True
            else:
                cache_hits += 1
                unique_estimates[index] = cached

        worlds = sweeps = 0
        contributors = 1
        if pending.any():
            budgets = np.asarray(
                [query.samples for query in plan.queries], dtype=np.int64
            )
            worlds = int(budgets[pending].max())
            hits, sweeps, contributors = self._sweep_pending(
                plan, pending, worlds
            )
            unique_estimates[pending] = hits / budgets[pending]
            # One batched write for the whole run: the persistent cache
            # turns this into a single transaction (one fsync total,
            # however many queries the sweep resolved).
            self.cache.put_many(
                (
                    self.query_key(plan.queries[index]),
                    float(unique_estimates[index]),
                )
                for index in np.nonzero(pending)[0]
            )

        return BatchResult(
            queries=tuple(plan.queries[i] for i in plan.assignment),
            estimates=plan.scatter(unique_estimates),
            seed=self.seed,
            worlds_sampled=worlds,
            sweeps=sweeps,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            seconds=time.perf_counter() - started,
            workers=contributors,
            # `pending` still marks this run's cache misses; its negation
            # is the per-unique-query provenance, scattered like estimates.
            from_cache=plan.scatter(~pending),
            fingerprint=self.fingerprint,
        )

    def run_range(
        self, queries: Iterable[QueryLike], start: int, stop: int
    ) -> RangeResult:
        """Integer hit counts for worlds ``[start, stop)`` of a workload.

        The range-restricted entry point every off-thread sweep is built
        on: a pool worker or a shard server evaluates only its assigned
        slice of the world stream and returns per-query hit counts,
        which the dispatching evaluator sums.  Because world ``i`` is a
        pure function of ``(graph, seed, i)`` and integer addition is
        associative, the merged counts equal what one process sweeping
        ``[0, K)`` would accumulate — bit for bit — however the range
        is partitioned, retried, or re-dispatched.

        Budgets clip the range exactly as in :meth:`run`: a query with
        ``samples <= start`` contributes zero hits here, and worlds at
        or beyond every budget are never materialised (``stop`` is
        clipped to the plan's largest budget).  The result cache is
        not consulted or written — raw counts for a partial range are
        not estimates and have no cache identity.  Always inline: a
        range is already somebody's share of a fan-out.

        When ``start`` is chunk-aligned (:func:`partition_ranges`
        always aligns) the union of ranges performs exactly the sweeps
        of the single-process run, so even the ``sweeps`` counter
        merges exactly.
        """
        start = int(start)
        stop = int(stop)
        if start < 0 or stop < start:
            raise ValueError(
                f"a world range needs 0 <= start <= stop, "
                f"got [{start}, {stop})"
            )
        started = time.perf_counter()
        plan = plan_queries(self.graph, queries)
        bounded_stop = min(stop, plan.k_max)
        hits, sweeps = self._sweep_range(
            plan.groups, np.ones(plan.unique_count, dtype=bool),
            plan.unique_count, start, bounded_stop,
        )
        return RangeResult(
            queries=tuple(plan.queries[i] for i in plan.assignment),
            hits=plan.scatter(hits),
            start=start,
            stop=stop,
            worlds_evaluated=max(bounded_stop - start, 0),
            sweeps=sweeps,
            seconds=time.perf_counter() - started,
            seed=self.seed,
            fingerprint=self.fingerprint,
        )

    def run_sequential(self, queries: Iterable[QueryLike]) -> BatchResult:
        """Answer the workload one query at a time over the *same* stream.

        This is the per-query loop the engine exists to beat: every query
        re-materialises its K worlds from scratch (K world samplings per
        query instead of ``max K`` total), then sweeps them for its single
        target.  Because the stream is shared, estimates agree exactly
        with :meth:`run` — it serves as both the benchmark baseline and
        the correctness oracle.  The result cache is bypassed on purpose,
        so the report's cache counters are zero.
        """
        started = time.perf_counter()
        plan = plan_queries(self.graph, queries)
        unique_estimates = np.zeros(plan.unique_count, dtype=np.float64)
        worlds = sweeps = 0
        for index, query in enumerate(plan.queries):
            target = np.asarray([query.target], dtype=np.int64)
            hits = 0
            for world in range(query.samples):
                forced = self._forced_world(world)
                worlds += 1
                hits += int(
                    self._sampler.reach_targets(
                        query.source, target, forced=forced,
                        max_hops=query.max_hops,
                    )[0]
                )
                sweeps += 1
            unique_estimates[index] = hits / query.samples
        return BatchResult(
            queries=tuple(plan.queries[i] for i in plan.assignment),
            estimates=plan.scatter(unique_estimates),
            seed=self.seed,
            worlds_sampled=worlds,
            sweeps=sweeps,
            cache_hits=0,
            cache_misses=0,
            seconds=time.perf_counter() - started,
            # The oracle bypasses the cache on purpose: nothing cached.
            from_cache=plan.scatter(np.zeros(plan.unique_count, dtype=bool)),
            fingerprint=self.fingerprint,
        )


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "KERNEL_MODES",
    "WORKERS_ENV_VAR",
    "BatchResult",
    "RangeResult",
    "BatchEngine",
    "partition_ranges",
    "resolve_workers",
]
