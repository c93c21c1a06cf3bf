"""`ReliabilityService`: the one long-lived facade over the whole library.

The paper frames s-t reliability as a *query workload* problem — sampling
possible worlds dominates, so shared indexes and batching win (§2.2,
§3.7).  That framing makes the natural unit of deployment a **service**:
one process that loads the graph once, builds each estimator index once,
keeps the result caches hot, and answers queries for as long as it
lives.  This class is that unit.  Every transport is a thin adapter over
it — the ``repro`` CLI builds one service per invocation, ``repro
serve`` keeps one alive behind an HTTP API (:mod:`repro.serve`), and any
future transport (gRPC, async, sharded workers) lands behind the same
six methods instead of forking the CLI.

What the service owns
---------------------
* the loaded :class:`~repro.core.graph.UncertainGraph` (plus, when built
  via :meth:`from_dataset`, the suite dataset's provenance);
* lazily-constructed estimators, one per method, indexes built once and
  reused across requests (ProbTree's FWD decomposition, BFS Sharing's
  bit-vector index);
* the shared result cache — the in-memory LRU, or the persistent SQLite
  sidecar when ``cache_dir`` is given — threaded through every
  engine-backed request, so a repeated query is replayed without
  sampling a single world;
* request counters for the ``/v1/stats`` endpoint.

Thread safety: all public methods may be called from concurrent threads
(the HTTP layer does).  Locking is fine-grained so independent requests
actually run in parallel:

* a short **prepare lock** covers lazy estimator construction only —
  each method's index is built exactly once, and the estimator map is
  published copy-on-write so readers never need the lock;
* every engine a request touches — ``estimate_batch`` on an
  engine-path method, ``warm``, ``topk``'s all-targets row, the inner
  batches of ``prob_tree`` — is a cheap per-run :class:`BatchEngine`
  from the one factory (:meth:`ReliabilityService._engine`), which
  takes no service lock — concurrent runs share only the internally
  thread-safe result cache;
* ``bounds`` is pure per call, so it runs unlocked too;
* calls into a *shared, stateful* estimator instance (``estimate``, and
  the non-engine batch paths) serialise on that method's own lock —
  different methods proceed in parallel, and index reuse stays safe;
* request counters live behind a micro-lock, so ``health()`` and
  ``stats()`` snapshots never wait on a running engine.

Determinism is untouched by any of this: world ``i`` is a pure function
of ``(graph, seed, i)`` and cache keys are exact, so concurrent
identical requests return **bit-identical** estimates no matter how
they interleave (hammer-tested in ``tests/serve``).

Determinism: with an explicit ``seed`` the service's answers equal the
CLI's historical output exactly — the CLI *is* this facade now, and the
conformance tests in ``tests/api`` pin the equivalence.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional, Tuple, Type

from repro.api.errors import (
    FingerprintMismatchError,
    GraphLoadError,
    InvalidQueryError,
    UnknownEstimatorError,
)
from repro.api.types import (
    ENDPOINT_TABLE,
    BatchRequest,
    BatchResponse,
    BoundsRequest,
    BoundsResponse,
    EngineReport,
    EstimateRequest,
    EstimateResponse,
    QueryResult,
    QuerySpec,
    RecommendRequest,
    RecommendResponse,
    ResolvedQuery,
    ShardRunRequest,
    ShardRunResponse,
    TopKRequest,
    TopKResponse,
    UpdateRequest,
    UpdateResponse,
    WarmRequest,
    WarmResponse,
)
from repro.core.bounds import reliability_bounds
from repro.core.estimators.base import Estimator
from repro.core.graph import UncertainGraph
from repro.core.mutation import apply_update
from repro.core.recommend import recommend_estimator
from repro.core.registry import create_estimator as _registry_create
from repro.core.registry import display_name, estimator_class
from repro.engine.batch import DEFAULT_CHUNK_SIZE, BatchEngine, BatchResult
from repro.engine.cache import ResultCache, graph_fingerprint, open_result_cache
from repro.engine.pool import close_shared_pools, registered_pool
from repro.queries.top_k import top_k_reliable_targets
from repro.routing import AdaptiveRouter, QueryTelemetry, RoutingDecision
from repro.util.rng import stable_substream

#: Batch-path tags with an engine or grouped fast path (the result cache
#: serves them; the per-query loop builds no engine to hand it to).
FAST_BATCH_PATHS = ("engine", "bag_grouped")

#: The pseudo-method that routes through the adaptive router: a request
#: carrying it is resolved to a concrete registered estimator before any
#: dispatch, and the response reports both the concrete method and the
#: routing decision that picked it.
AUTO_METHOD = "auto"

#: Bound on distinct keys the re-warm query log tracks.  Beyond it, new
#: keys are dropped (never counted keys evicted): re-warming targets the
#: *heavy hitters*, and the heavy hitters of a workload big enough to
#: overflow this are in the log long before it fills.
QUERY_LOG_CAPACITY = 1024

#: Default number of logged keys a re-warm pass replays.
DEFAULT_REWARM_TOP = 8


class ReliabilityService:
    """Answers every public query type over one uncertain graph.

    The request-counter key set (fixed up front so counter snapshots are
    lock-free) is :data:`ENDPOINTS`.

    Parameters
    ----------
    graph:
        The uncertain graph all requests address.
    seed:
        The service's root seed: the default for requests that do not
        carry their own, and the construction seed of every estimator.
    cache_dir:
        When given, results persist to the SQLite sidecar under this
        directory (see :mod:`repro.engine.cache`); a re-started service
        warm-starts from disk.  ``None`` keeps an in-memory LRU only.
    chunk_size / workers:
        How every served engine sweeps: worlds per streaming step, and
        worker processes for runs over the served graph (``None`` reads
        ``REPRO_ENGINE_WORKERS``).  Service configuration only — no
        request carries them, and neither can move a bit.
    evaluator:
        Where engine-backed ``/v1/batch`` runs sweep their pending
        worlds: any range evaluator (``BatchEngine(pool=...)``), e.g. a
        shard tier's :class:`~repro.distributed.coordinator.
        ShardCoordinator`; its ``mode`` attribute, when it has one, is
        the ``engine.mode`` those batches report.  ``None`` leaves it to
        the engine (inline, or the process pool for multi-worker runs).

    The service owns no worker pool.  Multi-process runs borrow the
    process-wide one registered for their graph's fingerprint
    (:func:`~repro.engine.pool.shared_pool`): the first run that fans
    out forks the workers (graph shipped once, at fork), every later run
    over that graph version dispatches to the same processes.
    :meth:`update` retires the predecessor's pool and :meth:`close` the
    current graph's; a run that catches its pool closing sweeps inline
    instead, so neither can corrupt an in-flight request.
    """

    #: Every endpoint name, fixed so the counter dict never resizes —
    #: read off the one endpoint table in :mod:`repro.api.types`.
    ENDPOINTS = tuple(endpoint.name for endpoint in ENDPOINT_TABLE)

    # lock-order: _update_lock -> _prepare_lock -> _counts_lock

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        seed: int = 0,
        dataset=None,
        cache_dir: Optional[str] = None,
        chunk_size: Optional[int] = None,
        workers: Optional[int] = None,
        evaluator=None,
    ) -> None:
        if not isinstance(graph, UncertainGraph):
            raise GraphLoadError(
                f"a ReliabilityService wraps an UncertainGraph, "
                f"got {type(graph).__name__}"
            )
        self.graph = graph  # guarded-by: _prepare_lock
        self.seed = int(seed)
        self.dataset = dataset  # a suite Dataset, or None for raw graphs
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self._check_positive(chunk_size, "chunk_size")
        self._check_positive(workers, "workers")
        self.chunk_size = (
            DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
        )
        self.workers = workers
        self.evaluator = evaluator
        self._cache: ResultCache = (
            open_result_cache(self.cache_dir)
            if self.cache_dir is not None
            else ResultCache()
        )
        #: method -> (estimator, its call lock).  Published copy-on-write:
        #: lookups read the attribute without locking; inserts (under the
        #: prepare lock) replace the whole dict, never mutate a published
        #: one — so iteration in ``stats()`` can never see a resize.
        self._estimators: Dict[  # guarded-by: _prepare_lock
            str, Tuple[Estimator, threading.Lock]
        ] = {}
        #: Serialises lazy estimator construction (once per method).
        self._prepare_lock = threading.Lock()
        #: Micro-lock making request-counter increments atomic; snapshots
        #: read without it (the key set is fixed at construction, so a
        #: concurrent read can never see a dict resize either).
        self._counts_lock = threading.Lock()
        self._started = time.time()
        self._request_counts: Dict[str, int] = {  # guarded-by: _counts_lock
            endpoint: 0 for endpoint in self.ENDPOINTS
        }
        #: Serialises :meth:`update` calls — one version transition at a
        #: time, so ``version`` and the fingerprint lineage stay linear.
        self._update_lock = threading.Lock()
        #: Engine-served query keys -> hit counts, feeding :meth:`rewarm`.
        #: Guarded by the counts micro-lock (increments are cheap).
        self._query_log: Dict[  # guarded-by: _counts_lock
            Tuple[int, int, int, Optional[int], int], int
        ] = {}
        self._rewarm_runs = 0  # guarded-by: _counts_lock
        self._rewarm_queries = 0  # guarded-by: _counts_lock
        #: What every served query measured, bucketed by (fingerprint,
        #: method, K band, hop band) — see :mod:`repro.routing`.
        self.telemetry = QueryTelemetry()
        #: Routes ``estimator="auto"`` requests and backs ``recommend()``.
        self.router = AdaptiveRouter(self.telemetry)
        #: Index-backed methods whose index a live update *dropped* (to
        #: be lazily rebuilt): demoted by the router and ``recommend()``
        #: until a per-estimator request forces the rebuild.  Guarded by
        #: the counts micro-lock; read as a snapshot.
        self._dropped_indexes: set = set()  # guarded-by: _counts_lock
        self._closed = False

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset: str,
        scale: str = "small",
        seed: int = 0,
        **options,
    ) -> "ReliabilityService":
        """Build a service over one suite dataset (Table 2 analogue).

        Deterministic in ``(dataset, scale, seed)``; unknown keys become
        a structured :class:`GraphLoadError` instead of a bare KeyError.
        """
        from repro.datasets.suite import load_dataset

        try:
            loaded = load_dataset(dataset, scale, seed)
        except KeyError as error:
            raise GraphLoadError(error.args[0]) from None
        return cls(loaded.graph, seed=seed, dataset=loaded, **options)

    @property
    def dataset_key(self) -> Optional[str]:
        return None if self.dataset is None else self.dataset.key

    @property
    def scale(self) -> Optional[str]:
        return None if self.dataset is None else self.dataset.scale

    @property
    def persistent(self) -> bool:
        """Whether results outlive this process (a sidecar is attached)."""
        return self.cache_dir is not None

    def close(self) -> None:
        """Release the persistent cache connection (writes are durable).

        Does not wait for in-flight requests (the PR 4 close did, as a
        side effect of the global lock): a request still running when
        the sidecar closes finishes correctly — its estimates are
        computed and returned — but its late cache writes are silently
        skipped (the disabled-persistence path), so those queries are
        not warm on disk for the next process.  Acceptable by the cache
        contract (an accelerator, never a correctness dependency);
        callers that need every write durable stop accepting requests
        before closing, as ``serve()`` does via ``server_close()``.
        """
        self._closed = True
        # Waits for running range tasks, cancels queued ones; a run
        # mid-dispatch sees PoolClosedError and sweeps inline, so its
        # estimates still come out correct.
        close_shared_pools(self.graph)
        close = getattr(self._cache, "close", None)
        if close is not None:
            close()  # the cache serialises itself against in-flight I/O

    def __enter__(self) -> "ReliabilityService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        origin = (
            f"dataset={self.dataset_key!r}, scale={self.scale!r}"
            if self.dataset is not None
            else f"graph={self.graph!r}"
        )
        return (
            f"{type(self).__name__}({origin}, seed={self.seed}, "
            f"persistent={self.persistent})"
        )

    # ------------------------------------------------------------------
    # Estimator plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _estimator_class(method: str) -> Type[Estimator]:
        try:
            return estimator_class(method)
        except KeyError as error:
            raise UnknownEstimatorError(error.args[0]) from None

    @classmethod
    def batch_path_of(cls, method: str) -> str:
        """The fast-path dispatch tag of ``method`` (see ``batch_path``)."""
        return cls._estimator_class(method).batch_path

    def create_estimator(self, method: str, **options) -> Estimator:
        """Construct a *fresh* estimator on the service's current graph.

        Unlike :meth:`estimator`'s cached, request-serving instances, the
        caller owns the result: its RNG state and index are its own.
        """
        self._estimator_class(method)  # raises UnknownEstimatorError
        options.setdefault("seed", self.seed)
        return _registry_create(method, self.graph, **options)

    def estimator(self, method: str) -> Estimator:
        """The service's long-lived estimator for ``method``.

        Built (and :meth:`~Estimator.ensure_prepared`-d) on first use
        under the prepare lock, then reused: ProbTree's FWD index and
        BFS Sharing's world index amortise across every later request.
        Callers that *invoke* the returned (stateful) instance from
        concurrent threads must hold its call lock — the service's own
        request paths go through :meth:`_estimator_entry` for exactly
        that.
        """
        return self._estimator_entry(method)[0]

    def _estimator_entry(
        self, method: str
    ) -> Tuple[Estimator, threading.Lock]:
        """``(estimator, call lock)`` for ``method``, building lazily.

        Double-checked: the common case reads the copy-on-write map with
        no lock at all; a miss takes the prepare lock, re-checks, builds
        and prepares once, and publishes a *new* map.  The per-method
        call lock serialises access to the estimator's mutable state
        (scratch arrays, ProbTree's lift LRU, instrumentation) without
        ever serialising two different methods against each other.
        """
        entry = self._estimators.get(method)
        if entry is None:
            with self._prepare_lock:
                entry = self._estimators.get(method)
                if entry is None:
                    built = self.create_estimator(method)
                    built.ensure_prepared()
                    entry = (built, threading.Lock())
                    published = dict(self._estimators)
                    published[method] = entry
                    self._estimators = published
        return entry

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def _check_node(self, node: int, role: str, context: str = "") -> None:
        prefix = f"{context}: " if context else ""
        if not 0 <= int(node) < self.graph.node_count:
            raise InvalidQueryError(
                f"{prefix}{role} {node} out of range for a graph with "
                f"{self.graph.node_count} nodes"
            )

    @staticmethod
    def _check_positive(value, name: str, context: str = "") -> None:
        prefix = f"{context}: " if context else ""
        if value is not None and int(value) <= 0:
            raise InvalidQueryError(
                f"{prefix}{name} must be a positive integer, got {value}"
            )

    def resolve_queries(
        self,
        queries: Tuple[QuerySpec, ...],
        default_samples: int,
        default_max_hops: Optional[int] = None,
    ) -> List[ResolvedQuery]:
        """Apply workload defaults and validate every entry up front.

        The engine validates too, but deep in the sweep and without
        workload context; failing here turns "ValueError from
        plan_queries" into "which query of your request is wrong".
        """
        self._check_positive(default_samples, "samples")
        self._check_positive(default_max_hops, "max_hops")
        resolved: List[ResolvedQuery] = []
        for position, spec in enumerate(queries):
            context = f"query {position}"
            samples = (
                default_samples if spec.samples is None else spec.samples
            )
            max_hops = (
                default_max_hops if spec.max_hops is None else spec.max_hops
            )
            self._check_node(spec.source, "source", context)
            self._check_node(spec.target, "target", context)
            self._check_positive(samples, "samples", context)
            self._check_positive(max_hops, "max_hops", context)
            resolved.append(
                (int(spec.source), int(spec.target), int(samples), max_hops)
            )
        return resolved

    def _resolve_seed(self, seed: Optional[int]) -> int:
        return self.seed if seed is None else int(seed)

    def _count(self, endpoint: str) -> None:
        # The micro-lock makes the read-modify-write atomic; it is never
        # held across estimator or engine work, so counting can never
        # block (or be blocked by) a running request.
        with self._counts_lock:
            self._request_counts[endpoint] += 1

    # ------------------------------------------------------------------
    # Routing plumbing (estimator="auto" and recommend())
    # ------------------------------------------------------------------

    def _dropped_snapshot(self) -> Tuple[str, ...]:
        """Methods currently demoted for a dropped (not yet rebuilt) index."""
        if not self._dropped_indexes:
            return ()
        with self._counts_lock:
            return tuple(sorted(self._dropped_indexes))

    def _mark_index_rebuilt(self, method: str) -> None:
        """Lift ``method``'s demotion: a per-estimator request just served
        through it, so any lazily-dropped index has been rebuilt."""
        if not self._dropped_indexes:
            return
        with self._counts_lock:
            self._dropped_indexes.discard(method)

    def _route(
        self,
        *,
        fingerprint: str,
        samples: int,
        max_hops: Optional[int],
        memory_limited: bool = False,
    ) -> RoutingDecision:
        """One router decision against the given graph snapshot."""
        return self.router.route(
            fingerprint=fingerprint,
            samples=samples,
            max_hops=max_hops,
            memory_limited=memory_limited,
            unavailable=self._dropped_snapshot(),
        )

    def _resolve_auto_batch(
        self, request: BatchRequest
    ) -> Tuple[BatchRequest, Optional[RoutingDecision]]:
        """Resolve ``method="auto"`` to a concrete method for a workload.

        The routing key is the workload's *shape*: the request-level
        sample budget and whether any entry is hop-bounded (a single
        bounded entry restricts the pool to hop-capable methods — a
        router that picked a fallback-path method would make the whole
        batch unservable).  Named-method requests pass through untouched.
        """
        if request.method != AUTO_METHOD:
            return request, None
        max_hops = request.max_hops
        if max_hops is None:
            bounded = [
                spec.max_hops
                for spec in request.queries
                if spec.max_hops is not None
            ]
            if bounded:
                max_hops = bounded[0]
        decision = self._route(
            fingerprint=graph_fingerprint(self.graph),
            samples=request.samples,
            max_hops=max_hops,
        )
        return dataclasses.replace(request, method=decision.method), decision

    def _engine(
        self, graph: UncertainGraph, *, seed: int, pool=None
    ) -> BatchEngine:
        """The engine factory: every engine a request touches is built here.

        The one place a served engine gets its result cache (always the
        service's), its range evaluator, chunk size and worker count —
        all of it service configuration, none of it a request's.
        ``graph`` is the caller's snapshot: the live graph for
        ``/v1/batch``, ``warm`` and ``topk`` (read **once** per request,
        so a concurrent :meth:`update` cannot split a run across two
        versions), a lifted query graph for ``prob_tree``'s inner
        batches — estimator fast paths and the top-k row receive this
        method as their ``engine=`` factory.  Cache keys embed the
        graph's own fingerprint, so any graph may come through.

        Only an engine over the graph this service currently serves may
        fan out to the process pool.  Any other graph — a lifted query
        graph, or a predecessor an update just retired — sweeps inline:
        bit-identical, cheap for such small per-request graphs, and it
        never forks a pool per graph that would evict the served one
        from the fingerprint-keyed registry.  ``pool`` names the run's
        range evaluator outright (see ``evaluator``).
        """
        return BatchEngine(
            graph,
            seed=seed,
            chunk_size=self.chunk_size,
            workers=self.workers if graph is self.graph else 1,
            pool=pool,
            cache=self._cache,
        )

    def _cache_report(self) -> Optional[Dict[str, int]]:
        return self._cache.statistics() if self.persistent else None

    # ------------------------------------------------------------------
    # estimate / estimate_batch
    # ------------------------------------------------------------------

    def estimate(self, request: EstimateRequest) -> EstimateResponse:
        """One s-t reliability estimate through one named estimator.

        The query substream is keyed by ``(seed, source, target)`` —
        exactly the CLI's historical protocol — so the same request
        against the same service always replays the same number.

        Index-backed estimators draw their index from the construction
        seed, not the query substream; when a request carries its own
        seed, serving it from the long-lived (service-seeded) index
        would ignore that seed while reporting it as provenance.  Such
        requests therefore get a fresh estimator seeded by the request
        (index rebuild included) — the answer really is a function of
        the reported seed.

        ``method="auto"`` resolves through the adaptive router first;
        the answer is then **bit-identical** to the same request naming
        the routed method directly (the substream depends on the seed
        and the pair, never on how the method was chosen), and the
        response reports the concrete method plus the routing decision.
        """
        fingerprint = graph_fingerprint(self.graph)
        routing = None
        if request.method == AUTO_METHOD:
            decision = self._route(
                fingerprint=fingerprint,
                samples=request.samples,
                max_hops=None,
            )
            request = dataclasses.replace(request, method=decision.method)
            routing = decision.to_dict()
        cls = self._estimator_class(request.method)
        self._check_node(request.source, "source")
        self._check_node(request.target, "target")
        self._check_positive(request.samples, "samples")
        seed = self._resolve_seed(request.seed)
        rng = stable_substream(seed, request.source, request.target)
        if cls.uses_index and seed != self.seed:
            # A request-seeded index estimator is private to this request
            # — nothing is shared, so it runs with no lock at all.  Not
            # telemetered: the wall clock includes a full index build,
            # which would poison the method's per-query cost buckets.
            estimator = self.create_estimator(request.method, seed=seed)
            value = estimator.estimate(
                request.source, request.target, request.samples, rng=rng
            )
        else:
            # The long-lived instance is stateful (scratch arrays, lift
            # LRU); its call lock serialises this method only — requests
            # for other methods, and every engine run, proceed alongside.
            estimator, call_lock = self._estimator_entry(request.method)
            started = time.perf_counter()
            with call_lock:
                value = estimator.estimate(
                    request.source, request.target, request.samples, rng=rng
                )
            self.telemetry.record(
                request.method,
                fingerprint=fingerprint,
                samples=request.samples,
                max_hops=None,
                seconds=time.perf_counter() - started,
                estimate=float(value),
            )
            self._mark_index_rebuilt(request.method)
        self._count("estimate")
        return EstimateResponse(
            source=request.source,
            target=request.target,
            samples=request.samples,
            method=request.method,
            method_display=cls.display_name,
            seed=seed,
            estimate=float(value),
            dataset=self.dataset_key,
            scale=self.scale,
            routing=routing,
        )

    @classmethod
    def check_batch_request(cls, request: BatchRequest) -> None:
        """Every rule of a batch request that needs no graph.

        The one statement of these rules, for every transport:
        :meth:`estimate_batch` applies them to each request, and an
        adapter may call this before any dataset is loaded to fail fast
        (``repro batch`` does).  ``method="auto"`` has no batch path
        until the router resolves it, so the path-keyed rule treats it
        as engine-capable; ``estimate_batch`` checks again against the
        routed method.
        """
        engine_backed = (
            request.method == AUTO_METHOD
            or cls.batch_path_of(request.method) == "engine"
        )
        for name in ("samples", "max_hops"):
            cls._check_positive(getattr(request, name), name)
        if not engine_backed and (
            request.max_hops is not None
            or any(spec.max_hops is not None for spec in request.queries)
        ):
            raise InvalidQueryError(
                "hop-bounded (max_hops) queries need the shared-world "
                "engine; use method 'mc' or 'bfs_sharing'"
            )

    def estimate_batch(self, request: BatchRequest) -> BatchResponse:
        """Answer a workload, dispatched by the method's batch path.

        ``mc``/``bfs_sharing`` run on the shared-world engine (one world
        stream for the whole workload, served through the service's
        result cache); ``prob_tree`` groups by (s, t) bag pair on its
        long-lived index; everything else loops per query.  Estimates
        are deterministic in ``(graph, method, seed, query)`` — the
        transport cannot influence a single bit.

        ``method="auto"`` resolves through the router before any
        dispatch, so validation, the batch path, and every estimate are
        those of the routed method — bit-identical to naming it.
        """
        graph = self.graph
        fingerprint = graph_fingerprint(graph)
        request, decision = self._resolve_auto_batch(request)
        routing = None if decision is None else decision.to_dict()
        batch_path = self.batch_path_of(request.method)
        self.check_batch_request(request)
        queries = self.resolve_queries(
            request.queries, request.samples, request.max_hops
        )
        seed = self._resolve_seed(request.seed)
        if batch_path == "engine":
            # The parallel fast path: a fresh per-request engine, run
            # under no lock whatsoever.  Concurrent requests share only
            # the thread-safe result cache, and the determinism contract
            # makes the interleaving invisible in every estimate.
            self._record_queries(queries, seed)
            result = self._engine(graph, seed=seed, pool=self.evaluator).run(
                queries
            )
            mode = getattr(self.evaluator, "mode", "shared_worlds")
            report = self._engine_report(mode, result, self.chunk_size)
            rows = self._rows_from_result(result)
            # The engine reports one wall clock for the whole workload;
            # split it evenly — per-query attribution inside a shared
            # world sweep is meaningless anyway.
            per_query = result.seconds / max(len(rows), 1)
            for row in rows:
                self.telemetry.record(
                    request.method,
                    fingerprint=fingerprint,
                    samples=row.samples,
                    max_hops=row.max_hops,
                    seconds=per_query,
                    estimate=row.estimate,
                )
        else:
            estimator, call_lock = self._estimator_entry(request.method)
            started = time.perf_counter()
            mode = (
                "bag_grouped"
                if batch_path == "bag_grouped"
                else "per_query_loop"
            )
            with call_lock:
                # Any engine the estimator builds on the way (ProbTree's
                # inner batches over its lifted graphs) comes from the
                # service's factory: same cache, same configuration.
                estimates = estimator.estimate_batch(
                    queries, seed=seed, engine=self._engine
                )
                # Instrumentation must be read before the lock drops, or
                # a neighbouring request could overwrite it.
                inner = estimator.last_batch_result
            per_query = (time.perf_counter() - started) / max(len(queries), 1)
            for (source, target, samples, max_hops), estimate in zip(
                queries, estimates
            ):
                self.telemetry.record(
                    request.method,
                    fingerprint=fingerprint,
                    samples=samples,
                    max_hops=max_hops,
                    seconds=per_query,
                    estimate=float(estimate),
                )
            self._mark_index_rebuilt(request.method)
            report = (
                EngineReport(mode=mode)
                if inner is None
                else self._engine_report(mode, inner, None)
            )
            rows = tuple(
                QueryResult(
                    source=source,
                    target=target,
                    samples=samples,
                    max_hops=max_hops,
                    estimate=float(estimate),
                )
                for (source, target, samples, max_hops), estimate in zip(
                    queries, estimates
                )
            )
        self._count("batch")
        return BatchResponse(
            method=request.method,
            seed=seed,
            engine=report,
            results=rows,
            dataset=self.dataset_key,
            scale=self.scale,
            routing=routing,
        )

    def _engine_report(
        self, mode: str, result: BatchResult, chunk_size: Optional[int]
    ) -> EngineReport:
        return EngineReport(
            mode=mode,
            workers=result.workers,
            worlds_sampled=result.worlds_sampled,
            sweeps=result.sweeps,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            seconds=round(result.seconds, 6),
            chunk_size=chunk_size,
            cache=self._cache_report(),
            fingerprint=result.fingerprint,
        )

    @staticmethod
    def _rows_from_result(result: BatchResult) -> Tuple[QueryResult, ...]:
        cached = result.from_cache
        return tuple(
            QueryResult(
                source=query.source,
                target=query.target,
                samples=query.samples,
                max_hops=query.max_hops,
                estimate=float(estimate),
                cached=None if cached is None else bool(cached[position]),
            )
            for position, (query, estimate) in enumerate(
                zip(result.queries, result.estimates)
            )
        )

    # ------------------------------------------------------------------
    # warm
    # ------------------------------------------------------------------

    def warm(self, request: WarmRequest) -> WarmResponse:
        """Evaluate popular (s, t) pairs into the result cache.

        Method-agnostic by design: the cache key carries no estimator,
        so one warm pass serves every engine-backed method afterwards.
        ``already_warm`` vs ``newly_written`` counts unique queries —
        the speculative-precomputation report of the ROADMAP's
        cache-warming item.
        """
        queries = self.resolve_queries(
            request.queries, request.samples, request.max_hops
        )
        seed = self._resolve_seed(request.seed)
        # Unlocked like every engine run; the engine writes the whole
        # warmed workload through the cache's batched ``put_many`` path —
        # one sidecar transaction however many queries were warmed.
        result = self._engine(self.graph, seed=seed).run(queries)
        self._count("warm")
        return WarmResponse(
            query_count=len(queries),
            unique_queries=result.cache_hits + result.cache_misses,
            already_warm=result.cache_hits,
            newly_written=result.cache_misses,
            worlds_sampled=result.worlds_sampled,
            seconds=round(result.seconds, 6),
            seed=seed,
            persistent=self.persistent,
            cache=self._cache_report(),
        )

    # ------------------------------------------------------------------
    # shard_run (the distributed tier's worker-side primitive)
    # ------------------------------------------------------------------

    def shard_run(self, request: ShardRunRequest) -> ShardRunResponse:
        """Evaluate a world range for a coordinator (``POST /v1/shard/run``).

        The worker half of the shard protocol (:mod:`repro.distributed`):
        sweep worlds ``[start, stop)`` of the submitted workload and
        return integer hit counts.  The request's ``seed`` — not the
        service's — roots the world stream, so every shard of a tier
        draws the exact worlds the coordinator partitioned, and the
        request's ``fingerprint`` must match the graph this service
        currently serves: a mismatch (a shard that missed a
        ``/v1/update``, or a coordinator that applied one first) is a
        structured :class:`FingerprintMismatchError` (HTTP 409), never
        silently-wrong counts.

        The result cache is deliberately not involved: partial-range hit
        counts are not estimates and have no cache identity.  Caching
        happens once, at the coordinator, after the exact merge.
        """
        graph = self.graph
        fingerprint = graph_fingerprint(graph)
        if request.fingerprint != fingerprint:
            raise FingerprintMismatchError(
                f"this shard serves graph {fingerprint} (version "
                f"{int(getattr(graph, 'version', 0))}); the request "
                f"addresses {request.fingerprint} — re-sync the tier to "
                f"one graph version and retry"
            )
        if request.start < 0 or request.stop < request.start:
            raise InvalidQueryError(
                f"a shard range needs 0 <= start <= stop, "
                f"got [{request.start}, {request.stop})"
            )
        self._check_positive(request.chunk_size, "chunk_size")
        queries = self.resolve_queries(
            request.queries, request.samples, request.max_hops
        )
        # A private single-process engine over the snapshot this request
        # was fingerprint-checked against: range evaluation never touches
        # the shared cache or pool, so nothing is shared and no lock is
        # needed.
        engine = BatchEngine(
            graph,
            seed=int(request.seed),
            chunk_size=(
                self.chunk_size
                if request.chunk_size is None
                else request.chunk_size
            ),
            workers=1,
            cache_capacity=1,
        )
        result = engine.run_range(queries, request.start, request.stop)
        self._count("shard_run")
        return ShardRunResponse(
            hits=tuple(int(count) for count in result.hits),
            start=result.start,
            stop=result.stop,
            worlds_evaluated=result.worlds_evaluated,
            sweeps=result.sweeps,
            seed=result.seed,
            fingerprint=result.fingerprint,
            seconds=round(result.seconds, 6),
            query_count=len(queries),
        )

    # ------------------------------------------------------------------
    # update (live graph mutation) / re-warm
    # ------------------------------------------------------------------

    def update(self, request: UpdateRequest) -> UpdateResponse:
        """Apply a live mutation, publishing a new graph *version*.

        The mutation layer (:mod:`repro.core.mutation`) is copy-on-write:
        the current graph is never touched, a successor with
        ``version + 1`` is built instead.  Because every engine cache
        key embeds the graph fingerprint, invalidation is *exact* by
        construction — keys minted against the predecessor stop matching
        new requests the instant the swap lands, while entries for any
        untouched version keep serving warm hits (nothing is purged).

        In-flight requests finish against whichever version they
        snapshot; the estimator map is walked under the prepare lock so
        no request can build an index against a half-swapped service.
        Each already-built estimator chooses its cheapest survival mode
        (``incremental`` re-lift, full ``rebuilt``, lazy ``dropped``, or
        a plain ``repointed``), and the registry's worker pool for the
        old version is retired — the next multi-worker run registers one
        for the successor's fingerprint.
        """
        started = time.perf_counter()
        with self._update_lock:
            predecessor = self.graph
            previous_fingerprint = graph_fingerprint(predecessor)
            try:
                mutation = apply_update(
                    predecessor,
                    set_edges=request.set_edges,
                    remove_edges=request.remove_edges,
                )
            except ValueError as error:
                raise InvalidQueryError(str(error)) from None
            successor = mutation.graph
            modes: Dict[str, str] = {}
            with self._prepare_lock:
                # Swap + estimator maintenance are one atomic step under
                # the prepare lock: a lazy build started after this block
                # sees the successor, one finished before it is in the
                # map below and gets migrated.
                self.graph = successor
                for method, (estimator, call_lock) in sorted(
                    self._estimators.items()
                ):
                    with call_lock:
                        modes[method] = estimator.apply_update(
                            successor,
                            touched_edges=mutation.touched_edges,
                            structural=mutation.structural,
                        )
            with self._counts_lock:
                # The router must not route to an index a lazy "dropped"
                # survival mode left unbuilt; the flag clears the moment
                # any request serves the method again (index rebuilt).
                for method, mode in modes.items():
                    if mode == "dropped":
                        self._dropped_indexes.add(method)
                    else:
                        self._dropped_indexes.discard(method)
            # Workers hold the predecessor; closing its pool cancels
            # their queued ranges (in-flight runs re-sweep inline).
            retired = close_shared_pools(predecessor)
        self._count("update")
        return UpdateResponse(
            previous_fingerprint=previous_fingerprint,
            fingerprint=graph_fingerprint(successor),
            version=successor.version,
            node_count=int(successor.node_count),
            edge_count=int(successor.edge_count),
            edges_set=mutation.edges_set,
            edges_added=mutation.edges_added,
            edges_removed=mutation.edges_removed,
            structural=mutation.structural,
            estimators=modes,
            pool="respawned" if retired else "none",
            seconds=round(time.perf_counter() - started, 6),
        )

    def _record_queries(
        self, queries: List[ResolvedQuery], seed: int
    ) -> None:
        """Count engine-served keys for later :meth:`rewarm` replay.

        The key is the full cache identity *minus* the fingerprint —
        ``(source, target, samples, max_hops, seed)`` — so a replay
        against a new graph version warms exactly the entries clients
        have been asking for.  Bounded by :data:`QUERY_LOG_CAPACITY`.
        """
        with self._counts_lock:
            log = self._query_log
            for source, target, samples, max_hops in queries:
                key = (source, target, samples, max_hops, seed)
                count = log.get(key)
                if count is not None:
                    log[key] = count + 1
                elif len(log) < QUERY_LOG_CAPACITY:
                    log[key] = 1

    def top_queries(
        self, limit: int = DEFAULT_REWARM_TOP
    ) -> List[Dict[str, object]]:
        """The ``limit`` hottest engine-served query keys, hottest first.

        Ties break on the key itself so the ranking is deterministic,
        an unbounded query (``max_hops=None``) before the bounded ones.
        """
        self._check_positive(limit, "limit")

        def rank(item):
            (source, target, samples, max_hops, seed), count = item
            # Hop bounds are positive, so 0 orders "no bound" first and
            # the key stays comparable when None and int bounds tie.
            return (-count, source, target, samples, max_hops or 0, seed)

        with self._counts_lock:
            entries = sorted(self._query_log.items(), key=rank)[: int(limit)]
        return [
            {
                "source": source,
                "target": target,
                "samples": samples,
                "max_hops": max_hops,
                "seed": seed,
                "count": count,
            }
            for (source, target, samples, max_hops, seed), count in entries
        ]

    def rewarm(self, limit: int = DEFAULT_REWARM_TOP) -> Dict[str, int]:
        """Replay the hottest logged keys into the (current) result cache.

        The background half of the update lifecycle: after a version
        swap the successor's cache starts cold, so ``repro serve`` calls
        this from a worker thread to re-evaluate the top ``limit``
        logged keys against the new graph.  Keys are grouped by seed —
        one :meth:`warm` pass per seed group — because the seed is part
        of the cache identity a replay must reproduce exactly.
        """
        top = self.top_queries(limit)
        by_seed: Dict[int, List[QuerySpec]] = {}
        for entry in top:
            by_seed.setdefault(int(entry["seed"]), []).append(
                QuerySpec(
                    source=int(entry["source"]),
                    target=int(entry["target"]),
                    samples=int(entry["samples"]),
                    max_hops=entry["max_hops"],
                )
            )
        for seed in sorted(by_seed):
            self.warm(WarmRequest(queries=tuple(by_seed[seed]), seed=seed))
        with self._counts_lock:
            self._rewarm_runs += 1
            self._rewarm_queries += len(top)
        return {"queries_rewarmed": len(top), "warm_passes": len(by_seed)}

    # ------------------------------------------------------------------
    # topk / bounds / recommend
    # ------------------------------------------------------------------

    def topk(self, request: TopKRequest) -> TopKResponse:
        """Top-k most reliable targets from one source (paper §2.3).

        The source's all-targets row of the engine's world stream at the
        request's seed, ranked: every reliability equals the
        ``/v1/batch`` estimate of ``(source, node, samples)`` at that
        seed, bit for bit.  BFS Sharing's index is a transposed chunk of
        that same stream (paper §2.3), so no method is there to choose.
        """
        self._check_node(request.source, "source")
        self._check_positive(request.k, "k")
        self._check_positive(request.samples, "samples")
        seed = self._resolve_seed(request.seed)
        # A per-request engine sweeping inline (run_range): nothing
        # shared is written, so no lock.
        ranking = top_k_reliable_targets(
            self.graph,
            request.source,
            request.k,
            samples=request.samples,
            seed=seed,
            engine=self._engine,
        )
        self._count("topk")
        return TopKResponse(
            source=request.source,
            k=request.k,
            samples=request.samples,
            seed=seed,
            ranking=tuple(ranking),
        )

    def bounds(self, request: BoundsRequest) -> BoundsResponse:
        """Polynomial-time lower/upper bracket for one (source, target)."""
        self._check_node(request.source, "source")
        self._check_node(request.target, "target")
        lower, upper = reliability_bounds(  # pure per-call: no lock
            self.graph, request.source, request.target
        )
        self._count("bounds")
        return BoundsResponse(
            source=request.source,
            target=request.target,
            lower=float(lower),
            upper=float(upper),
        )

    @classmethod
    def recommend_static(cls, request: RecommendRequest) -> RecommendResponse:
        """Walk the paper's Fig. 18 decision tree.

        Graph-independent, hence a classmethod: callers (the ``repro
        recommend`` command among them) get a recommendation without
        loading any dataset — and without the measured evidence the
        instance-level :meth:`recommend` layers on top.
        """
        cls._check_positive(request.samples, "samples")
        cls._check_positive(request.max_hops, "max_hops")
        recommendation = recommend_estimator(
            memory_limited=request.memory_limited,
            want_lowest_variance=request.lowest_variance,
            want_fastest=not request.latency_tolerant,
            max_hops=request.max_hops,
        )
        return RecommendResponse(
            path=tuple(recommendation.path),
            estimators=tuple(recommendation.estimators),
            display_names=tuple(
                display_name(key) for key in recommendation.estimators
            ),
        )

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        """Recommend an estimator for this service's live graph.

        Routes exactly as ``estimator="auto"`` would for the request's
        query shape — measured scoring when the shape's telemetry
        buckets are warm, the paper's static tree otherwise — and the
        response carries the decision, its reason, and the telemetry
        evidence behind it.  The static ranking follows the router's
        pick as backups, demoted for any index a live update dropped.
        """
        self._check_positive(request.samples, "samples")
        self._check_positive(request.max_hops, "max_hops")
        fingerprint = graph_fingerprint(self.graph)
        decision = self._route(
            fingerprint=fingerprint,
            samples=request.samples,
            max_hops=request.max_hops,
            memory_limited=request.memory_limited,
        )
        recommendation = recommend_estimator(
            memory_limited=request.memory_limited,
            want_lowest_variance=request.lowest_variance,
            want_fastest=not request.latency_tolerant,
            max_hops=request.max_hops,
            unavailable=self._dropped_snapshot(),
        )
        estimators = (decision.method,) + tuple(
            key
            for key in recommendation.estimators
            if key != decision.method
        )
        self._count("recommend")
        return RecommendResponse(
            path=tuple(recommendation.path),
            estimators=estimators,
            display_names=tuple(display_name(key) for key in estimators),
            reason=decision.reason,
            decision=decision.to_dict(),
            telemetry=self.telemetry.snapshot(fingerprint),
        )

    # ------------------------------------------------------------------
    # study (the experiment harness behind the same facade)
    # ------------------------------------------------------------------

    def study(self, config):
        """Run a convergence study (Tables 3-14 shaped) on this service.

        The config must address this service's dataset — a service wraps
        exactly one graph — and describe some work: at least one pair,
        one repeat and one K on the grid.  The runner loads that suite
        dataset and builds fresh estimators from the registry over it, so
        a service whose graph a live update has replaced refuses studies
        rather than measure a graph it no longer serves.
        """
        if self.dataset is None:
            raise GraphLoadError(
                "this service wraps a raw graph; studies address a suite "
                "dataset — build the service with from_dataset()"
            )
        identity = (config.dataset, config.scale, config.seed)
        expected = (self.dataset_key, self.scale, self.seed)
        if identity != expected:
            raise InvalidQueryError(
                f"study config addresses {identity}, this service serves "
                f"{expected}"
            )
        if self.graph is not self.dataset.graph:
            raise InvalidQueryError(
                "this service's graph was updated; studies measure the "
                "suite dataset"
            )
        criterion = config.criterion
        self._check_positive(config.pair_count, "pair_count")
        self._check_positive(config.repeats, "repeats")
        self._check_positive(criterion.k_start, "k_start")
        self._check_positive(criterion.k_step, "k_step")
        if criterion.k_start > criterion.k_max:
            raise InvalidQueryError(
                f"the K grid is empty: k_start={criterion.k_start} "
                f"exceeds k_max={criterion.k_max}"
            )
        from repro.experiments.runner import run_study

        result = run_study(config)
        self._count("study")
        return result

    # ------------------------------------------------------------------
    # health / stats
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Cheap liveness payload for the ``/v1/health`` endpoint."""
        return {
            "status": "closed" if self._closed else "ok",
            "dataset": self.dataset_key,
            "scale": self.scale,
            "seed": self.seed,
            "nodes": int(self.graph.node_count),
            "edges": int(self.graph.edge_count),
        }

    def stats(self) -> Dict[str, object]:
        """Service-lifetime counters for the ``/v1/stats`` endpoint.

        Takes no *service* lock: the counter dict never resizes (its key
        set is fixed at construction) and the estimator map is
        copy-on-write, so a snapshot never waits on a running request's
        estimator or engine.  The one lock it does touch is the cache's
        internal one for the statistics read, which can briefly wait out
        an in-flight write transaction (and, on a persistent cache,
        flushes pending recency ticks) — milliseconds under load, versus
        the old behaviour of queueing behind entire engine runs.
        """
        graph = self.graph
        pool = registered_pool(graph)
        return {
            "dataset": self.dataset_key,
            "scale": self.scale,
            "seed": self.seed,
            "nodes": int(graph.node_count),
            "edges": int(graph.edge_count),
            "graph": {
                "fingerprint": graph_fingerprint(graph),
                "version": int(getattr(graph, "version", 0)),
            },
            "uptime_seconds": round(time.time() - self._started, 3),
            "persistent": self.persistent,
            "requests": {
                endpoint: count
                # lint: ok[D103] key set is ENDPOINTS, fixed at construction
                for endpoint, count in self._request_counts.items()
                if count
            },
            "estimators_loaded": sorted(self._estimators),
            "top_queries": self.top_queries(),
            "rewarm": {
                "runs": self._rewarm_runs,
                "queries": self._rewarm_queries,
            },
            "cache": self._cache.statistics(),
            # None until the first multi-worker engine run over this
            # graph version registers a pool; its counters are lock-free.
            "pool": None if pool is None else pool.statistics(),
            "routing": {
                # The live graph's view: other fingerprints' buckets
                # stay in the map but are not this snapshot's evidence.
                "telemetry": self.telemetry.snapshot(
                    graph_fingerprint(graph)
                ),
                "router": self.router.statistics(),
                "dropped_indexes": list(self._dropped_snapshot()),
            },
        }


__all__ = [
    "AUTO_METHOD",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_REWARM_TOP",
    "FAST_BATCH_PATHS",
    "QUERY_LOG_CAPACITY",
    "ReliabilityService",
]
