"""The traced run: the same workload, broken into layers.

A traced run never produces an end-to-end number.  It takes a fixed
prefix of the workload's stream (fixed counts, so every count metric
repeats exactly) and measures it three ways:

1. **over HTTP**, one client, against the same deployment the untraced
   run uses — for what only the wire can show: transport cost, body
   sizes, the server's own cache counters, the shard tier's retries;
2. **in process, untraced** — a staged re-enactment of the request path
   (``json.loads`` -> ``from_dict`` -> service -> ``to_dict`` ->
   ``json.dumps``), timed as a whole;
3. **in process, traced** — the same re-enactment with a
   :class:`~benchmarks.ledger.spans.Recorder` wrapped around each
   layer's public functions.  (3) over (2) is the tracing overhead;
   the stage spans over the whole-request span is the coverage.

Then come the measurements no request stream reaches on its own, each on
the one workload whose layer it belongs to (and 0 on the others, which
is how a per-layer row says "not on this workload's path"): fixed-chunk
kernel timings and the pool/fork/inline comparison on ``cold_batch``,
cache-tier probes on ``hot_zipf``, estimator and update costs on
``mixed_update``, partitioning on ``shard_cold``.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger import check, report, traffic
from benchmarks.ledger.harness import OUT_DIR, make_workdir, set_up
from benchmarks.ledger.loadgen import Exchange, NullServer, run_phase
from benchmarks.ledger.report import PhaseCount, RunResult, summarize
from benchmarks.ledger.spans import Recorder, Span
from benchmarks.ledger.traffic import Request

#: Prefix lengths at the contract's run length; scaled with ``--seconds``.
PREFIX_AT_FULL_SCALE = {
    "cold_batch": 32,
    "hot_zipf": 200,
    "mixed_update": 60,
    "shard_cold": 32,
}
FULL_SCALE_SECONDS = 20.0

AUTO_SHARE = "routing.auto_share."

#: The stages of one re-enacted request, in order.
STAGES = (
    "serve.decode", "api.types.from_dict", "api.service.call",
    "api.types.to_dict", "serve.encode",
)


def prefix_length(workload: str, seconds: float) -> int:
    scaled = PREFIX_AT_FULL_SCALE[workload] * seconds / FULL_SCALE_SECONDS
    return max(4, int(round(scaled)))


# ----------------------------------------------------------------------
# The staged re-enactment of one request
# ----------------------------------------------------------------------


class _NoSpans:
    """Stands in for a recorder on the untraced pass."""

    @staticmethod
    def span(name: str, request: Optional[int] = None):
        return contextlib.nullcontext()


def reenact(
    service, request: Request, recorder, background_errors: List[str]
) -> dict:
    """What the server does with ``request``, stage by stage, in process.

    The service call is one stage; the layers beneath it are reached only
    through the recorder's wrappers.  An update is followed by the
    re-warm pass the server would run on a daemon thread; as there, a
    failure of that pass is reported and does not fail the request.
    """
    from repro.api import types
    from repro.api.service import DEFAULT_REWARM_TOP

    parsers = {
        "batch": (types.BatchRequest, service.estimate_batch),
        "estimate": (types.EstimateRequest, service.estimate),
        "topk": (types.TopKRequest, service.topk),
        "update": (types.UpdateRequest, service.update),
        "warm": (types.WarmRequest, service.warm),
    }
    request_type, call = parsers[request.kind]
    with recorder.span("request", request.index):
        with recorder.span("serve.decode"):
            payload = json.loads(request.body)
        with recorder.span("api.types.from_dict"):
            parsed = request_type.from_dict(payload)
        with recorder.span("api.service.call"):
            with recorder.span(f"api.service.{call.__name__}"):
                response = call(parsed)
        with recorder.span("api.types.to_dict"):
            document = response.to_dict()
        with recorder.span("serve.encode"):
            json.dumps(document).encode("utf-8")
    if request.kind == "update":
        with recorder.span("api.service.rewarm", request.index):
            try:
                service.rewarm(DEFAULT_REWARM_TOP)
            except Exception as failure:  # noqa: BLE001 — the thread boundary
                background_errors.append(
                    f"re-warm after request {request.index} raised "
                    f"{type(failure).__name__}: {failure}"
                )
    return document


def install_wrappers(recorder: Recorder) -> None:
    """Wrap each layer's public callables where their callers find them."""
    import repro.api.service as service_module
    import repro.distributed.coordinator as coordinator_module
    import repro.distributed.service as distributed_service_module
    import repro.engine.batch as batch_module
    from repro.core import registry
    from repro.core.estimators.base import Estimator
    from repro.distributed.client import ShardClient
    from repro.distributed.coordinator import ShardCoordinator
    from repro.engine.batch import BatchEngine
    from repro.engine.cache import PersistentResultCache, ResultCache
    from repro.routing import AdaptiveRouter
    from repro.util import bitset

    def dedup(plan) -> float:
        return plan.unique_count / max(len(plan), 1)

    for module in (batch_module, distributed_service_module):
        recorder.wrap(module, "plan_queries", "engine.plan.plan_queries", note=dedup)
    for cache_class in (ResultCache, PersistentResultCache):
        recorder.wrap(cache_class, "get", "engine.cache.get")
        recorder.wrap(cache_class, "put_many", "engine.cache.put_many")
    for method in ("run", "run_range", "evaluate_chunk", "world_masks"):
        recorder.wrap(BatchEngine, method, f"engine.batch.{method}")
    recorder.wrap(
        batch_module, "shared_reachability_fixpoint",
        "engine.kernels.python_fixpoint",
    )
    recorder.wrap(
        batch_module, "shared_fixpoint_vectorized",
        "engine.kernels.vectorized_fixpoint",
    )
    recorder.wrap(bitset, "pack_bool_matrix", "engine.kernels.pack")
    recorder.wrap(
        service_module, "graph_fingerprint", "engine.cache.graph_fingerprint"
    )
    recorder.wrap(service_module, "apply_update", "core.mutation.apply_update")
    recorder.wrap(service_module, "top_k_reliable_targets", "queries.top_k")
    recorder.wrap(AdaptiveRouter, "route", "routing.route")
    recorder.wrap(
        Estimator, "estimate",
        namer=lambda self, *args: f"core.estimators.{self.key}.estimate",
    )
    for key in registry.estimator_keys():
        estimator_class = registry.estimator_class(key)
        if "estimate_batch" in vars(estimator_class):
            recorder.wrap(
                estimator_class, "estimate_batch",
                f"core.estimators.{key}.estimate_batch",
            )
    recorder.wrap(ShardCoordinator, "evaluate", "distributed.coordinator.evaluate")
    recorder.wrap(
        coordinator_module, "partition_ranges",
        "distributed.coordinator.partition_ranges",
    )
    recorder.wrap(
        ShardClient, "shard_run", "distributed.client.shard_run",
        note=lambda response: response.seconds,
    )


def open_service(workload: str, workdir: Path, shard_urls: Sequence[str]):
    """An in-process service configured like the workload's front server."""
    workdir.mkdir(parents=True, exist_ok=True)
    options = check.server_options(workload, workdir)
    if workload == "shard_cold":
        from repro.distributed import CoordinatedReliabilityService

        return CoordinatedReliabilityService.from_dataset(
            traffic.DATASET, traffic.SCALE, traffic.DATASET_SEED,
            shards=list(shard_urls), **options,
        )
    from repro.api.service import ReliabilityService

    return ReliabilityService.from_dataset(
        traffic.DATASET, traffic.SCALE, traffic.DATASET_SEED, **options
    )


def replay(
    workload: str,
    workdir: Path,
    shard_urls: Sequence[str],
    prefix: Sequence[Request],
    recorder,
    background_errors: List[str],
) -> Tuple[List[dict], List[float]]:
    """Warm-up prefix, then the traced prefix, on a fresh in-process service."""
    service = open_service(workload, workdir, shard_urls)
    try:
        for request in traffic.warmup(workload):
            with recorder.span("warm-up"):
                reenact(service, request, recorder, background_errors)
        documents, seconds = [], []
        for request in prefix:
            started = time.perf_counter()
            documents.append(
                reenact(service, request, recorder, background_errors)
            )
            seconds.append(time.perf_counter() - started)
        return documents, seconds
    finally:
        service.close()


# ----------------------------------------------------------------------
# Reading metrics off the spans
# ----------------------------------------------------------------------


class SpanTable:
    """Span lookups the metric definitions need."""

    def __init__(self, spans: Sequence[Span], own: Dict[int, float]) -> None:
        # Warm-up spans are recorded (they show in the trace file) but
        # are not the workload: metrics read only the prefix's requests.
        by_id = {span.id: span for span in spans}

        def in_warmup(span: Span) -> bool:
            while span.parent is not None:
                span = by_id[span.parent]
            return span.name == "warm-up"

        self.spans = [span for span in spans if not in_warmup(span)]
        self.own = own
        self.children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def median(self, name: str, scale: float) -> float:
        return median_of([span.duration for span in self.named(name)], scale)

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def child(self, span: Span, name: str) -> List[Span]:
        return [c for c in self.children.get(span.id, ()) if c.name == name]

    def outermost(self, root: Span, name: str) -> List[Span]:
        """Spans called ``name`` under ``root`` with no same-named ancestor."""
        found, stack = [], list(self.children.get(root.id, ()))
        while stack:
            current = stack.pop()
            if current.name == name:
                found.append(current)
            else:
                stack.extend(self.children.get(current.id, ()))
        return found


def median_of(values: Sequence[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def timed(call: Callable[[], object], repeats: int) -> List[float]:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return samples


# ----------------------------------------------------------------------
# Measurements no request stream reaches on its own
# ----------------------------------------------------------------------


def measure_kernels_and_pool(
    prefix: Sequence[Request], detail: dict
) -> Dict[str, float]:
    """``cold_batch``: fixed-chunk kernels, and inline vs pool vs fork."""
    from repro.core.estimators.bfs_sharing import shared_reachability_fixpoint
    from repro.datasets.suite import load_dataset
    from repro.engine.batch import DEFAULT_CHUNK_SIZE, BatchEngine
    from repro.engine.kernels import shared_fixpoint_vectorized
    from repro.engine.pool import WorkerPool
    from repro.util import bitset

    graph = load_dataset(traffic.DATASET, traffic.SCALE, traffic.DATASET_SEED).graph
    engine = BatchEngine(graph, seed=traffic.DATASET_SEED, workers=1, cache_capacity=1)
    # One fixed pre-sampled chunk; both source shapes sweep it.
    masks = engine.world_masks(0, DEFAULT_CHUNK_SIZE)
    pack = timed(lambda: bitset.pack_bool_matrix(masks), 20)
    edge_bits = bitset.pack_bool_matrix(masks)
    sources = traffic.fixture().sources[: traffic.COLD_DISTINCT_SOURCES * 2]
    python_seconds, vector_seconds, probed = [], [], 0
    for source in sources:
        started = time.perf_counter()
        _, probes = shared_reachability_fixpoint(
            graph, edge_bits, source, DEFAULT_CHUNK_SIZE
        )
        python_seconds.append(time.perf_counter() - started)
        probed += int(probes)
        vector_seconds.extend(
            timed(
                lambda: shared_fixpoint_vectorized(
                    graph, edge_bits, source, DEFAULT_CHUNK_SIZE
                ),
                1,
            )
        )

    def workload_of(request: Request):
        return [tuple(entry) for entry in request.payload["queries"]]

    def run_with(request: Request, **options) -> float:
        started = time.perf_counter()
        BatchEngine(
            graph, seed=request.payload["seed"], cache_capacity=1, **options
        ).run(workload_of(request))
        return time.perf_counter() - started

    range_seconds = []
    for request in prefix[:8]:
        queries = workload_of(request)
        runner = BatchEngine(
            graph, seed=request.payload["seed"], workers=1, cache_capacity=1
        )
        range_seconds.extend(
            timed(lambda: runner.run_range(queries, 0, traffic.COLD_SAMPLES), 1)
        )
    inline = [run_with(request, workers=1) for request in prefix]
    started = time.perf_counter()
    pool = WorkerPool(graph, 2)
    try:
        pool.healthy()
        pool_start = time.perf_counter() - started
        pooled = [run_with(request, workers=2, pool=pool) for request in prefix]
    finally:
        pool.close()
    forked = [run_with(request, workers=2) for request in prefix[:6]]
    detail["engine.pool.speedup_w2"] = (
        f"inline {median_of(inline, 1e3):.1f} ms / pooled "
        f"{median_of(pooled, 1e3):.1f} ms on the same {len(prefix)} requests"
    )
    detail["engine.kernels.python_fixpoint_ms"] = report.describe(
        summarize(python_seconds), 1e3, "ms"
    )
    return {
        "engine.kernels.pack_ms": median_of(pack, 1e3),
        "engine.kernels.python_fixpoint_ms": median_of(python_seconds, 1e3),
        "engine.kernels.vectorized_fixpoint_ms": median_of(vector_seconds, 1e3),
        "engine.kernels.edges_probed": float(probed),
        "engine.batch.run_range_ms": median_of(range_seconds, 1e3),
        "engine.pool.start_s": pool_start,
        "engine.pool.run_ms_w2": median_of(pooled, 1e3),
        "engine.parallel.run_ms_w2": median_of(forked, 1e3),
        "engine.pool.speedup_w2": median_of(inline) / median_of(pooled),
    }


def measure_cache_tiers(workdir: Path, detail: dict) -> Dict[str, float]:
    """``hot_zipf``: one get from each tier, one warm-sized write."""
    from repro.engine.cache import (
        PersistentResultCache,
        ResultCache,
        result_key,
    )

    keys = [
        result_key("ledger", source, target, samples, 0, hops)
        for source, target, samples, hops in traffic.hot_universe()
    ]
    rows = [(key, 0.5) for key in keys]
    memory = ResultCache()
    memory.put_many(rows[-memory.capacity:])
    resident = keys[-memory.capacity:][:1000]
    memory_gets = []
    for key in resident:
        started = time.perf_counter()
        memory.get(key)
        memory_gets.append(time.perf_counter() - started)
    # capacity=1: every get misses memory and is answered by SQLite.
    sidecar = PersistentResultCache(workdir / "tier-probe.sqlite", capacity=1)
    try:
        put_many = timed(lambda: sidecar.put_many(rows), 1)
        disk_gets = []
        for key in keys[:500]:
            started = time.perf_counter()
            sidecar.get(key)
            disk_gets.append(time.perf_counter() - started)
    finally:
        sidecar.close()
    detail["engine.cache.get_us"] = report.describe(summarize(memory_gets), 1e6, "us")
    detail["engine.cache.disk_get_us"] = report.describe(
        summarize(disk_gets), 1e6, "us"
    )
    detail["engine.cache.put_many_ms"] = f"{len(rows)} rows, one transaction"
    return {
        "engine.cache.get_us": median_of(memory_gets, 1e6),
        "engine.cache.disk_get_us": median_of(disk_gets, 1e6),
        "engine.cache.put_many_ms": median_of(put_many, 1e3),
    }


def measure_estimators_and_updates(detail: dict) -> Dict[str, float]:
    """``mixed_update``: each estimator alone, and what one update costs."""
    from repro.api.service import ReliabilityService
    from repro.api.types import RecommendRequest
    from repro.core.mutation import apply_update
    from repro.core.registry import create_estimator
    from repro.datasets.suite import load_dataset
    from repro.engine.cache import graph_fingerprint
    from repro.util.rng import stable_substream

    started = time.perf_counter()
    # A dataset seed nothing else loads, so the memoised loader builds.
    load_dataset(traffic.DATASET, traffic.SCALE, traffic.DATASET_SEED + 1)
    metrics = {"datasets.load_s": time.perf_counter() - started}

    graph = load_dataset(traffic.DATASET, traffic.SCALE, traffic.DATASET_SEED).graph
    pairs = traffic.probe_pairs("mixed_update")
    reference = check.reference_estimates(graph, pairs)
    for method in traffic.PROBE_METHODS:
        estimator = create_estimator(method, graph, seed=traffic.DATASET_SEED)
        metrics[f"core.estimators.{method}.prepare_s"] = timed(
            estimator.prepare, 1
        )[0]
        seconds, errors = [], []
        for source, target in pairs:
            rng = stable_substream(traffic.DATASET_SEED, source, target)
            started = time.perf_counter()
            value = estimator.estimate(
                source, target, traffic.MIXED_PROBE_SAMPLES, rng=rng
            )
            seconds.append(time.perf_counter() - started)
            errors.append(abs(value - reference[(source, target)]))
        metrics[f"core.estimators.{method}.estimate_ms"] = median_of(seconds, 1e3)
        metrics[f"core.estimators.{method}.mae"] = sum(errors) / len(errors)
        metrics[f"core.estimators.{method}.memory_mb"] = (
            estimator.memory_bytes() / 2**20
        )
    detail["core.estimators"] = (
        f"{len(pairs)} probe pairs at K={traffic.MIXED_PROBE_SAMPLES} against "
        f"K={check.REFERENCE_SAMPLES}"
    )

    prob_tree = create_estimator("prob_tree", graph, seed=traffic.DATASET_SEED)
    prob_tree.prepare()
    updates = [
        request
        for request in traffic.stream("mixed_update", 0, 5 * traffic.UPDATE_EVERY)
        if request.is_update
    ]
    apply_seconds, fingerprint_seconds, relift_seconds = [], [], []
    current = graph
    for request in updates:
        started = time.perf_counter()
        mutation = apply_update(current, set_edges=request.payload["set_edges"])
        apply_seconds.append(time.perf_counter() - started)
        current = mutation.graph
        fingerprint_seconds.extend(timed(lambda: graph_fingerprint(current), 1))
        started = time.perf_counter()
        prob_tree.apply_update(
            current,
            touched_edges=mutation.touched_edges,
            structural=mutation.structural,
        )
        relift_seconds.append(time.perf_counter() - started)
    metrics["core.mutation.apply_update_ms"] = median_of(apply_seconds, 1e3)
    metrics["engine.cache.fingerprint_ms"] = median_of(fingerprint_seconds, 1e3)
    metrics["core.estimators.prob_tree.relift_ms"] = median_of(relift_seconds, 1e3)

    service = ReliabilityService(graph, seed=traffic.DATASET_SEED)
    try:
        routes = timed(lambda: service.recommend(RecommendRequest()), 200)
    finally:
        service.close()
    metrics["routing.route_us"] = median_of(routes, 1e6)
    detail["routing.route_us"] = report.describe(summarize(routes), 1e6, "us")
    return metrics


def measure_partitioning() -> Dict[str, float]:
    """``shard_cold``: the partitioner alone."""
    from repro.distributed.coordinator import partition_ranges
    from repro.engine.batch import DEFAULT_CHUNK_SIZE

    samples = timed(
        lambda: partition_ranges(traffic.COLD_SAMPLES, DEFAULT_CHUNK_SIZE, 2), 1000
    )
    return {"distributed.coordinator.partition_us": median_of(samples, 1e6)}


def measure_null_round_trip(sample: Exchange) -> List[float]:
    """Round trips to a stub that answers ``sample``'s reply, canned."""
    with NullServer(sample.body) as url:
        phase = run_phase(url, [sample.request] * 200, clients=1)
    return [exchange.seconds for exchange in phase.exchanges if exchange.ok]


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def _cache_counts(
    warmed: Sequence[Exchange], reports: Sequence[dict]
) -> Tuple[Dict[str, float], int]:
    """Cache outcomes of the prefix, as exact counts read off the replies.

    Every batch reply reports its own hits and misses; a persistent
    service also reports the cache's running totals, so the disk tier's
    share is the movement of ``disk_hits`` from the warm-up reply to the
    last reply of the prefix.  (``/v1/stats`` would say the same, but at
    this commit it answers 500 once the query log holds both bounded and
    unbounded keys — ``top_queries`` sorts ``None`` against ``int``.)
    """
    hits = sum(report_.get("cache_hits", 0) for report_ in reports)
    misses = sum(report_.get("cache_misses", 0) for report_ in reports)
    totals = [
        json.loads(exchange.body).get("cache")
        for exchange in warmed
        if exchange.ok and exchange.request.kind == "warm"
    ] + [report_.get("cache") for report_ in reports]
    totals = [total for total in totals if total]
    disk_hits = (
        totals[-1]["disk_hits"] - totals[0]["disk_hits"] if totals else 0
    )
    lookups = hits + misses
    return {
        "engine.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "engine.cache.memory_hit_ratio": (
            (hits - disk_hits) / lookups if lookups else 0.0
        ),
        "engine.cache.disk_hits": float(disk_hits),
    }, lookups


def run_traced(workload: str, seed: int, seconds: float) -> RunResult:
    length = prefix_length(workload, seconds)
    both = traffic.stream(workload, seed, 2 * length)
    # The next stretch of the stream, for the two-client comparison: it
    # must not find the first stretch's answers in the cache.
    prefix, second_stretch = both[:length], both[length:]
    detail: Dict[str, object] = {"prefix_requests": len(prefix)}
    workdir = make_workdir()
    deployment = None
    try:
        # -- 1. over HTTP -------------------------------------------------
        deployment, warmed, _ = set_up(workload, workdir / "deployment")
        wire = run_phase(deployment.url, prefix, clients=1)
        contended = run_phase(
            deployment.url, second_stretch, clients=2,
            start_version=sum(request.is_update for request in prefix),
        )
        shard_tier = (
            deployment.stats()["shards"] if workload == "shard_cold" else {}
        )
        shard_urls = [server.url for server in deployment.servers[:-1]]
        warm_failures = check.check_exchanges(warmed, None)
        wire_failures = check.check_exchanges(
            wire.exchanges, None
        ) + check.check_exchanges(contended.exchanges, None)
        wire_documents = [
            json.loads(exchange.body) if exchange.ok else {}
            for exchange in wire.exchanges
        ]
        null_seconds = measure_null_round_trip(wire.exchanges[0])

        # -- 2. and 3. in process, untraced then traced -------------------
        background_errors: List[str] = []
        plain_documents, plain_seconds = replay(
            workload, workdir / "plain", shard_urls, prefix, _NoSpans, []
        )
        with Recorder() as recorder:
            install_wrappers(recorder)
            _, traced_seconds = replay(
                workload, workdir / "traced", shard_urls, prefix, recorder,
                background_errors,
            )
        if background_errors:
            detail["background_errors"] = "; ".join(background_errors)
        deployment.close()
        deployment = None

        extra: Dict[str, float] = {}
        if workload == "cold_batch":
            extra = measure_kernels_and_pool(prefix, detail)
        elif workload == "hot_zipf":
            extra = measure_cache_tiers(workdir, detail)
        elif workload == "mixed_update":
            extra = measure_estimators_and_updates(detail)
        elif workload == "shard_cold":
            extra = measure_partitioning()
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(workdir, ignore_errors=True)

    # The two processes must have computed the same numbers (an ``auto``
    # reply may name another method in process: routing reads the clock).
    identity_failures = []
    for request, served, local in zip(prefix, wire_documents, plain_documents):
        if not served or request.payload.get("method") == "auto":
            continue
        served_values = check.answer_values(request.kind, served)
        local_values = check.answer_values(request.kind, local)
        if served_values != local_values:
            identity_failures.append(
                f"request {request.index}: served {served_values!r} over "
                f"HTTP, {local_values!r} in process"
            )

    trace_path = OUT_DIR / f"trace-{workload}.json"
    recorder.write(
        trace_path,
        {"workload": workload, "seed": seed, **report.environment_header()},
    )
    table = SpanTable(recorder.spans, recorder.self_times())
    metrics = {name: 0.0 for name in report.declared("per_layer")}
    metrics.update(_span_metrics(table, detail))
    metrics.update(
        _wire_metrics(
            wire, warmed, wire_documents, plain_seconds, null_seconds, detail
        )
    )
    metrics["distributed.coordinator.retries"] = float(
        shard_tier.get("retries", 0)
    )
    one = len(wire.exchanges) / wire.wall_seconds
    two = len(contended.exchanges) / contended.wall_seconds
    metrics["serve.throughput_ratio_c2"] = two / one
    detail["serve.throughput_ratio_c2"] = (
        f"two waiting clients {two:.2f} 1/s / one {one:.2f} 1/s, "
        f"{len(prefix)} requests each"
    )
    metrics["trace.overhead_ratio"] = sum(traced_seconds) / sum(plain_seconds)
    detail["trace.overhead_ratio"] = (
        f"traced {sum(traced_seconds):.3f} s / untraced {sum(plain_seconds):.3f} s"
    )
    metrics.update(extra)
    detail["trace_file"] = str(trace_path.relative_to(OUT_DIR.parents[2]))
    prefix_failures = wire_failures + identity_failures
    return RunResult(
        workload=workload,
        seed=seed,
        trace=True,
        metrics=metrics,
        phases=[
            PhaseCount("warm-up", len(warmed), len(warm_failures)),
            PhaseCount(
                "prefix",
                len(wire.exchanges) + len(contended.exchanges),
                len(prefix_failures),
            ),
        ],
        failures=warm_failures + prefix_failures,
        detail=detail,
    )


def _span_metrics(table: SpanTable, detail: dict) -> Dict[str, float]:
    requests = table.named("request")
    request_seconds = sum(span.duration for span in requests)
    staged = sum(table.total(stage) for stage in STAGES)
    metrics = {
        "trace.coverage": staged / request_seconds,
        "serve.decode_ms": table.median("serve.decode", 1e3),
        "serve.encode_ms": table.median("serve.encode", 1e3),
        "api.types.from_dict_ms": table.median("api.types.from_dict", 1e3),
        "api.types.to_dict_ms": table.median("api.types.to_dict", 1e3),
        "api.service.update_ms": table.median("api.service.update", 1e3),
        "api.service.rewarm_ms": table.median("api.service.rewarm", 1e3),
        "engine.plan.plan_ms": table.median("engine.plan.plan_queries", 1e3),
        "engine.batch.sample_ms_per_chunk": table.median(
            "engine.batch.world_masks", 1e3
        ),
        "engine.batch.run_ms": table.median("engine.batch.run", 1e3),
        "engine.batch.blocking_share": (
            sum(
                span.duration
                for request in requests
                for span in table.outermost(
                    request, "engine.batch.evaluate_chunk"
                )
            )
            / request_seconds
        ),
        "distributed.client.shard_run_ms": table.median(
            "distributed.client.shard_run", 1e3
        ),
    }
    detail["trace.coverage"] = (
        f"stage spans {staged:.3f} s / request spans {request_seconds:.3f} s"
    )
    detail["engine.batch.blocking_share"] = (
        f"evaluate_chunk spans (sampling + sweeps) / {request_seconds:.3f} s "
        "of request spans"
    )
    # What the service adds around its children on a batch: telemetry,
    # validation, row building.
    batch_own = [
        table.own[span.id] for span in table.named("api.service.estimate_batch")
    ]
    metrics["api.service.batch_overhead_ms"] = median_of(batch_own, 1e3)
    plans = table.named("engine.plan.plan_queries")
    if plans:
        metrics["engine.plan.dedup_ratio"] = sum(
            span.note for span in plans
        ) / len(plans)
    # A chunk's sweep is its evaluation minus the sampling inside it.
    sweeps = [
        chunk.duration
        - sum(s.duration for s in table.child(chunk, "engine.batch.world_masks"))
        for chunk in table.named("engine.batch.evaluate_chunk")
    ]
    metrics["engine.batch.sweep_ms_per_chunk"] = median_of(sweeps, 1e3)
    if sweeps:
        detail["engine.batch.sweep_ms_per_chunk"] = report.describe(
            summarize(sweeps), 1e3, "ms"
        )
    # The coordinator's own cost: a fanned-out request minus its slowest
    # shard's self-reported seconds; balance is slowest over mean.
    overheads, balances = [], []
    for fanout in table.named("distributed.coordinator.evaluate"):
        reported = [
            span.note
            for span in table.outermost(fanout, "distributed.client.shard_run")
            if span.note is not None
        ]
        if reported:
            overheads.append(fanout.duration - max(reported))
            balances.append(max(reported) / (sum(reported) / len(reported)))
    metrics["distributed.coordinator.fanout_overhead_ms"] = median_of(overheads, 1e3)
    metrics["distributed.coordinator.shard_balance"] = median_of(balances)
    return metrics


def _wire_metrics(
    wire,
    warmed: Sequence[Exchange],
    documents: Sequence[dict],
    plain_seconds: Sequence[float],
    null_seconds: Sequence[float],
    detail: dict,
) -> Dict[str, float]:
    good = [exchange for exchange in wire.exchanges if exchange.ok]
    reports = [
        document["engine"]
        for exchange, document in zip(wire.exchanges, documents)
        if exchange.request.kind == "batch" and "engine" in document
    ]
    cache_metrics, lookups = _cache_counts(warmed, reports)
    round_trips = [exchange.seconds for exchange in good]
    metrics = {
        # Everything HTTP adds to the in-process path: socket, parsing
        # of the request line and headers, the handler thread.
        "serve.transport_ms": (
            median_of(round_trips, 1e3) - median_of(plain_seconds, 1e3)
        ),
        "serve.request_bytes": median_of(
            [len(exchange.request.body) for exchange in good]
        ),
        "serve.response_bytes": median_of([len(exchange.body) for exchange in good]),
        "serve.update_ms": median_of(
            [exchange.seconds for exchange in good if exchange.request.is_update],
            1e3,
        ),
        "harness.null_rtt_ms": median_of(null_seconds, 1e3),
        "harness.generator_busy_ratio": (
            wire.generator_cpu_seconds / (wire.wall_seconds * wire.clients)
        ),
        **cache_metrics,
    }
    detail["serve.transport_ms"] = (
        f"HTTP {median_of(round_trips, 1e3):.3f} ms - in-process "
        f"{median_of(plain_seconds, 1e3):.3f} ms; "
        + report.describe(summarize(round_trips), 1e3, "ms")
    )
    detail["engine.cache.hit_ratio"] = f"of {lookups} lookups"
    detail["harness.generator_busy_ratio"] = (
        f"{wire.generator_cpu_seconds:.3f} s client-thread CPU / "
        f"{wire.wall_seconds:.3f} s wall"
    )
    if reports:
        metrics["engine.batch.worlds_per_request"] = sum(
            report_.get("worlds_sampled", 0) for report_ in reports
        ) / len(reports)
        metrics["engine.batch.sweeps_per_request"] = sum(
            report_.get("sweeps", 0) for report_ in reports
        ) / len(reports)
        detail["engine.batch.worlds_per_request"] = f"{len(reports)} batch replies"
    routed = [
        document["method"]
        for exchange, document in zip(wire.exchanges, documents)
        if exchange.request.payload.get("method") == "auto" and document
    ]
    for name in report.declared("per_layer"):
        if name.startswith(AUTO_SHARE) and routed:
            metrics[name] = routed.count(name[len(AUTO_SHARE):]) / len(routed)
    if routed:
        detail["routing.auto_share"] = f"of {len(routed)} auto replies"
    return metrics
