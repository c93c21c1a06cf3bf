"""Served concurrency: fine-grained locking vs the single-lock facade.

Not a paper table — this benchmarks the PR 5 serving-layer concurrency
work.  The paper frames s-t reliability as a *query workload* problem
(§2.2/§3.7), and the facade answers workloads over HTTP; until PR 5 a
single re-entrant lock serialised every request, so a
``ThreadingHTTPServer`` with N handler threads still ran one request at
a time — and the persistent cache paid one fsync per written row while
holding that lock.

Two sections, both over real sockets against in-process servers:

* ``served_throughput`` — 4 concurrent clients stream engine-backed
  ``/v1/batch`` workloads (fresh queries every round, so every request
  samples worlds and writes its rows through the persistent sidecar).
  The *baseline* server reconstructs PR 4 exactly: one global re-entrant
  lock around every request, per-row ``put`` commits, and one
  UPDATE+commit per disk hit.  The *concurrent* server is the shipped
  code: engine runs outside any lock, one batched transaction per
  request, deferred touch ticks.  On a single-core host the speedup is
  earned by eliminating serialised fsyncs and overlapping the ones that
  remain with other requests' compute (SQLite releases the GIL while it
  syncs); with more cores the unlocked engine runs overlap too.
* ``stats_tail_latency`` — ``/v1/stats`` sampled while the batch
  clients hammer.  Under the global lock a snapshot waits for whatever
  engine run holds it; lock-free counters answer in microseconds
  regardless of what else is in flight.
* ``pool_scaling`` — the PR 6 shared worker pool: one server per worker
  count (``REPRO_SERVE_POOL_WORKERS``, default ``1,2``), same clients;
  bit identity across counts is asserted unconditionally, the
  ``REPRO_SERVE_POOL_FLOOR`` scaling floor only on hosts with enough
  cores to show parallelism.

Asserted: bit-identical responses between both servers, and >= 1.5x
served throughput (the committed JSON records the measured figure; the
PR 5 acceptance floor is 2x on this workload).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_concurrency.py -q -s

Environment knobs: ``REPRO_SERVE_CLIENTS`` (default 4),
``REPRO_SERVE_ROUNDS`` (default 6), ``REPRO_SERVE_QUERIES`` (default
64), ``REPRO_SERVE_K`` (default 100), ``REPRO_SERVE_SOURCES`` (default
4), ``REPRO_SERVE_SCALE`` (default small), and
``REPRO_SERVE_SPEEDUP_FLOOR`` (default 1.5; 0 records without
asserting).

Machine-readable results land in
``benchmarks/output/serve_concurrency.json`` (uploaded as a CI
artifact).
"""

import json
import os
import statistics
import tempfile
import threading
import time
import urllib.request

from repro.api import ReliabilityService
from repro.datasets.suite import load_dataset
from repro.serve import create_server

from benchmarks._shared import OUTPUT_DIRECTORY, emit

SERVE_SEED = 3
SERVE_SCALE = os.environ.get("REPRO_SERVE_SCALE", "small")
SERVE_DATASET = os.environ.get("REPRO_SERVE_DATASET", "lastfm")
SERVE_CLIENTS = int(os.environ.get("REPRO_SERVE_CLIENTS", "4"))
SERVE_ROUNDS = int(os.environ.get("REPRO_SERVE_ROUNDS", "6"))
SERVE_QUERIES = int(os.environ.get("REPRO_SERVE_QUERIES", "64"))
SERVE_K = int(os.environ.get("REPRO_SERVE_K", "100"))
SERVE_SOURCES = int(os.environ.get("REPRO_SERVE_SOURCES", "4"))
#: Hard floor asserted on the measured speedup; ``0`` records without
#: asserting (what CI uses — wall-clock ratios on shared runners flake,
#: while the bit-identity assertion is the real correctness gate).
SERVE_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_SERVE_SPEEDUP_FLOOR", "1.5")
)
#: Worker counts for the ``pool_scaling`` section; 1 is the serial
#: baseline and is always prepended.
POOL_WORKER_COUNTS = [
    int(part)
    for part in os.environ.get("REPRO_SERVE_POOL_WORKERS", "1,2").split(",")
    if part.strip()
] or [1, 2]
if POOL_WORKER_COUNTS[0] != 1:
    POOL_WORKER_COUNTS.insert(0, 1)
#: Scaling floor asserted at the largest worker count when the host has
#: at least that many cores; ``0`` records without asserting.
POOL_SPEEDUP_FLOOR = float(os.environ.get("REPRO_SERVE_POOL_FLOOR", "1.2"))

JSON_OUTPUT = OUTPUT_DIRECTORY / "serve_concurrency.json"

_JSON_PAYLOAD = {
    "dataset": SERVE_DATASET,
    "scale": SERVE_SCALE,
    "clients": SERVE_CLIENTS,
    "rounds": SERVE_ROUNDS,
    "queries_per_request": SERVE_QUERIES,
    "samples": SERVE_K,
    "cpu_count": os.cpu_count(),
}


def _write_json() -> None:
    OUTPUT_DIRECTORY.mkdir(exist_ok=True)
    JSON_OUTPUT.write_text(
        json.dumps(_JSON_PAYLOAD, indent=2) + "\n", encoding="utf-8"
    )


class SingleLockService(ReliabilityService):
    """PR 4's locking discipline, reconstructed as the baseline.

    One re-entrant lock serialises every request (that was
    ``self._lock`` around each method body), and the persistent cache
    is put back on its PR 4 write path: one commit per written row, one
    UPDATE+commit per disk hit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._global_lock = threading.RLock()
        cache = self._cache
        cache.touch_flush_every = 1  # commit every disk-hit touch
        cache.put_many = lambda items: [  # commit every row
            cache.put(key, value) for key, value in items
        ]

    def estimate(self, request):
        with self._global_lock:
            return super().estimate(request)

    def estimate_batch(self, request):
        with self._global_lock:
            return super().estimate_batch(request)

    def warm(self, request):
        with self._global_lock:
            return super().warm(request)

    def stats(self):
        with self._global_lock:
            return super().stats()


def _post(url, path, body):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return json.loads(response.read())


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=600) as response:
        return json.loads(response.read())


def _client_workload(node_count, client, round_number):
    """A fresh (never-cached) engine workload for one client round.

    Shaped like real served fan-out traffic — a handful of hot sources,
    many targets each (the top-k / reliable-set access pattern, §2.3):
    the bitset sweep answers all of one source's targets in one shared
    fixpoint, so the request is cheap to *compute* and the cache-write
    path (one row per query) is where a serialised server loses time.
    """
    base = (client * 7919 + round_number * 104729) % node_count
    queries = []
    for position in range(SERVE_QUERIES):
        source = (base + (position % SERVE_SOURCES) * 131) % node_count
        target = (base + 977 + position * 13) % node_count
        if source == target:
            target = (target + 1) % node_count
        queries.append([source, target, SERVE_K])
    return {"queries": queries, "method": "mc"}


def _drive(url, node_count, stats_samples):
    """4 concurrent clients x rounds; returns (seconds, responses)."""
    responses = [
        [None] * SERVE_ROUNDS for _ in range(SERVE_CLIENTS)
    ]
    errors = []
    barrier = threading.Barrier(SERVE_CLIENTS + 1)
    stop = threading.Event()

    def client(slot):
        barrier.wait(timeout=120)
        try:
            for round_number in range(SERVE_ROUNDS):
                body = _client_workload(node_count, slot, round_number)
                payload = _post(url, "/v1/batch", body)
                responses[slot][round_number] = [
                    row["estimate"] for row in payload["results"]
                ]
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def stats_poller():
        # Samples /v1/stats latency while the batch traffic is live.
        while not stop.is_set():
            started = time.perf_counter()
            _get(url, "/v1/stats")
            stats_samples.append(time.perf_counter() - started)
            time.sleep(0.005)

    workers = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(SERVE_CLIENTS)
    ]
    poller = threading.Thread(target=stats_poller, daemon=True)
    for worker in workers:
        worker.start()
    poller.start()
    barrier.wait(timeout=120)
    started = time.perf_counter()
    for worker in workers:
        worker.join()
    seconds = time.perf_counter() - started
    stop.set()
    poller.join(timeout=10)
    assert not errors, errors
    return seconds, responses


def _run_server(service):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _shutdown(server, thread, service):
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=10)


def test_served_concurrency_speedup():
    graph = load_dataset(SERVE_DATASET, SERVE_SCALE, SERVE_SEED).graph
    node_count = graph.node_count
    request_count = SERVE_CLIENTS * SERVE_ROUNDS

    runs = {}
    latencies = {}
    for label, factory in (
        ("single_lock_baseline", SingleLockService),
        ("fine_grained", ReliabilityService),
    ):
        with tempfile.TemporaryDirectory() as cache_dir:
            service = factory.from_dataset(
                SERVE_DATASET, SERVE_SCALE, seed=SERVE_SEED,
                cache_dir=cache_dir,
            )
            server, thread = _run_server(service)
            try:
                stats_samples = []
                seconds, responses = _drive(
                    server.url, node_count, stats_samples
                )
                runs[label] = (seconds, responses)
                latencies[label] = stats_samples
            finally:
                _shutdown(server, thread, service)

    base_seconds, base_responses = runs["single_lock_baseline"]
    fine_seconds, fine_responses = runs["fine_grained"]
    # Locking is invisible in the numbers: bit-identical either way.
    assert fine_responses == base_responses
    speedup = base_seconds / fine_seconds
    base_rps = request_count / base_seconds
    fine_rps = request_count / fine_seconds

    def tail(samples):
        if not samples:  # pragma: no cover - poller starved
            return {"p50_ms": None, "p95_ms": None, "samples": 0}
        ordered = sorted(samples)
        return {
            "p50_ms": round(statistics.median(ordered) * 1e3, 3),
            "p95_ms": round(
                ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]
                * 1e3,
                3,
            ),
            "samples": len(ordered),
        }

    _JSON_PAYLOAD["served_throughput"] = {
        "requests": request_count,
        "single_lock_baseline": {
            "seconds": round(base_seconds, 4),
            "requests_per_second": round(base_rps, 3),
        },
        "fine_grained": {
            "seconds": round(fine_seconds, 4),
            "requests_per_second": round(fine_rps, 3),
        },
        "speedup": round(speedup, 3),
        "bit_identical": True,
    }
    _JSON_PAYLOAD["stats_tail_latency"] = {
        "single_lock_baseline": tail(latencies["single_lock_baseline"]),
        "fine_grained": tail(latencies["fine_grained"]),
    }
    _write_json()

    base_p95 = _JSON_PAYLOAD["stats_tail_latency"]["single_lock_baseline"][
        "p95_ms"
    ]
    fine_p95 = _JSON_PAYLOAD["stats_tail_latency"]["fine_grained"]["p95_ms"]
    lines = [
        "served throughput: "
        f"{SERVE_CLIENTS} concurrent /v1/batch clients x {SERVE_ROUNDS} "
        f"rounds, {SERVE_QUERIES} queries/request, K={SERVE_K}, "
        f"{SERVE_DATASET}/{SERVE_SCALE}, persistent cache",
        f"  single-lock baseline : {base_seconds:8.3f} s  "
        f"({base_rps:6.2f} req/s)",
        f"  fine-grained locking : {fine_seconds:8.3f} s  "
        f"({fine_rps:6.2f} req/s)",
        f"  speedup              : {speedup:8.2f}x  (bit-identical)",
        "  /v1/stats under load : "
        f"baseline p95 {base_p95} ms -> fine-grained p95 {fine_p95} ms",
    ]
    emit("\n".join(lines), "serve_concurrency.txt")

    # The acceptance floor is 2x on the committed run; the default local
    # floor is a conservative 1.5x, and CI runs with the floor disabled
    # (bit-identity above is the gate there — see ci.yml).
    if SERVE_SPEEDUP_FLOOR > 0:
        assert speedup >= SERVE_SPEEDUP_FLOOR, (
            f"fine-grained serving only {speedup:.2f}x over the single "
            f"lock (floor {SERVE_SPEEDUP_FLOOR}x)"
        )


def test_pool_scaling():
    """Served throughput vs worker-pool size (the PR 6 tentpole).

    One server per worker count, each driven by the same concurrent
    batch clients.  ``workers=1`` runs every sweep in the handler
    thread; ``workers=N`` attaches the service's one shared
    :class:`~repro.engine.pool.WorkerPool`, pre-forked with the graph
    loaded, so requests dispatch world ranges to standing workers.  Bit identity across all worker counts is
    asserted unconditionally (the engine's determinism contract); the
    throughput *scaling* floor only when the host has the cores to show
    it — a single-core runner can demonstrate correctness, not
    parallelism.
    """
    graph = load_dataset(SERVE_DATASET, SERVE_SCALE, SERVE_SEED).graph
    node_count = graph.node_count
    request_count = SERVE_CLIENTS * SERVE_ROUNDS
    # Chunks small enough that one request fans out across the pool.
    chunk_size = max(1, SERVE_K // 4)

    reference = None
    rows = []
    serial_seconds = None
    for workers in POOL_WORKER_COUNTS:
        service = ReliabilityService.from_dataset(
            SERVE_DATASET, SERVE_SCALE, seed=SERVE_SEED,
            workers=workers, chunk_size=chunk_size,
        )
        server, thread = _run_server(service)
        try:
            seconds, responses = _drive(server.url, node_count, [])
            pool_stats = service.stats()["pool"]
        finally:
            _shutdown(server, thread, service)
        if reference is None:
            reference = responses
            serial_seconds = seconds
        else:
            # Worker count cannot change a bit of any response.
            assert responses == reference
            # The shared pool — not per-request forking — did the work.
            assert pool_stats is not None and pool_stats["runs"] > 0
        rows.append({
            "workers": workers,
            "seconds": round(seconds, 4),
            "requests_per_second": round(request_count / seconds, 3),
            "speedup_vs_serial": round(serial_seconds / seconds, 3),
            "pool_runs": None if pool_stats is None else pool_stats["runs"],
        })

    _JSON_PAYLOAD["pool_scaling"] = {
        "requests": request_count,
        "chunk_size": chunk_size,
        "rows": rows,
        "bit_identical": True,
    }
    _write_json()

    lines = [
        "worker-pool scaling: "
        f"{SERVE_CLIENTS} concurrent /v1/batch clients x {SERVE_ROUNDS} "
        f"rounds, {SERVE_QUERIES} queries/request, K={SERVE_K}, "
        f"chunk={chunk_size}, {SERVE_DATASET}/{SERVE_SCALE}, "
        f"{os.cpu_count()} core(s)",
    ] + [
        f"  workers={row['workers']:<2d}: {row['seconds']:8.3f} s "
        f"({row['requests_per_second']:6.2f} req/s, "
        f"{row['speedup_vs_serial']:.2f}x, bit-identical)"
        for row in rows
    ]
    emit("\n".join(lines), "serve_concurrency.txt")

    cores = os.cpu_count() or 1
    top = rows[-1]
    if POOL_SPEEDUP_FLOOR > 0 and cores >= top["workers"]:
        assert top["speedup_vs_serial"] >= POOL_SPEEDUP_FLOOR, (
            f"pooled serving only {top['speedup_vs_serial']:.2f}x at "
            f"{top['workers']} workers (floor {POOL_SPEEDUP_FLOOR}x)"
        )
