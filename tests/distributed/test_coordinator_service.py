"""In-process tests for :class:`CoordinatedReliabilityService`.

Real HTTP workers (``create_server`` on ephemeral ports, background
threads) behind a real coordinator — everything short of separate
processes, which :mod:`tests.distributed.test_two_process_integration`
covers.  The properties pinned here are the tier's whole contract:

* a coordinated ``/v1/batch`` document equals a single-process one
  after normalising only ``engine.mode``, ``engine.workers``, and
  ``engine.seconds``;
* the coordinator owns the caches (second pass never dispatches);
* a vanished worker means re-dispatch, not wrong numbers;
* with every shard down the coordinator evaluates the ranges itself;
* a worker's structured rejection (fingerprint mismatch after an
  un-synced ``/v1/update``) surfaces to the coordinator's client with
  its original type and status — never a generic 500.

The tier's patience settings are module constants; the ``fast_tier``
fixture tightens them for every test here.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import (
    BatchRequest,
    EstimateRequest,
    InvalidQueryError,
    QuerySpec,
    ReliabilityService,
)
from repro.datasets.suite import load_dataset
from repro.distributed import (
    CoordinatedReliabilityService,
    ShardCoordinator,
)
from repro.distributed import client as client_module
from repro.distributed import coordinator as coordinator_module
from repro.serve import create_server

SEED = 7

WORKLOAD = BatchRequest(
    queries=(
        QuerySpec(0, 5, 300),
        QuerySpec(3, 9, 250),
        QuerySpec(0, 5, 300),  # duplicate on purpose
        QuerySpec(1, 7, 150, 2),  # hop-bounded
    ),
    samples=300,
)

#: Tight patience: failover is fast, and a downed shard stays down.
FAST = {"timeout": 10.0, "retries": 1, "backoff": 0.0, "cooldown": 300.0}


def tighten(monkeypatch, timeout, retries, backoff, cooldown):
    monkeypatch.setattr(client_module, "DEFAULT_TIMEOUT", timeout)
    monkeypatch.setattr(coordinator_module, "DEFAULT_RETRIES", retries)
    monkeypatch.setattr(coordinator_module, "DEFAULT_BACKOFF", backoff)
    monkeypatch.setattr(coordinator_module, "DEFAULT_COOLDOWN", cooldown)


@pytest.fixture(autouse=True)
def fast_tier(monkeypatch):
    tighten(monkeypatch, **FAST)


def start_worker():
    """A real shard worker: plain service + HTTP server on a free port."""
    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=SEED)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return service, server, thread


def stop_worker(worker):
    service, server, thread = worker
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


def make_coordinator(shard_urls):
    loaded = load_dataset("lastfm", "tiny", SEED)
    return CoordinatedReliabilityService(
        loaded.graph, seed=SEED, dataset=loaded, shards=shard_urls
    )


def normalized(document):
    """A batch document minus the three honestly-divergent fields."""
    document = json.loads(json.dumps(document))  # deep copy
    for field in ("mode", "workers", "seconds"):
        document["engine"].pop(field, None)
    return document


@pytest.fixture()
def tier():
    workers = [start_worker(), start_worker()]
    coordinator = make_coordinator([w[1].url for w in workers])
    try:
        yield coordinator, workers
    finally:
        coordinator.close()
        for worker in workers:
            try:
                stop_worker(worker)
            except Exception:
                pass


class TestRequestValidation:
    @pytest.mark.parametrize(
        "fields",
        [{"seed": -1}, {"samples": 2**64}],
        ids=["negative_seed", "oversized_samples"],
    )
    def test_refused_before_any_dispatch(self, tier, fields):
        coordinator, workers = tier
        with pytest.raises(InvalidQueryError):
            coordinator.estimate_batch(
                BatchRequest(queries=(QuerySpec(0, 5),), **fields)
            )
        for service, _, _ in workers:
            assert service.stats()["requests"].get("shard_run", 0) == 0


class TestWireCompatibility:
    def test_batch_document_matches_single_process(self, tier):
        coordinator, _ = tier
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=SEED
        ) as plain:
            reference = plain.estimate_batch(WORKLOAD).to_dict()
        distributed = coordinator.estimate_batch(WORKLOAD).to_dict()
        assert normalized(distributed) == normalized(reference)
        assert distributed["engine"]["mode"] == "distributed"
        assert distributed["engine"]["workers"] == 2

    def test_a_service_configured_with_a_coordinator_is_the_same_service(
        self, tier
    ):
        # The subclass is nothing but a constructor: a plain service
        # handed the evaluator answers with the same bytes.
        coordinator, workers = tier
        loaded = load_dataset("lastfm", "tiny", SEED)
        configured = ReliabilityService(
            loaded.graph,
            seed=SEED,
            dataset=loaded,
            evaluator=ShardCoordinator([w[1].url for w in workers]),
        )

        def wire_bytes(service):
            document = service.estimate_batch(WORKLOAD).to_dict()
            assert document["engine"]["mode"] == "distributed"
            document["engine"]["seconds"] = 0.0  # the one wall clock
            return json.dumps(document)

        with configured:
            assert wire_bytes(configured) == wire_bytes(coordinator)
            # ...and only engine-backed batches reach the tier.
            assert configured.evaluator.statistics()["batches"] == 1
            configured.estimate_batch(
                BatchRequest(queries=WORKLOAD.queries[:2], method="prob_tree")
            )
            assert configured.evaluator.statistics()["batches"] == 1

    def test_deterministic_counters_match_exactly(self, tier):
        coordinator, _ = tier
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=SEED
        ) as plain:
            reference = plain.estimate_batch(WORKLOAD).engine
        report = coordinator.estimate_batch(WORKLOAD).engine
        assert report.worlds_sampled == reference.worlds_sampled
        assert report.sweeps == reference.sweeps
        assert report.cache_hits == reference.cache_hits
        assert report.cache_misses == reference.cache_misses
        assert report.fingerprint == reference.fingerprint

    def test_second_pass_is_served_from_coordinator_cache(self, tier):
        coordinator, _ = tier
        coordinator.estimate_batch(WORKLOAD)
        replay = coordinator.estimate_batch(WORKLOAD)
        assert replay.engine.worlds_sampled == 0
        assert replay.engine.cache_hits == 3
        # No new dispatches happened for the replay.
        assert coordinator.coordinator.statistics()["batches"] == 1

    def test_single_estimates_run_locally(self, tier):
        coordinator, _ = tier
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=SEED
        ) as plain:
            expected = plain.estimate(
                EstimateRequest(source=0, target=5, samples=150)
            ).estimate
        response = coordinator.estimate(
            EstimateRequest(source=0, target=5, samples=150)
        )
        assert response.estimate == expected
        assert coordinator.coordinator.statistics()["batches"] == 0

    def test_stats_carries_the_shard_section(self, tier):
        coordinator, workers = tier
        coordinator.estimate_batch(WORKLOAD)
        shards = coordinator.stats()["shards"]
        assert shards["total"] == 2
        assert shards["healthy"] == 2
        assert shards["batches"] == 1
        assert shards["ranges_dispatched"] == 2
        assert {m["url"] for m in shards["members"]} == {
            w[1].url for w in workers
        }
        assert shards["config"] == {**FAST, "local_fallback": True}


class TestFailover:
    def test_killed_worker_means_redispatch_not_wrong_numbers(self, tier):
        coordinator, workers = tier
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=SEED
        ) as plain:
            reference = plain.estimate_batch(WORKLOAD).to_dict()
        stop_worker(workers.pop(0))
        distributed = coordinator.estimate_batch(WORKLOAD).to_dict()
        assert normalized(distributed) == normalized(reference)
        shards = coordinator.stats()["shards"]
        assert shards["healthy"] == 1
        assert shards["redispatches"] >= 1
        downed = [m for m in shards["members"] if not m["healthy"]]
        assert len(downed) == 1
        assert downed[0]["failures"] >= 1
        assert downed[0]["last_error"]

    def test_all_workers_down_falls_back_locally(self, tier):
        coordinator, workers = tier
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=SEED
        ) as plain:
            reference = plain.estimate_batch(WORKLOAD).to_dict()
        while workers:
            stop_worker(workers.pop())
        distributed = coordinator.estimate_batch(WORKLOAD).to_dict()
        assert normalized(distributed) == normalized(reference)
        shards = coordinator.stats()["shards"]
        assert shards["healthy"] == 0
        assert shards["local_fallbacks"] >= 1
        # Every range was served by the coordinator itself.
        assert distributed["engine"]["workers"] == 1

    def test_recovered_worker_is_revived_after_cooldown(self, monkeypatch):
        # Zero cooldown: a downed shard is immediately eligible for the
        # optimistic re-probe.
        tighten(monkeypatch, timeout=5.0, retries=0, backoff=0.0, cooldown=0.0)
        workers = [start_worker(), start_worker()]
        coordinator = make_coordinator([w[1].url for w in workers])
        try:
            victim_service, victim_server, victim_thread = workers[0]
            port = victim_server.server_address[1]
            stop_worker(workers[0])
            coordinator.estimate_batch(WORKLOAD)
            assert coordinator.stats()["shards"]["healthy"] == 1
            # Resurrect a worker on the same port; the next dispatch is
            # the health probe and marks the member back up.
            service = ReliabilityService.from_dataset(
                "lastfm", "tiny", seed=SEED
            )
            server = create_server(service, port=port)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            workers[0] = (service, server, thread)
            coordinator.estimate_batch(
                BatchRequest(queries=(QuerySpec(2, 8, 500),))
            )
            assert coordinator.stats()["shards"]["healthy"] == 2
        finally:
            coordinator.close()
            for worker in workers:
                try:
                    stop_worker(worker)
                except Exception:
                    pass


class TestStructuredRejectionSurfacing:
    """The bugfix satellite: worker verdicts keep their status code."""

    def post(self, url, path, payload):
        request = urllib.request.Request(
            url + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_fingerprint_mismatch_is_409_not_500(self, tier):
        coordinator, _ = tier
        server = create_server(coordinator, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # Mutate the coordinator's graph only: the workers now serve
            # a stale fingerprint and reject every dispatch.
            status, body = self.post(
                server.url, "/v1/update", {"set_edges": [[0, 1, 0.5]]}
            )
            assert status == 200
            status, body = self.post(
                server.url,
                "/v1/batch",
                {"queries": [[0, 5, 320]], "samples": 320},
            )
            assert status == 409
            assert body["error"]["type"] == "FingerprintMismatchError"
            # Actionable message: names both graph versions.
            assert "re-sync" in body["error"]["message"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_coordinator_is_itself_a_valid_shard_worker(self, tier):
        coordinator, _ = tier
        server = create_server(coordinator, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            from repro.engine.cache import graph_fingerprint

            status, body = self.post(
                server.url,
                "/v1/shard/run",
                {
                    "queries": [[0, 5, 100]],
                    "start": 0,
                    "stop": 100,
                    "seed": SEED,
                    "fingerprint": graph_fingerprint(coordinator.graph),
                },
            )
            assert status == 200
            assert body["worlds_evaluated"] == 100
            assert len(body["hits"]) == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
