"""Tests for the shard-worker facade hook: ``shard_run``.

``ReliabilityService.shard_run`` is what a worker executes for
``POST /v1/shard/run``: evaluate a world sub-range against the pinned
graph version and return raw integer hit counts with provenance.  The
fingerprint gate is the tier's only runtime defence against mixed
graph versions, so its rejection shape (409, structured, actionable)
is pinned here too.
"""

import numpy as np
import pytest

from repro.api import (
    BatchRequest,
    FingerprintMismatchError,
    InvalidQueryError,
    QuerySpec,
    ReliabilityService,
    ShardRunRequest,
    ShardRunResponse,
    UpdateRequest,
)
from repro.api import service as service_module
from repro.engine.batch import BatchEngine
from repro.engine.cache import graph_fingerprint

SEED = 3

QUERIES = (
    QuerySpec(0, 5, 300),
    QuerySpec(3, 9, 250),
    QuerySpec(0, 7, 200, 2),
)


@pytest.fixture(scope="module")
def service():
    with ReliabilityService.from_dataset("lastfm", "tiny", seed=SEED) as svc:
        yield svc


def shard_request(service, start, stop, **overrides):
    fields = {
        "queries": QUERIES,
        "start": start,
        "stop": stop,
        "seed": SEED,
        "fingerprint": graph_fingerprint(service.graph),
    }
    fields.update(overrides)
    return ShardRunRequest(**fields)


class TestShardRunEvaluation:
    def test_matches_run_range_bit_for_bit(self, service):
        response = service.shard_run(shard_request(service, 0, 300))
        engine = BatchEngine(service.graph, seed=SEED, workers=1)
        oracle = engine.run_range(
            [(0, 5, 300), (3, 9, 250), (0, 7, 200, 2)], 0, 300
        )
        assert list(response.hits) == [int(h) for h in oracle.hits]
        assert response.sweeps == oracle.sweeps
        assert response.worlds_evaluated == oracle.worlds_evaluated
        assert response.fingerprint == engine.fingerprint
        assert response.query_count == len(QUERIES)

    def test_sweeps_at_the_served_chunk_size(self, service, monkeypatch):
        # No request names a chunk size: the worker's is the served one,
        # the same constant the coordinator partitions by.
        monkeypatch.setattr(service_module, "DEFAULT_CHUNK_SIZE", 64)
        response = service.shard_run(shard_request(service, 0, 300))
        oracle = BatchEngine(
            service.graph, seed=SEED, chunk_size=64, workers=1
        ).run_range([(0, 5, 300), (3, 9, 250), (0, 7, 200, 2)], 0, 300)
        assert list(response.hits) == [int(h) for h in oracle.hits]
        assert response.sweeps == oracle.sweeps

    def test_subranges_sum_to_full_range(self, service):
        low = service.shard_run(shard_request(service, 0, 150))
        high = service.shard_run(shard_request(service, 150, 300))
        full = service.shard_run(shard_request(service, 0, 300))
        merged = np.asarray(low.hits) + np.asarray(high.hits)
        np.testing.assert_array_equal(merged, np.asarray(full.hits))
        assert low.sweeps + high.sweeps >= full.sweeps

    def test_never_caches_partial_counts(self, service):
        before = dict(service.stats()["cache"])
        service.shard_run(shard_request(service, 0, 120))
        after = service.stats()["cache"]
        assert after["size"] == before["size"]

    def test_batch_results_unaffected_by_shard_runs(self, service):
        request = BatchRequest(queries=QUERIES, seed=SEED)
        reference = service.estimate_batch(request)
        service.shard_run(shard_request(service, 17, 93))
        replay = service.estimate_batch(request)
        assert [r.estimate for r in replay.results] == [
            r.estimate for r in reference.results
        ]


class TestShardRunRejections:
    def test_fingerprint_mismatch_is_409(self, service):
        request = shard_request(service, 0, 100, fingerprint="deadbeef" * 8)
        with pytest.raises(FingerprintMismatchError) as excinfo:
            service.shard_run(request)
        assert excinfo.value.http_status == 409
        assert graph_fingerprint(service.graph) in str(excinfo.value)

    def test_mismatch_after_update_names_both_versions(self):
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=SEED
        ) as svc:
            stale = graph_fingerprint(svc.graph)
            svc.update(UpdateRequest(set_edges=((0, 1, 0.5),)))
            request = ShardRunRequest(
                queries=QUERIES,
                start=0,
                stop=50,
                seed=SEED,
                fingerprint=stale,
            )
            with pytest.raises(FingerprintMismatchError, match=stale[:16]):
                svc.shard_run(request)

    def test_bad_range_rejected(self, service):
        with pytest.raises(InvalidQueryError):
            service.shard_run(shard_request(service, -5, 100))
        with pytest.raises(InvalidQueryError):
            service.shard_run(shard_request(service, 100, 50))


class TestShardRunWireTypes:
    def test_request_roundtrip(self, service):
        request = shard_request(service, 5, 105, samples=300, max_hops=3)
        assert ShardRunRequest.from_dict(request.to_dict()) == request

    def test_request_requires_fingerprint(self):
        with pytest.raises(InvalidQueryError, match="fingerprint"):
            ShardRunRequest.from_dict(
                {"queries": [[0, 5, 100]], "start": 0, "stop": 50, "seed": 3}
            )

    def test_request_rejects_unknown_keys(self):
        with pytest.raises(InvalidQueryError, match="does not accept"):
            ShardRunRequest.from_dict(
                {
                    "queries": [[0, 5, 100]],
                    "start": 0,
                    "stop": 50,
                    "seed": 3,
                    "fingerprint": "ab",
                    "sharding": True,
                }
            )

    def test_response_roundtrip(self, service):
        response = service.shard_run(shard_request(service, 0, 80))
        document = response.to_dict()
        assert document["hits"] == list(response.hits)
        assert ShardRunResponse.from_dict(document) == response

    def test_response_rejects_non_integer_hits(self):
        with pytest.raises(InvalidQueryError):
            ShardRunResponse.from_dict(
                {
                    "hits": [1, 2.5],
                    "start": 0,
                    "stop": 10,
                    "worlds_evaluated": 10,
                    "sweeps": 1,
                    "seed": 3,
                    "fingerprint": "ab",
                    "seconds": 0.1,
                    "query_count": 2,
                }
            )
