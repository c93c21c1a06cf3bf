"""Golden wire suite: the `/v1` documents, byte for byte.

One pinned request per typed endpoint is replayed over a real in-process
server against a fresh ``lastfm``/``tiny`` service (seed 3) and each
reply is compared with ``golden_wire.json`` — recorded at the commit
*before* the wire types became one generic parser/serialiser — as
``json.dumps`` text, so key order and float spelling are part of the
check.  Only wall-clock ``seconds`` values are normalised.  (The ``topk``
document was re-recorded since: its reliabilities moved, not its shape,
when top-k became a row of the engine's world stream.  So were three
parser messages — ``batch_integer_kernels``, ``warm_unknown_key`` and
``shard_run_unknown_key`` — when ``chunk_size`` / ``workers`` /
``kernels`` left the request bodies for service configuration; and
``topk`` and ``batch_integer_kernels`` once more when the top-k
``method`` and the batch ``sequential`` fields were deleted.)

The cases run in file order against one service: both recommends and the
``method="auto"`` batch come first (the router is still cold, so its
decision record carries no timings), the cached replay follows the batch
it replays, and the update — which changes the graph — comes last.

``ERRORS`` pins the other half of the contract the same way: one
malformed request per message the strict parser can produce, status and
wording included.

Re-record (only when the wire format changes on purpose)::

    PYTHONPATH=src python tests/api/test_wire_golden.py
"""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import (
    BatchRequest,
    QuerySpec,
    ReliabilityService,
    ShardRunRequest,
    ShardRunResponse,
    UpdateRequest,
)
from repro.serve import create_server

GOLDEN_PATH = Path(__file__).with_name("golden_wire.json")

#: The fingerprint of lastfm/tiny at dataset seed 3, version 0.
FINGERPRINT = "6bd63e2004d26a3ad9c16d4638c689e8"

BATCH = {
    "queries": [
        [0, 5, 200],
        {"source": 3, "target": 9, "samples": 150, "max_hops": 2},
        [0, 7],
        [0, 5, 200, None],
    ],
    "samples": 120,
    "seed": 11,
}

#: (case name, verb, target, body) in replay order.
CASES = [
    ("recommend_get", "GET",
     "/v1/recommend?samples=500&max_hops=3&memory_limited=true", None),
    ("recommend_post", "POST", "/v1/recommend",
     {"lowest_variance": True, "latency_tolerant": True}),
    ("batch_auto", "POST", "/v1/batch",
     {"queries": [[0, 5, 200], [3, 9, 150, 2]], "method": "auto"}),
    ("estimate", "POST", "/v1/estimate",
     {"source": 0, "target": 5, "samples": 300, "method": "rhh", "seed": 5}),
    ("batch", "POST", "/v1/batch", BATCH),
    ("batch_cached_replay", "POST", "/v1/batch", BATCH),
    ("batch_per_query_loop", "POST", "/v1/batch",
     {"queries": [[0, 5, 100]], "method": "rss", "seed": 2}),
    ("warm", "POST", "/v1/warm",
     {"queries": [[0, 5, 200], [1, 8, 64], [1, 8, 64]], "seed": 11}),
    ("topk", "POST", "/v1/topk",
     {"source": 0, "k": 3, "samples": 200, "seed": 4}),
    ("bounds", "POST", "/v1/bounds", {"source": 0, "target": 5}),
    ("shard_run", "POST", "/v1/shard/run",
     {"queries": [[0, 5, 200], [3, 9, 150, 2]], "start": 64, "stop": 192,
      "seed": 11, "fingerprint": FINGERPRINT, "chunk_size": 64}),
    ("update", "POST", "/v1/update",
     {"set_edges": [[0, 5, 0.9], [0, 3, 0.25]], "remove_edges": [[0, 2]]}),
]

OK_QUERIES = [[0, 5, 100]]

#: Malformed requests, one per parser message; same tuple shape as CASES.
ERRORS = [
    ("estimate_not_an_object", "POST", "/v1/estimate", [0, 5]),
    ("estimate_unknown_key", "POST", "/v1/estimate",
     {"source": 0, "target": 5, "smaples": 10, "extra": 1}),
    ("estimate_missing_target", "POST", "/v1/estimate", {"source": 0}),
    ("estimate_string_samples", "POST", "/v1/estimate",
     {"source": 0, "target": 5, "samples": "many"}),
    ("estimate_float_seed", "POST", "/v1/estimate",
     {"source": 0, "target": 5, "seed": 1.5}),
    ("estimate_integer_method", "POST", "/v1/estimate",
     {"source": 0, "target": 5, "method": 5}),
    ("batch_missing_queries", "POST", "/v1/batch", {"method": "mc"}),
    ("batch_integer_kernels", "POST", "/v1/batch",
     {"queries": OK_QUERIES, "kernels": 5}),
    ("batch_boolean_samples", "POST", "/v1/batch",
     {"queries": OK_QUERIES, "samples": True}),
    ("batch_string_queries", "POST", "/v1/batch", {"queries": "0 5 100"}),
    ("batch_scalar_entry", "POST", "/v1/batch", {"queries": [[0, 5], 7]}),
    ("batch_long_entry", "POST", "/v1/batch",
     {"queries": [[0, 5, 100, 2, 9]]}),
    ("batch_null_source", "POST", "/v1/batch",
     {"queries": [[None, 5, 100]]}),
    ("batch_object_missing_target", "POST", "/v1/batch",
     {"queries": [[0, 5], {"source": 1}]}),
    ("batch_object_unknown_key", "POST", "/v1/batch",
     {"queries": [{"sorce": 1, "target": 2}]}),
    ("batch_object_string_source", "POST", "/v1/batch",
     {"queries": [{"source": "a", "target": 2}]}),
    ("batch_object_float_hops", "POST", "/v1/batch",
     {"queries": [{"source": 1, "target": 2, "max_hops": 2.5}]}),
    ("warm_missing_queries", "POST", "/v1/warm", {}),
    ("warm_unknown_key", "POST", "/v1/warm",
     {"queries": OK_QUERIES, "method": "mc"}),
    ("topk_missing_source", "POST", "/v1/topk", {"k": 3}),
    ("topk_string_k", "POST", "/v1/topk", {"source": 0, "k": "3"}),
    ("bounds_missing_source", "POST", "/v1/bounds", {"target": 5}),
    ("bounds_not_an_object", "POST", "/v1/bounds", "0 5"),
    ("update_empty", "POST", "/v1/update", {}),
    ("update_unknown_key", "POST", "/v1/update", {"add_edges": []}),
    ("update_set_not_a_list", "POST", "/v1/update", {"set_edges": "0 5 0.9"}),
    ("update_set_short_entry", "POST", "/v1/update",
     {"set_edges": [[0, 5, 0.9], [0, 5]]}),
    ("update_set_string_probability", "POST", "/v1/update",
     {"set_edges": [[0, 5, "0.9"]]}),
    ("update_set_boolean_source", "POST", "/v1/update",
     {"set_edges": [[True, 5, 0.9]]}),
    ("update_remove_not_a_list", "POST", "/v1/update", {"remove_edges": 3}),
    ("update_remove_long_entry", "POST", "/v1/update",
     {"remove_edges": [[0, 5, 0.9]]}),
    ("update_remove_float_target", "POST", "/v1/update",
     {"remove_edges": [[0, 5.0]]}),
    ("shard_run_missing_seed", "POST", "/v1/shard/run",
     {"queries": OK_QUERIES, "start": 0, "stop": 64}),
    ("shard_run_empty_fingerprint", "POST", "/v1/shard/run",
     {"queries": OK_QUERIES, "start": 0, "stop": 64, "seed": 1,
      "fingerprint": ""}),
    ("shard_run_string_start", "POST", "/v1/shard/run",
     {"queries": OK_QUERIES, "start": "0", "stop": 64, "seed": 1,
      "fingerprint": FINGERPRINT}),
    ("shard_run_unknown_key", "POST", "/v1/shard/run",
     {"queries": OK_QUERIES, "start": 0, "stop": 64, "seed": 1,
      "fingerprint": FINGERPRINT, "method": "mc"}),
    ("recommend_string_boolean", "POST", "/v1/recommend",
     {"memory_limited": "yes"}),
    ("recommend_unknown_key", "POST", "/v1/recommend", {"fast": True}),
    ("recommend_get_bad_boolean", "GET",
     "/v1/recommend?memory_limited=maybe", None),
    ("recommend_get_bad_integer", "GET", "/v1/recommend?samples=abc", None),
    ("recommend_get_unknown_key", "GET", "/v1/recommend?fast=1", None),
]


def _normalised(document):
    """``document`` with every wall-clock ``seconds`` value zeroed."""
    if isinstance(document, dict):
        return {
            key: 0.0 if key == "seconds" else _normalised(value)
            for key, value in document.items()
        }
    if isinstance(document, list):
        return [_normalised(item) for item in document]
    return document


def replay():
    """Run every case against a fresh server; ``{name: [status, document]}``.

    ``workers=1`` pins the recorded configuration: worker count never
    moves an estimate, but ``/v1/update`` honestly reports whether a pool
    was retired, so ``REPRO_ENGINE_WORKERS`` must not reach this service.
    """
    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3, workers=1)
    # rewarm_top=0: the update case must not race a background re-warm.
    server = create_server(service, port=0, rewarm_top=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    documents = {}
    try:
        for name, _verb, target, body in CASES + ERRORS:
            data = None if body is None else json.dumps(body).encode("utf-8")
            request = urllib.request.Request(server.url + target, data=data)
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    reply = response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                reply = error.code, json.loads(error.read())
            documents[name] = [reply[0], _normalised(reply[1])]
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)
    return documents


@pytest.fixture(scope="module")
def replayed():
    return replay()


@pytest.mark.parametrize("name", [case[0] for case in CASES + ERRORS])
def test_reply_is_byte_identical_to_the_recording(replayed, name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert json.dumps(replayed[name]) == json.dumps(golden[name])


def test_statuses(replayed):
    assert {replayed[case[0]][0] for case in CASES} == {200}
    assert {replayed[case[0]][0] for case in ERRORS} == {400}


def test_cached_replay_sampled_nothing(replayed):
    replayed_batch = replayed["batch_cached_replay"][1]
    assert replayed_batch["engine"]["worlds_sampled"] == 0
    assert all(row["cached"] for row in replayed_batch["results"])


def test_every_typed_http_endpoint_has_a_case():
    from repro.api.types import ENDPOINT_TABLE

    covered = {(verb, target.partition("?")[0]) for _, verb, target, _ in CASES}
    for endpoint in ENDPOINT_TABLE:
        if endpoint.request is not None:
            for verb in endpoint.verbs:
                assert (verb, endpoint.path) in covered, endpoint.name


QUERIES = (QuerySpec(0, 5, 200, None), QuerySpec(3, 9, None, 2))

ROUND_TRIPS = [
    BatchRequest(
        queries=QUERIES, method="bfs_sharing", samples=150, seed=7,
        max_hops=4,
    ),
    ShardRunRequest(
        queries=QUERIES, start=64, stop=192, seed=11,
        fingerprint=FINGERPRINT, samples=300, max_hops=3, chunk_size=64,
    ),
    ShardRunResponse(
        hits=(3, 0), start=64, stop=192, worlds_evaluated=128, sweeps=2,
        seed=11, fingerprint=FINGERPRINT, seconds=0.25, query_count=2,
    ),
    UpdateRequest(
        set_edges=((0, 5, 0.9), (0, 1, 0.25)), remove_edges=((3, 9),)
    ),
]


@pytest.mark.parametrize(
    "value", ROUND_TRIPS, ids=lambda value: type(value).__name__
)
def test_to_dict_from_dict_round_trip(value):
    document = json.loads(json.dumps(value.to_dict()))
    assert type(value).from_dict(document) == value


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(replay(), indent=2) + "\n", encoding="utf-8"
    )
