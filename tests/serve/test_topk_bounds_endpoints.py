"""HTTP coverage for ``POST /v1/topk`` and ``POST /v1/bounds``.

Both endpoints existed in ``ReliabilityService.ENDPOINTS`` (and the
CLI) since PR 4 but were never reachable over HTTP; routes are now read
off ``ENDPOINT_TABLE``.  These tests pin the served behaviour:
bit-identical agreement with the facade, strict unknown-key rejection,
structured errors, and stats counting.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import BoundsRequest, ReliabilityService, TopKRequest
from repro.serve import create_server


@pytest.fixture(scope="module")
def service():
    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
    yield service
    service.close()


@pytest.fixture(scope="module")
def server(service):
    http_server = create_server(service, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    thread.join(timeout=5)


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestTopKEndpoint:
    def test_round_trip_matches_facade(self, server, service):
        body = {"source": 0, "k": 3, "samples": 120, "seed": 11}
        status, payload = post(server, "/v1/topk", body)
        assert status == 200
        expected = service.topk(TopKRequest.from_dict(body)).to_dict()
        assert payload == expected
        assert len(payload["ranking"]) <= 3

    def test_unknown_key_is_structured_400(self, server):
        status, payload = post(
            server, "/v1/topk", {"source": 0, "k": 3, "sample": 10}
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"
        assert "sample" in payload["error"]["message"]

    def test_method_is_an_unknown_key(self, server):
        # Every top-k ranking is one row of the engine's world stream.
        status, payload = post(
            server, "/v1/topk", {"source": 0, "method": "bfs_sharing"}
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"
        assert "does not accept key(s) 'method'" in payload["error"]["message"]

    def test_get_is_405(self, server):
        status, payload = get(server, "/v1/topk")
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"

    def test_counted_in_stats(self, server):
        post(server, "/v1/topk", {"source": 0, "k": 2, "samples": 50})
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert payload["requests"].get("topk", 0) >= 1


class TestBoundsEndpoint:
    def test_round_trip_matches_facade(self, server, service):
        body = {"source": 0, "target": 5}
        status, payload = post(server, "/v1/bounds", body)
        assert status == 200
        expected = service.bounds(BoundsRequest.from_dict(body)).to_dict()
        assert payload == expected
        assert 0.0 <= payload["lower"] <= payload["upper"] <= 1.0

    def test_unknown_key_is_structured_400(self, server):
        status, payload = post(
            server, "/v1/bounds", {"source": 0, "target": 5, "samples": 10}
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"
        assert "samples" in payload["error"]["message"]

    def test_missing_target_is_structured_400(self, server):
        status, payload = post(server, "/v1/bounds", {"source": 0})
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"

    def test_out_of_range_node_is_structured_400(self, server):
        status, payload = post(
            server, "/v1/bounds", {"source": 0, "target": 10**9}
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"

    def test_counted_in_stats(self, server):
        post(server, "/v1/bounds", {"source": 0, "target": 3})
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert payload["requests"].get("bounds", 0) >= 1
