"""Tests for the HTTP serving layer.

The server is driven in-process (a real ThreadingHTTPServer on an
ephemeral port, real sockets through ``urllib``): concurrent clients
must observe bit-identical estimates, malformed requests must come back
as structured 400s, and the health/stats endpoints must round-trip.
A subprocess test drives the actual ``repro serve`` command against the
actual ``repro batch`` CLI — the serving acceptance criterion.
"""

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import ReliabilityService
from repro.api.types import ENDPOINT_TABLE
from repro.cli import main
from repro.serve import create_server

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def server():
    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
    http_server = create_server(service, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    service.close()
    thread.join(timeout=5)


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(server, path, payload, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        server.url + path,
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _connection(server):
    return http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )


def _exchange(connection, verb, path, body=None):
    """One request on ``connection``: (response, decoded JSON payload)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {} if data is None else {"Content-Type": "application/json"}
    connection.request(verb, path, data, headers)
    response = connection.getresponse()
    return response, json.loads(response.read())


BATCH_BODY = {"queries": [[0, 5, 200], [3, 9, 150], [0, 7, 100, 2]]}


class TestHealthAndStats:
    def test_health_round_trip(self, server):
        status, payload = get(server, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["dataset"] == "lastfm"
        assert payload["nodes"] > 0

    def test_stats_round_trip_counts_requests(self, server):
        post(server, "/v1/estimate", {"source": 0, "target": 5, "samples": 50})
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert payload["requests"].get("estimate", 0) >= 1
        assert "cache" in payload
        assert payload["uptime_seconds"] >= 0

    def test_unknown_path_is_structured_404(self, server):
        status, payload = get(server, "/v1/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"
        status, payload = post(server, "/v1/nope", {})
        assert status == 404


class TestEstimateEndpoint:
    def test_matches_the_facade(self, server):
        status, payload = post(
            server, "/v1/estimate",
            {"source": 0, "target": 5, "samples": 200},
        )
        assert status == 200
        assert payload["method_display"] == "MC"
        assert 0.0 <= payload["estimate"] <= 1.0
        # Replaying the request replays the estimate bit-for-bit.
        _, again = post(
            server, "/v1/estimate",
            {"source": 0, "target": 5, "samples": 200},
        )
        assert again["estimate"] == payload["estimate"]


class TestBatchEndpoint:
    def test_identical_json_to_the_cli(self, server, tmp_path, capsys):
        status, served = post(server, "/v1/batch", BATCH_BODY)
        assert status == 200
        queries = tmp_path / "queries.txt"
        queries.write_text("0 5 200\n3 9 150\n0 7 100 2\n", encoding="utf-8")
        assert main(
            ["batch", "--queries", str(queries), "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3"]
        ) == 0
        cli = json.loads(capsys.readouterr().out)
        served["engine"].pop("seconds")
        cli["engine"].pop("seconds")
        # The long-lived server may already hold the results in cache;
        # provenance and counters differ, the estimates never do.
        served["engine"].pop("worlds_sampled")
        cli["engine"].pop("worlds_sampled")
        for report in (served, cli):
            report["engine"].pop("sweeps")
            report["engine"].pop("cache_hits")
            report["engine"].pop("cache_misses")
            for row in report["results"]:
                row.pop("cached")
        assert served == cli

    def test_second_request_served_from_cache(self, server):
        body = {"queries": [[1, 6, 128], [2, 8, 128]]}
        _, first = post(server, "/v1/batch", body)
        status, second = post(server, "/v1/batch", body)
        assert status == 200
        assert second["engine"]["worlds_sampled"] == 0
        assert [r["cached"] for r in second["results"]] == [True, True]
        assert [r["estimate"] for r in first["results"]] == [
            r["estimate"] for r in second["results"]
        ]


class TestWarmEndpoint:
    def test_warm_then_batch_samples_nothing(self, server):
        body = {"queries": [[4, 11, 96], [5, 12, 96]]}
        status, warm = post(server, "/v1/warm", body)
        assert status == 200
        assert warm["newly_written"] + warm["already_warm"] == 2
        status, batch = post(server, "/v1/batch", body | {"samples": 96})
        assert status == 200
        assert batch["engine"]["worlds_sampled"] == 0


class TestMalformedRequests:
    def test_invalid_json_body(self, server):
        status, payload = post(
            server, "/v1/batch", None, raw=b"this is not json"
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"
        assert "not valid JSON" in payload["error"]["message"]

    def test_empty_body(self, server):
        status, payload = post(server, "/v1/batch", None, raw=b"")
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"

    def test_missing_queries_key(self, server):
        status, payload = post(server, "/v1/batch", {"method": "mc"})
        assert status == 400
        assert "queries" in payload["error"]["message"]

    def test_unknown_request_key(self, server):
        status, payload = post(
            server, "/v1/batch", {"queries": [[0, 5]], "turbo": True}
        )
        assert status == 400
        assert "'turbo'" in payload["error"]["message"]

    def test_malformed_entry_names_its_position(self, server):
        status, payload = post(server, "/v1/batch", {"queries": [[0]]})
        assert status == 400
        assert "entry 0" in payload["error"]["message"]

    def test_unknown_estimator_is_structured(self, server):
        status, payload = post(
            server, "/v1/batch",
            {"queries": [[0, 5, 100]], "method": "quantum"},
        )
        assert status == 400
        assert payload["error"]["type"] == "UnknownEstimatorError"

    def test_out_of_range_query_names_its_position(self, server):
        status, payload = post(
            server, "/v1/batch", {"queries": [[0, 5, 100], [0, 9999, 100]]}
        )
        assert status == 400
        assert "query 1" in payload["error"]["message"]

    def test_estimate_missing_fields(self, server):
        status, payload = post(server, "/v1/estimate", {"source": 0})
        assert status == 400
        assert "'source' and 'target'" in payload["error"]["message"]

    @pytest.mark.parametrize("query", ["max_hops=-1", "samples=-5"])
    def test_recommend_non_positive_shape_is_structured_400(self, server, query):
        status, payload = get(server, f"/v1/recommend?{query}")
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"
        assert query.partition("=")[0] in payload["error"]["message"]


class TestConcurrentClients:
    def test_concurrent_batches_bit_identical_to_the_cli(
        self, server, tmp_path, capsys
    ):
        """N threads hitting /v1/batch == `repro batch` at equal seed."""
        queries = tmp_path / "queries.txt"
        queries.write_text("0 5 200\n3 9 150\n0 7 100 2\n", encoding="utf-8")
        assert main(
            ["batch", "--queries", str(queries), "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3"]
        ) == 0
        expected = [
            row["estimate"]
            for row in json.loads(capsys.readouterr().out)["results"]
        ]

        results = [None] * 8
        errors = []

        def client(slot):
            try:
                status, payload = post(server, "/v1/batch", BATCH_BODY)
                assert status == 200
                results[slot] = [
                    row["estimate"] for row in payload["results"]
                ]
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(result == expected for result in results)


class TestServeCommand:
    """The acceptance path: a real `repro serve` process over sockets."""

    @pytest.fixture
    def served(self, tmp_path):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "lastfm",
             "--scale", "tiny", "--seed", "3", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=environment,
            cwd=tmp_path,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://\S+", banner)
            assert match, f"no URL in serve banner: {banner!r}"
            endpoints = process.stdout.readline()
            yield match.group(0), environment, tmp_path, endpoints
        finally:
            process.terminate()
            process.wait(timeout=30)

    def test_banner_lists_exactly_the_served_rows(self, served):
        *_, endpoints = served
        announced = re.findall(r"([A-Z|]+) (/v1/\S+?),?\s", endpoints)
        assert announced == [
            ("|".join(endpoint.verbs), endpoint.path)
            for endpoint in ENDPOINT_TABLE
            if endpoint.verbs
        ]

    def test_serve_matches_repro_batch_and_caches(self, served):
        url, environment, tmp_path, _ = served
        queries = tmp_path / "queries.txt"
        queries.write_text("0 5 200\n3 9 150\n", encoding="utf-8")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "batch", "--queries",
             str(queries), "--dataset", "lastfm", "--scale", "tiny",
             "--seed", "3"],
            capture_output=True,
            text=True,
            env=environment,
            cwd=tmp_path,
            timeout=180,
        )
        assert completed.returncode == 0, completed.stderr
        cli = json.loads(completed.stdout)

        body = json.dumps(
            {"queries": [[0, 5, 200], [3, 9, 150]]}
        ).encode("utf-8")
        request = urllib.request.Request(url + "/v1/batch", data=body)
        with urllib.request.urlopen(request, timeout=60) as response:
            served_report = json.loads(response.read())
        assert [r["estimate"] for r in served_report["results"]] == [
            r["estimate"] for r in cli["results"]
        ]

        request = urllib.request.Request(url + "/v1/batch", data=body)
        with urllib.request.urlopen(request, timeout=60) as response:
            again = json.loads(response.read())
        assert again["engine"]["worlds_sampled"] == 0
        assert [r["estimate"] for r in again["results"]] == [
            r["estimate"] for r in cli["results"]
        ]


class TestMethodRouting:
    def test_get_on_post_endpoint_is_405_with_allow(self, server):
        status, payload = get(server, "/v1/batch")
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"
        status, payload = get(server, "/v1/estimate")
        assert status == 405

    def test_post_on_get_endpoint_is_405(self, server):
        status, payload = post(server, "/v1/health", {})
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"

    @pytest.mark.parametrize(
        "path,status,kind",
        [("/v1/stats", 405, "MethodNotAllowed"), ("/v1/nope", 404, "NotFound")],
    )
    def test_refused_body_does_not_desync_the_connection(
        self, server, path, status, kind
    ):
        # The refused body is never read; left on a kept-alive socket it
        # would be parsed as the start of the next request.
        connection = _connection(server)
        try:
            response, payload = _exchange(
                connection, "POST", path, {"queries": [[0, 5, 100]]}
            )
            assert (response.status, payload["error"]["type"]) == (status, kind)
            assert response.getheader("Connection") == "close"
            response, payload = _exchange(connection, "GET", "/v1/health")
            assert (response.status, payload["status"]) == (200, "ok")
        finally:
            connection.close()

    def test_unread_get_body_does_not_desync_the_connection(self, server):
        # A routed GET never reads a body either.
        connection = _connection(server)
        try:
            response, payload = _exchange(
                connection, "GET", "/v1/health", {"verbose": True}
            )
            assert (response.status, payload["status"]) == (200, "ok")
            assert response.getheader("Connection") == "close"
            response, payload = _exchange(connection, "GET", "/v1/health")
            assert (response.status, payload["status"]) == (200, "ok")
        finally:
            connection.close()

    @pytest.mark.parametrize("verb", ["PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"])
    def test_other_verbs_get_the_structured_405(self, server, verb):
        connection = _connection(server)
        try:
            if verb == "HEAD":
                # No body either way: the connection stays alive, so a
                # stray reply body would be read as the health reply.
                connection.request(verb, "/v1/batch")
                response = connection.getresponse()
                assert response.read() == b""
                assert response.getheader("Content-Type") == "application/json"
            else:
                response, payload = _exchange(
                    connection, verb, "/v1/batch", {"queries": [[0, 5, 100]]}
                )
                assert payload["error"]["type"] == "MethodNotAllowed"
            assert response.status == 405
            assert response.getheader("Allow") == "POST"
            response, payload = _exchange(connection, "GET", "/v1/health")
            assert response.status == 200
        finally:
            connection.close()

    def test_chunked_body_is_refused_and_closes_the_connection(self, server):
        # A chunked body is not decoded; left on the kept-alive socket,
        # its chunk-size line would be parsed as the next request.
        body = json.dumps(BATCH_BODY).encode("utf-8")
        chunks = f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        headers = b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n"
        post = b"POST /v1/batch HTTP/1.1\r\nHost: localhost\r\n" + headers + b"\r\n"
        health = b"GET /v1/health HTTP/1.1\r\nHost: localhost\r\n\r\n"
        reply = b""
        address = ("127.0.0.1", server.server_address[1])
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(post + chunks + health)
            try:
                while True:
                    data = sock.recv(1 << 16)
                    if not data:
                        break
                    reply += data
            except ConnectionResetError:  # the unread chunks reset it
                pass
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        payload = json.loads(rest[:length])
        assert payload["error"]["type"] == "InvalidQueryError"
        assert "Content-Length" in payload["error"]["message"]
        assert rest[length:] == b""  # nothing parsed from the chunks


class TestOversizedBody:
    def test_oversized_body_gets_structured_413(self, server):
        from repro.serve import MAX_BODY_BYTES

        # The server refuses by Content-Length and closes the
        # connection; the client still receives the structured error.
        request = urllib.request.Request(
            server.url + "/v1/batch",
            data=b"x" * (MAX_BODY_BYTES + 1),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                status, payload = response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            status, payload = error.code, json.loads(error.read())
        assert status == 413
        assert payload["error"]["type"] == "PayloadTooLargeError"
        assert "exceeds" in payload["error"]["message"]
        # The server is still healthy for the next (fresh) connection.
        status, _ = get(server, "/v1/health")
        assert status == 200


class TestPersistentCacheAcrossThreads:
    def test_handler_threads_reach_the_sidecar(self, tmp_path):
        """The sidecar opened on the main thread must serve HTTP threads.

        Regression test: sqlite3's default check_same_thread=True made
        the first handler-thread request silently disable persistence.
        """
        cache_dir = str(tmp_path / "cache")
        service = ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        )
        http_server = create_server(service, port=0)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        try:
            body = {"queries": [[0, 5, 120], [3, 9, 120]]}
            status, payload = post(http_server, "/v1/batch", body)
            assert status == 200
            assert payload["engine"]["cache"]["persistent"] is True
            assert payload["engine"]["cache"]["disk_size"] == 2
            status, warm = post(http_server, "/v1/warm", body)
            assert status == 200
            assert warm["persistent"] is True
            assert warm["already_warm"] == 2
        finally:
            http_server.shutdown()
            http_server.server_close()
            service.close()
            thread.join(timeout=5)
        # A fresh service over the same sidecar warm-starts from disk.
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as reopened:
            from repro.api import BatchRequest, QuerySpec

            response = reopened.estimate_batch(
                BatchRequest(
                    queries=(QuerySpec(0, 5, 120), QuerySpec(3, 9, 120))
                )
            )
            assert response.engine.worlds_sampled == 0


class TestQueryStringRouting:
    """GET routing matches the path, not the raw request target."""

    def test_health_with_query_string(self, server):
        status, payload = get(server, "/v1/health?verbose=1")
        assert status == 200
        assert payload["status"] == "ok"

    def test_stats_with_query_string(self, server):
        status, payload = get(server, "/v1/stats?pretty=1&x=2")
        assert status == 200
        assert "requests" in payload

    def test_post_endpoint_with_query_string(self, server):
        status, payload = post(
            server, "/v1/estimate?trace=1",
            {"source": 0, "target": 5, "samples": 50},
        )
        assert status == 200
        assert 0.0 <= payload["estimate"] <= 1.0

    def test_unknown_path_with_query_string_still_404s(self, server):
        status, payload = get(server, "/v1/nope?x=1")
        assert status == 404
        # The error names the path, not the query.
        assert payload["error"]["message"].endswith("/v1/nope")

    def test_unknown_parameter_is_named_whatever_its_value(self, server):
        # Only the request's own fields are typed; any other key reaches
        # from_dict as sent, which names it.
        status, payload = get(server, "/v1/recommend?fast=abc")
        assert status == 400
        assert "does not accept key(s) 'fast'" in payload["error"]["message"]


class TestWildcardBindUrl:
    def test_url_substitutes_loopback_for_wildcard_host(self):
        service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
        http_server = create_server(service, host="0.0.0.0", port=0)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        try:
            assert http_server.url.startswith("http://127.0.0.1:")
            status, payload = get(http_server, "/v1/health")
            assert status == 200
            assert payload["status"] == "ok"
        finally:
            http_server.shutdown()
            http_server.server_close()
            service.close()
            thread.join(timeout=5)


class TestInternalErrorPath:
    """An unexpected exception answers a clean 500 and closes cleanly."""

    def test_500_closes_the_connection_and_keeps_serving(
        self, server, monkeypatch
    ):
        import http.client

        def explode(request):
            raise RuntimeError("synthetic failure for the 500 path")

        monkeypatch.setattr(server.service, "estimate", explode)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            body = json.dumps(
                {"source": 0, "target": 5, "samples": 10}
            ).encode("utf-8")
            connection.request(
                "POST", "/v1/estimate", body,
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 500
            assert payload["error"]["type"] == "InternalError"
            # The handler cannot resume keep-alive after an arbitrary
            # failure; it must *say so* instead of resetting the socket.
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        monkeypatch.undo()
        # The server survived and serves fresh connections.
        status, payload = get(server, "/v1/health")
        assert status == 200
        status, payload = post(
            server, "/v1/estimate", {"source": 0, "target": 5, "samples": 50}
        )
        assert status == 200

    def test_get_500_closes_the_connection_and_keeps_serving(
        self, server, monkeypatch
    ):
        import http.client

        def explode():
            raise RuntimeError("synthetic failure for the GET 500 path")

        monkeypatch.setattr(server.service, "stats", explode)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", "/v1/stats")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 500
            assert payload["error"]["type"] == "InternalError"
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        monkeypatch.undo()
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert "requests" in payload
