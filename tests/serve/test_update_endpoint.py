"""Tests for ``POST /v1/update``: live mutation over real sockets.

Three layers: endpoint semantics on an in-process server, a mid-traffic
hammer asserting every response is bit-identical to the sequential
oracle *of the version that answered it* (the fingerprint in the engine
report is the provenance), and a subprocess acceptance test driving the
actual ``repro serve`` command through an update round trip including
the re-warm that precedes the update's reply.
"""

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import ReliabilityService
from repro.api.service import DEFAULT_REWARM_TOP
from repro.core.mutation import apply_update
from repro.engine.batch import BatchEngine
from repro.engine.cache import graph_fingerprint
from repro.serve import create_server
from repro.serve import server as server_module

REPO_ROOT = Path(__file__).resolve().parents[2]

SEED = 3

QUERIES = [[0, 5, 200], [3, 9, 150]]
RESOLVED = [(0, 5, 200, None), (3, 9, 150, None)]


@pytest.fixture
def served(monkeypatch):
    # No re-warm: these tests count the successor's misses.
    monkeypatch.setattr(server_module, "DEFAULT_REWARM_TOP", 0)
    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=SEED)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


def post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return json.loads(response.read())


def first_edge(graph):
    source, target, probability = next(iter(graph.iter_edges()))
    return int(source), int(target), float(probability)


def sequential_oracle(graph):
    return [
        float(estimate)
        for estimate in BatchEngine(graph, seed=SEED)
        .run_sequential(RESOLVED)
        .estimates
    ]


class TestUpdateEndpoint:
    def test_a_failed_rewarm_still_answers_the_update(
        self, served, monkeypatch, capsys
    ):
        # The re-warm runs before the reply; its failure must not turn a
        # published update into a 500.
        def explode(limit):
            raise RuntimeError("re-warm exploded")

        monkeypatch.setattr(server_module, "DEFAULT_REWARM_TOP", 8)
        monkeypatch.setattr(served.service, "rewarm", explode)
        u, v, _ = first_edge(served.service.graph)
        status, update = post(
            served, "/v1/update", {"set_edges": [[u, v, 0.5]]}
        )
        assert status == 200
        assert update["version"] == 1
        assert get(served, "/v1/stats")["graph"]["version"] == 1
        assert "re-warm exploded" in capsys.readouterr().err

    def test_round_trip_updates_version_and_invalidates(self, served):
        service = served.service
        u, v, _ = first_edge(service.graph)
        before = graph_fingerprint(service.graph)

        _, warm = post(served, "/v1/batch", {"queries": QUERIES})
        assert warm["engine"]["fingerprint"] == before

        status, update = post(
            served, "/v1/update", {"set_edges": [[u, v, 0.5]]}
        )
        assert status == 200
        assert update["previous_fingerprint"] == before
        assert update["fingerprint"] != before
        assert update["version"] == 1
        assert update["edges_set"] == 1
        assert update["structural"] is False

        # Stats expose the new version...
        stats = get(served, "/v1/stats")
        assert stats["graph"]["fingerprint"] == update["fingerprint"]
        assert stats["graph"]["version"] == 1
        assert stats["requests"]["update"] == 1

        # ...old keys miss, and the answers are bit-identical to a
        # fresh sequential oracle over the mutated graph.
        status, after = post(served, "/v1/batch", {"queries": QUERIES})
        assert after["engine"]["fingerprint"] == update["fingerprint"]
        assert after["engine"]["cache_hits"] == 0
        assert [row["estimate"] for row in after["results"]] == (
            sequential_oracle(service.graph)
        )

    def test_structural_update_round_trip(self, served):
        u, v, _ = first_edge(served.service.graph)
        status, update = post(
            served, "/v1/update", {"remove_edges": [[u, v]]}
        )
        assert status == 200
        assert update["edges_removed"] == 1
        assert update["structural"] is True

    def test_invalid_update_is_structured_400(self, served):
        status, payload = post(
            served, "/v1/update", {"remove_edges": [[999999, 0]]}
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidQueryError"

    def test_empty_update_rejected(self, served):
        status, payload = post(served, "/v1/update", {})
        assert status == 400
        assert "at least one" in payload["error"]["message"]

    def test_unknown_key_rejected(self, served):
        status, payload = post(
            served, "/v1/update", {"set_edges": [], "flush": True}
        )
        assert status == 400
        assert "'flush'" in payload["error"]["message"]


class TestContentLengthGuards:
    def test_negative_content_length_is_structured_400(self, served):
        host, port = served.server_address[:2]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/batch")
            connection.putheader("Content-Length", "-5")
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["type"] == "InvalidQueryError"
            assert "non-negative" in payload["error"]["message"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        # The server survived the malformed header.
        assert get(served, "/v1/health")["status"] == "ok"

    def test_a_lowered_cap_is_a_413(self, served, monkeypatch):
        # The cap is read per request, so a running server follows it.
        default = server_module.MAX_BODY_BYTES
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        status, payload = post(
            served, "/v1/batch", {"queries": [[0, 5, 100]] * 40}
        )
        assert status == 413
        assert payload["error"]["type"] == "PayloadTooLargeError"
        assert "64-byte limit" in payload["error"]["message"]
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", default)
        status, _ = post(served, "/v1/batch", {"queries": [[0, 5, 100]]})
        assert status == 200


class TestMidTrafficUpdate:
    """Updates landing under concurrent batch traffic stay exact.

    Every response reports the fingerprint of the graph version that
    answered it; each must be bit-identical to the sequential oracle of
    *that* version — no response may blend worlds across versions, and
    no request may error while the pool is torn down mid-flight.
    """

    CLIENTS = 4
    ROUNDS = 6

    def test_hammer_is_bitwise_exact_per_version(self, served):
        service = served.service
        u, v, _ = first_edge(service.graph)
        predecessor = service.graph
        successor = apply_update(
            predecessor, set_edges=[(u, v, 0.5)]
        ).graph
        oracles = {
            graph_fingerprint(predecessor): sequential_oracle(predecessor),
            graph_fingerprint(successor): sequential_oracle(successor),
        }

        results = []
        errors = []
        barrier = threading.Barrier(self.CLIENTS + 1)

        def client():
            try:
                barrier.wait(timeout=30)
                for _ in range(self.ROUNDS):
                    status, payload = post(
                        served, "/v1/batch", {"queries": QUERIES}
                    )
                    assert status == 200, payload
                    results.append(
                        (
                            payload["engine"]["fingerprint"],
                            [r["estimate"] for r in payload["results"]],
                        )
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=client) for _ in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=30)
        time.sleep(0.02)  # let some pre-update traffic through
        status, update = post(
            served, "/v1/update", {"set_edges": [[u, v, 0.5]]}
        )
        assert status == 200
        assert update["fingerprint"] == graph_fingerprint(successor)
        for thread in threads:
            thread.join(timeout=120)
        assert not errors

        assert len(results) == self.CLIENTS * self.ROUNDS
        for fingerprint, estimates in results:
            assert fingerprint in oracles, fingerprint
            assert estimates == oracles[fingerprint]

        # The traffic after the join is firmly on the successor.
        _, final = post(served, "/v1/batch", {"queries": QUERIES})
        assert final["engine"]["fingerprint"] == graph_fingerprint(successor)


class TestServeUpdateAcceptance:
    """The acceptance path: a real `repro serve` process over sockets.

    Drives the full lifecycle: warm traffic builds the query log, an
    update lands, stale keys miss, answers match the oracle on the
    mutated graph, and the re-warm has repopulated the
    ``DEFAULT_REWARM_TOP`` (eight) hottest keys by the time the update
    answers — observable via ``/v1/stats``.
    """

    A = {"queries": [[0, 5, 200]]}
    B = {"queries": [[3, 9, 150]]}
    #: Seven more keys, each hotter than B: with A they fill the re-warm
    #: depth, so B is the one logged key left cold.
    OTHERS = {"queries": [[0, target, 200] for target in (1, 2, 3, 4, 6, 7, 8)]}

    @pytest.fixture
    def process(self, tmp_path):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--dataset", "lastfm",
             "--scale", "tiny", "--seed", str(SEED), "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=environment,
            cwd=tmp_path,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://\S+", banner)
            assert match, f"no URL in serve banner: {banner!r}"
            yield match.group(0)
        finally:
            process.terminate()
            process.wait(timeout=30)

    @staticmethod
    def _post(url, path, payload):
        request = urllib.request.Request(
            url + path, data=json.dumps(payload).encode("utf-8")
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    @staticmethod
    def _get(url, path):
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return json.loads(response.read())

    def test_update_round_trip_with_rewarm(self, process):
        from repro.datasets.suite import load_dataset

        url = process
        graph = load_dataset("lastfm", "tiny", SEED).graph
        u, v, _ = first_edge(graph)
        mutated = apply_update(graph, set_edges=[(u, v, 0.5)]).graph

        # A is the hottest key (3 hits), seven others follow (2 hits
        # each), B is a cold one (1 hit): with the default depth of
        # eight, A and the seven are replayed after the update, B is not.
        assert DEFAULT_REWARM_TOP == 1 + len(self.OTHERS["queries"])
        for _ in range(3):
            status, a_before = self._post(url, "/v1/batch", self.A)
            assert status == 200
        for _ in range(2):
            status, _ = self._post(url, "/v1/batch", self.OTHERS)
            assert status == 200
        status, _ = self._post(url, "/v1/batch", self.B)
        assert status == 200

        status, update = self._post(
            url, "/v1/update", {"set_edges": [[u, v, 0.5]]}
        )
        assert status == 200
        assert update["fingerprint"] == graph_fingerprint(mutated)

        # B was not re-warmed: its first post-update request samples.
        status, b_after = self._post(url, "/v1/batch", self.B)
        assert status == 200
        assert b_after["engine"]["cache_hits"] == 0
        assert b_after["engine"]["fingerprint"] == update["fingerprint"]

        # The new-version answers are bit-identical to the fresh
        # sequential oracle on the mutated graph.
        oracle = BatchEngine(mutated, seed=SEED).run_sequential(
            [(0, 5, 200, None), (3, 9, 150, None)]
        )
        assert b_after["results"][0]["estimate"] == float(
            oracle.estimates[1]
        )

        # The update re-warmed the top-8 keys (A among them) before it
        # answered: the counters already show the pass, and replaying A
        # samples nothing.
        stats = self._get(url, "/v1/stats")
        assert stats["rewarm"]["runs"] == 1
        assert stats["rewarm"]["queries"] == DEFAULT_REWARM_TOP

        status, a_after = self._post(url, "/v1/batch", self.A)
        assert status == 200
        assert a_after["engine"]["worlds_sampled"] == 0
        assert a_after["engine"]["cache_hits"] == 1
        assert a_after["results"][0]["estimate"] == float(
            oracle.estimates[0]
        )
        # And the update genuinely moved the number (probability 0.5 on
        # a touched edge vs the dataset's original value).
        assert a_after["results"][0]["estimate"] != (
            a_before["results"][0]["estimate"]
        )
