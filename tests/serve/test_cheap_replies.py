"""A cheap reply costs what it computes.

Two overheads used to dwarf a cached reply.  The transport wrote the
headers and the body as two small segments with Nagle's algorithm on, so
every keep-alive reply waited about 40 ms for the client's delayed ACK.
And every persistent engine or warm reply built its ``cache`` report
with ``PersistentResultCache.statistics()``, which commits pending
disk-hit recency and counts the sidecar.  These tests pin both away, and
pin what must not move with them: the interim ``100 Continue`` still
reaches the client before it sends a body, and the report's values are
the ones ``statistics()`` gives.
"""

import http.client
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import ReliabilityService
from repro.engine.cache import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_DISK_CAPACITY,
    RESULT_CACHE_FILENAME,
    PersistentResultCache,
    result_key,
)
from repro.serve import create_server
from repro.serve.server import ReliabilityRequestHandler

SOURCE_PATH = Path(__file__).resolve().parents[2] / "src"
BATCH_BODY = {"queries": [[0, 5, 200], [3, 9, 150], [0, 7, 100, 2]]}


class NodelayProbe(ReliabilityRequestHandler):
    """Records ``TCP_NODELAY`` of every socket the server accepts."""

    nodelay = []

    def setup(self) -> None:
        super().setup()
        self.nodelay.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )


@contextmanager
def serving(service, handler=None):
    http_server = create_server(service, port=0)
    if handler is not None:
        http_server.RequestHandlerClass = handler
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def server():
    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
    try:
        with serving(service, NodelayProbe) as http_server:
            yield http_server
    finally:
        service.close()


def keep_alive(server):
    """One client connection with Nagle off on the client's side too."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def exchange(connection, verb, path, body=None):
    """One request: (seconds for the round trip, status, decoded reply)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {} if data is None else {"Content-Type": "application/json"}
    started = time.perf_counter()
    connection.request(verb, path, data, headers)
    response = connection.getresponse()
    payload = response.read()
    elapsed = time.perf_counter() - started
    return elapsed, response.status, json.loads(payload)


def raw_request(verb, path, body=b"", extra=""):
    return (
        f"{verb} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode("ascii") + body


def is_complete(reply: bytes) -> bool:
    """Whether ``reply`` holds a whole HTTP response (headers and body)."""
    head, separator, body = reply.partition(b"\r\n\r\n")
    if not separator:
        return False
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return len(body) >= int(value)
    return True


class TestKeepAliveTransport:
    def test_round_trips_do_not_wait_for_a_delayed_ack(self, server):
        # With Nagle on and headers and body written apart, each of these
        # took about 44 ms on Linux loopback; one write takes about 1 ms.
        connection = keep_alive(server)
        try:
            _, status, _ = exchange(connection, "POST", "/v1/batch", BATCH_BODY)
            assert status == 200
            health = []
            for _ in range(30):
                elapsed, status, _ = exchange(connection, "GET", "/v1/health")
                assert status == 200
                health.append(elapsed)
            batches = []
            for _ in range(30):
                elapsed, status, reply = exchange(
                    connection, "POST", "/v1/batch", BATCH_BODY
                )
                assert status == 200
                assert reply["engine"]["worlds_sampled"] == 0
                batches.append(elapsed)
        finally:
            connection.close()
        assert statistics.median(health) < 0.020
        assert statistics.median(batches) < 0.020

    def test_accepted_sockets_turn_nagle_off(self, server):
        connection = keep_alive(server)
        try:
            exchange(connection, "GET", "/v1/health")
        finally:
            connection.close()
        assert NodelayProbe.nodelay
        assert all(NodelayProbe.nodelay)

    @pytest.mark.parametrize(
        "request_bytes",
        [
            raw_request("GET", "/v1/health"),
            raw_request("POST", "/v1/batch", json.dumps(BATCH_BODY).encode()),
            raw_request("POST", "/v1/batch", b"{not json"),
        ],
        ids=["health", "batch", "error"],
    )
    def test_a_reply_arrives_in_one_piece(self, server, request_bytes):
        # One write per reply: the first read already holds the headers
        # and the whole body, never the headers alone.
        with socket.create_connection(server.server_address, timeout=30) as sock:
            for _ in range(5):
                sock.sendall(request_bytes)
                assert is_complete(sock.recv(1 << 16))

    def test_interim_continue_is_sent_before_the_body(self, server):
        # The buffered writer must not hold ``100 Continue`` back until the
        # final reply: the client waits for it before sending the body.
        body = json.dumps(BATCH_BODY).encode()
        request = raw_request("POST", "/v1/batch", body, "Expect: 100-continue\r\n")
        with socket.create_connection(server.server_address, timeout=30) as sock:
            sock.sendall(request[: -len(body)])
            sock.settimeout(5)
            interim = sock.recv(1 << 16)
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.settimeout(30)
            sock.sendall(body)
            reply = interim.partition(b"\r\n\r\n")[2]
            while not is_complete(reply):
                chunk = sock.recv(1 << 16)
                assert chunk
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert json.loads(reply.partition(b"\r\n\r\n")[2])["query_count"] == 3


def sqlite_statements(service):
    """Every SQL statement the service's sidecar connection runs from now."""
    statements = []
    service._cache._connection.set_trace_callback(statements.append)
    return statements


class TestCacheReport:
    """The per-reply report reads counters; it does not commit or count."""

    @pytest.fixture
    def cache_dir(self, tmp_path):
        # A first process writes the batch to the sidecar and exits.
        cache_dir = tmp_path / "cache"
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as writer, serving(writer) as http_server:
            connection = keep_alive(http_server)
            try:
                _, status, _ = exchange(connection, "POST", "/v1/batch", BATCH_BODY)
            finally:
                connection.close()
            assert status == 200
        return cache_dir

    def test_a_batch_served_from_the_sidecar_commits_nothing(self, cache_dir):
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as service, serving(service) as http_server:
            statements = sqlite_statements(service)
            connection = keep_alive(http_server)
            try:
                _, status, reply = exchange(
                    connection, "POST", "/v1/batch", BATCH_BODY
                )
            finally:
                connection.close()
            served = list(statements)  # close() flushes; that is allowed
        assert status == 200
        assert reply["engine"]["cache"]["disk_hits"] == 3
        # Three indexed lookups, nothing else: no recency flush, no
        # COMMIT, no COUNT(*).
        assert len(served) == 3
        assert all(sql.startswith("SELECT value FROM results") for sql in served)
        assert any(sql == "COMMIT" for sql in statements)

    def test_the_report_keeps_its_values(self, cache_dir):
        # The values a reply reported when it still called statistics():
        # disk hits promoted into memory, then memory hits, then a miss
        # written through, then a warm of what is already there.
        fixed = {
            "capacity": DEFAULT_CACHE_CAPACITY,
            "disk_capacity": DEFAULT_DISK_CAPACITY,
            "persistent": True,
        }
        expected = [
            dict(fixed, size=3, hits=3, misses=0, disk_hits=3, disk_size=3),
            dict(fixed, size=3, hits=6, misses=0, disk_hits=3, disk_size=3),
            dict(fixed, size=4, hits=6, misses=1, disk_hits=3, disk_size=4),
            dict(fixed, size=4, hits=10, misses=1, disk_hits=3, disk_size=4),
        ]
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as service, serving(service) as http_server:
            connection = keep_alive(http_server)
            reports = []
            try:
                for path, body in [
                    ("/v1/batch", BATCH_BODY),
                    ("/v1/batch", BATCH_BODY),
                    ("/v1/batch", {"queries": [[1, 4, 120]]}),
                    ("/v1/warm", {"queries": BATCH_BODY["queries"] + [[1, 4, 120]]}),
                ]:
                    _, status, reply = exchange(connection, "POST", path, body)
                    assert status == 200
                    report = reply["cache"] if path == "/v1/warm" else None
                    reports.append(report or reply["engine"]["cache"])
                _, _, stats = exchange(connection, "GET", "/v1/stats")
            finally:
                connection.close()
        assert reports == expected
        assert stats["cache"] == expected[-1]

    def test_stats_recounts_rows_another_process_wrote(self, cache_dir):
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as service, serving(service) as http_server:
            other = PersistentResultCache(cache_dir / RESULT_CACHE_FILENAME)
            other.put_many(
                [(result_key("elsewhere", 0, t, 100, 1), 0.5) for t in range(2)]
            )
            other.close()
            connection = keep_alive(http_server)
            try:
                _, _, reply = exchange(connection, "POST", "/v1/batch", BATCH_BODY)
                # A reply reports this process's count ...
                assert reply["engine"]["cache"]["disk_size"] == 3
                # ... and /v1/stats counts the file.
                _, _, stats = exchange(connection, "GET", "/v1/stats")
                assert stats["cache"]["disk_size"] == 5
                _, _, reply = exchange(connection, "POST", "/v1/batch", BATCH_BODY)
                assert reply["engine"]["cache"]["disk_size"] == 5
            finally:
                connection.close()


#: Run in a fresh interpreter: three threads allocate at once, then the
#: process prints glibc's per-arena report (one "Arena N:" line each).
ARENA_PROBE = """
import ctypes, sys, threading
from repro.serve.server import _share_one_malloc_arena
if sys.argv[1] == "shared":
    _share_one_malloc_arena()
barrier = threading.Barrier(3)
def allocate():
    held = [bytearray(2048) for _ in range(256)]  # > 512 B: plain malloc
    barrier.wait()  # every thread holds its memory while the others start
threads = [threading.Thread(target=allocate) for _ in range(3)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
ctypes.CDLL(None).malloc_stats()
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="malloc arenas are glibc's"
)
class TestOneMallocArena:
    """``repro serve`` threads share one arena, so peak memory is steady."""

    @staticmethod
    def arenas(mode):
        finished = subprocess.run(
            [sys.executable, "-c", ARENA_PROBE, mode],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SOURCE_PATH)},
        )
        assert finished.returncode == 0, finished.stderr
        return finished.stderr.count("Arena ")

    def test_overlapping_threads_allocate_from_one_arena(self):
        # Without the setting each overlapping thread opens its own arena,
        # which keeps its own peak; with it there is one.
        assert self.arenas("default") > 1
        assert self.arenas("shared") == 1
