"""The closed-loop load generator: one process, waiting clients.

Callers of this system are SDK and CLI clients that wait for a reply
before asking again, so the loop is closed: each client thread sends its
next request only when the previous one has been answered, and a slower
server is offered less load.  Clients hold one keep-alive connection
each and send pre-encoded bytes; replies are stored raw and parsed after
the phase, so the generator's own work inside the timed phase is a
socket write, a socket read and two clock reads.

Updates go through a read/write gate owned by the generator: an update
is sent only once no read is in flight and holds new reads back until it
is answered.  Every read therefore ran at a graph version the harness
knows — the number of updates answered before it — which is what lets
the correctness check replay it against the right graph.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, List, Optional
from urllib.parse import urlsplit

from benchmarks.ledger.traffic import Request

CLIENT_TIMEOUT = 120.0
_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Exchange:
    """One request as the client saw it."""

    request: Request
    status: int  # 0 = transport failure (refused, reset, timed out)
    body: bytes
    started: float  # perf_counter at send
    seconds: float  # round trip
    version: int  # graph updates answered before this request was sent
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


class _Gate:
    """Many readers or one writer; counts the writes it has let through.

    A waiting writer holds new readers back, so requests reach the
    server in stream order around every update.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False
        self.version = 0

    def acquire(self, write: bool) -> int:
        with self._condition:
            if write:
                self._writers_waiting += 1
                while self._writing or self._readers:
                    self._condition.wait()
                self._writers_waiting -= 1
                self._writing = True
            else:
                while self._writing or self._writers_waiting:
                    self._condition.wait()
                self._readers += 1
            return self.version

    def release(self, write: bool, answered: bool) -> None:
        with self._condition:
            if write:
                self._writing = False
                if answered:
                    self.version += 1
            else:
                self._readers -= 1
            self._condition.notify_all()


class Client:
    """One keep-alive connection that reconnects after a transport error."""

    def __init__(self, base_url: str) -> None:
        parts = urlsplit(base_url)
        self._address = (parts.hostname, parts.port)
        self._connection: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request, version: int = 0) -> Exchange:
        started = time.perf_counter()
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    *self._address, timeout=CLIENT_TIMEOUT
                )
                self._connection.connect()
                # http.client writes headers and body separately; with
                # Nagle on, the body waits ~40 ms for the server's
                # delayed ACK.  Real SDK clients disable it; so do we.
                self._connection.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            self._connection.request(
                "POST", request.path, request.body, _HEADERS
            )
            response = self._connection.getresponse()
            body = response.read()
            status, error = response.status, None
        except (OSError, http.client.HTTPException) as failure:
            self.close()
            body, status = b"", 0
            error = f"{type(failure).__name__}: {failure}"
        return Exchange(
            request=request,
            status=status,
            body=body,
            started=started,
            seconds=time.perf_counter() - started,
            version=version,
            error=error,
        )

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    exchanges: List[Exchange]  # in request-index order
    wall_seconds: float  # first send to last reply
    clients: int
    #: Summed CPU seconds of the client threads: the generator's own cost.
    generator_cpu_seconds: float


def run_phase(
    base_url: str,
    requests: Iterable[Request],
    clients: int,
    seconds: Optional[float] = None,
    start_version: int = 0,
) -> Phase:
    """Drive ``requests`` through ``clients`` waiting clients.

    Requests are handed out in stream order.  With ``seconds`` the phase
    stops handing out new requests once that much time has passed (those
    in flight complete and count); without it the whole (then finite)
    sequence is sent.
    """
    gate = _Gate()
    gate.version = start_version
    lock = threading.Lock()
    pending = iter(requests)
    collected: List[Exchange] = []
    cpu_seconds = [0.0] * clients
    phase_started = time.perf_counter()
    deadline = None if seconds is None else phase_started + seconds

    def next_request() -> Optional[Request]:
        with lock:
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            return next(pending, None)

    def work(slot: int) -> None:
        client = Client(base_url)
        mine: List[Exchange] = []
        cpu_started = time.thread_time()
        try:
            while True:
                request = next_request()
                if request is None:
                    break
                version = gate.acquire(request.is_update)
                exchange = None
                try:
                    exchange = client.send(request, version)
                finally:
                    gate.release(
                        request.is_update,
                        exchange is not None and exchange.ok,
                    )
                mine.append(exchange)
        finally:
            client.close()
            cpu_seconds[slot] = time.thread_time() - cpu_started
            with lock:
                collected.extend(mine)

    threads = [
        threading.Thread(target=work, args=(slot,), name=f"ledger-client-{slot}")
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    collected.sort(key=lambda exchange: exchange.request.index)
    finished = max(
        (exchange.started + exchange.seconds for exchange in collected),
        default=phase_started,
    )
    return Phase(
        exchanges=collected,
        wall_seconds=finished - phase_started,
        clients=clients,
        generator_cpu_seconds=sum(cpu_seconds),
    )


# ----------------------------------------------------------------------
# The null server: what a round trip costs when the server does nothing
# ----------------------------------------------------------------------


class _CannedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Buffered writes: headers and body leave in one segment, so the
    #: stub never waits on a delayed ACK and stays a true floor.
    wbufsize = 1 << 16

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = self.server.canned_body
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


class NullServer:
    """An in-process stub that answers every POST with one canned body.

    The same stdlib server class ``repro serve`` is built on, minus the
    service and with its reply written in one segment: its round trip is
    the floor under every latency the ledger reports — the part of a hot
    request that is the harness's, the kernel's and ``http.server``'s.
    """

    def __init__(self, canned_body: bytes) -> None:
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _CannedHandler)
        self._server.daemon_threads = True
        self._server.canned_body = canned_body
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="ledger-null-server"
        )

    def __enter__(self) -> str:
        self._thread.start()
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
