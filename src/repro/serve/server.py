"""The HTTP serving layer: a JSON API over one `ReliabilityService`.

One long-lived process amortises everything the paper says is expensive
— graph loading, index construction, world sampling — across all
clients: the :class:`~repro.api.service.ReliabilityService` owns the
graph, the estimators, and the result caches; this module merely maps
HTTP onto it.  Built entirely on the stdlib (``http.server``), matching
the repo's numpy-only runtime dependency.

Endpoints (all JSON)::

    POST /v1/estimate   EstimateRequest  -> EstimateResponse
    POST /v1/batch      BatchRequest     -> BatchResponse
    POST /v1/warm       WarmRequest      -> WarmResponse
    POST /v1/update     UpdateRequest    -> UpdateResponse
    POST /v1/topk       TopKRequest      -> TopKResponse
    POST /v1/bounds     BoundsRequest    -> BoundsResponse
    POST /v1/recommend  RecommendRequest -> RecommendResponse
    POST /v1/shard/run  ShardRunRequest  -> ShardRunResponse
    GET  /v1/recommend  the same request, spelled as query parameters
    GET  /v1/health     liveness payload
    GET  /v1/stats      service-lifetime counters + cache statistics

The routes are not written down here: they are read off
:data:`repro.api.types.ENDPOINT_TABLE` (path, verbs, request type,
service method), so the listing above is a rendering of that table.

Both ``estimate`` and ``batch`` accept ``method="auto"``: the service's
adaptive router (:mod:`repro.routing`) picks the estimator from measured
telemetry, the response reports the concrete routed method plus a
``routing`` annotation, and the estimate is bit-identical to naming that
method directly.  ``/v1/recommend`` exposes the same decision without
serving a query — the router's pick, its reason, and the telemetry
evidence behind it.

``/v1/shard/run`` is the distributed tier's worker-side primitive
(:mod:`repro.distributed`): evaluate one world range, return integer
hit counts.  It is registered on *every* server — any plain ``repro
serve`` can be recruited as a shard worker — and a coordinator
(``repro serve --coordinator --shards ...``) serves the same surface
with its ``/v1/batch`` fanned out across workers and a ``shards``
health section added to ``/v1/stats``.

The batch endpoint returns the same JSON document ``repro batch``
prints — same engine report, same per-query rows — so a client can move
between the CLI and the server without changing a parser.  Failures are
structured: every :class:`~repro.api.errors.ReliabilityError` becomes
``{"error": {"type": ..., "message": ...}}`` with its mapped status
(400 for the malformed-request family, 413 for oversized bodies),
unknown paths 404, wrong verbs (``PUT``, ``DELETE`` and ``PATCH``
included) 405 with an ``Allow`` header, and unexpected exceptions a
minimal 500 (details stay server-side).  A 404 or 405 leaves any request
body unread, so it closes the connection rather than let that body be
read as the next request.

``/v1/update`` publishes a new graph *version* (see
:meth:`~repro.api.service.ReliabilityService.update`): cache keys embed
the graph fingerprint, so the swap invalidates exactly the stale keys
and nothing else.  After a successful update the handler kicks off a
daemon **re-warm worker** that replays the hottest logged query keys
against the successor (``--rewarm-top`` on the CLI), so steady-state
clients come back to a warm cache instead of paying the cold-start.

Concurrency: :class:`ThreadingHTTPServer` handles each connection on its
own thread, and the service's fine-grained locking lets those threads
actually proceed in parallel — engine-backed requests run completely
unlocked against the shared thread-safe result cache, stats/health
snapshots never wait on a running engine, and only calls into one shared
stateful estimator serialise (per method).  When the service is
configured with ``workers > 1`` its engine runs also share the
process-wide :class:`~repro.engine.pool.WorkerPool` of the served graph
version — pre-forked with the graph loaded — so multi-worker requests
dispatch world ranges to standing workers and the graph is pickled
once, at fork.  The engine's determinism contract
makes concurrent identical requests **bit-identical** however the
threads interleave or the pool schedules ranges (hammer-tested in
``tests/serve``).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback
from dataclasses import fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple, get_type_hints
from urllib.parse import parse_qs

from repro.api.errors import (
    InvalidQueryError,
    PayloadTooLargeError,
    ReliabilityError,
)
from repro.api.service import DEFAULT_REWARM_TOP, ReliabilityService
from repro.api.types import ENDPOINT_TABLE, Endpoint

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8315

#: Largest accepted request body; far above any sane workload, small
#: enough that a misdirected upload cannot balloon server memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Environment override for the body cap — deployments fronting the
#: server with their own limits (or test rigs) tune it without a fork.
MAX_BODY_ENV_VAR = "REPRO_SERVE_MAX_BODY"


#: Seconds ``/v1/shard/run`` sleeps before evaluating — a fault-drill
#: hook: the kill-a-worker-mid-request tests (and operators rehearsing
#: failover) use it to widen the window in which a worker can vanish
#: with a dispatch in flight.  Unset, malformed, or non-positive = 0.
SHARD_RUN_DELAY_ENV_VAR = "REPRO_SHARD_RUN_DELAY"


def shard_run_delay() -> float:
    """The effective pre-evaluation delay of ``/v1/shard/run`` (seconds).

    Read per request, like :func:`max_body_bytes`, so a drill can arm
    and disarm it without restarting the worker.
    """
    raw = os.environ.get(SHARD_RUN_DELAY_ENV_VAR)
    if raw is None:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        return 0.0
    return value if value > 0 else 0.0


def max_body_bytes() -> int:
    """The effective request-body cap (env override, else the default).

    Read per request so a test rig can lower the cap without restarting
    the server; a missing, malformed, or non-positive override falls
    back to :data:`MAX_BODY_BYTES` rather than disabling the guard.
    """
    raw = os.environ.get(MAX_BODY_ENV_VAR)
    if raw is None:
        return MAX_BODY_BYTES
    try:
        value = int(raw)
    except ValueError:
        return MAX_BODY_BYTES
    return value if value > 0 else MAX_BODY_BYTES


class ReliabilityHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ReliabilityService`."""

    daemon_threads = True  # in-flight handlers die with the process

    def __init__(
        self,
        address: Tuple[str, int],
        service: ReliabilityService,
        quiet: bool = True,
        rewarm_top: int = DEFAULT_REWARM_TOP,
    ) -> None:
        self.service = service
        self.quiet = quiet
        #: Hottest logged keys the post-update re-warm worker replays;
        #: ``0`` disables background re-warming entirely.
        self.rewarm_top = max(0, int(rewarm_top))
        super().__init__(address, ReliabilityRequestHandler)

    @property
    def url(self) -> str:
        """A *routable* base URL for this server.

        A server bound to a wildcard address reports that address back
        (``0.0.0.0`` / ``::``), which no client can connect to — so the
        URL substitutes the loopback host.  Operators reaching the
        server from elsewhere use the machine's real address; this
        property is what banners, tests, and local tooling dial.
        """
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        elif ":" in host:  # any other IPv6 literal needs brackets
            host = f"[{host}]"
        return f"http://{host}:{port}"


class ReliabilityRequestHandler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` endpoints onto the bound service."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    #: Path -> table row, for every endpoint served over HTTP.
    _ROUTES = {
        endpoint.path: endpoint for endpoint in ENDPOINT_TABLE if endpoint.verbs
    }

    @property
    def route_path(self) -> str:
        """``self.path`` with the query string (and fragment) stripped.

        Routing must match on the path alone: ``GET /v1/health?verbose=1``
        is a request *to* ``/v1/health``, not to a different resource —
        matching the raw target 404'd any URL that carried a query.
        (A GET endpoint with a request type reads its fields from the
        query string — see :meth:`_payload_from_query`; elsewhere
        parameters are accepted and ignored.)
        """
        path = self.path.partition("?")[0]
        return path.partition("#")[0]

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._serve("POST")

    # No route takes these verbs; they get the structured 404 / 405.
    def do_PUT(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._serve("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._serve("DELETE")

    def do_PATCH(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._serve("PATCH")

    def _serve(self, verb: str) -> None:
        path = self.route_path
        endpoint = self._ROUTES.get(path)
        if endpoint is None or verb not in endpoint.verbs:
            # Refused before the body is read: an unread body would be
            # parsed as the next request on a kept-alive connection.
            if self.headers.get("Content-Length", "0").strip() != "0" or (
                "Transfer-Encoding" in self.headers
            ):
                self.close_connection = True
            if endpoint is None:
                self._send_json(404, _error_body("not found", path))
            else:
                self._send_method_not_allowed(", ".join(endpoint.verbs))
            return
        try:
            # Only reading the request and the *service* call live inside
            # the containment: a failed send must propagate to
            # socketserver as ever (writing a 500 onto a socket that just
            # broke mid-response would only raise again from the handler).
            if verb == "POST":
                payload = self._read_json()
            else:
                payload = self._payload_from_query(endpoint)
            response = self._call(endpoint, payload)
        except ReliabilityError as error:
            self._send_json(error.http_status, {"error": error.to_dict()})
        except Exception:  # noqa: BLE001 — the transport must not die
            self._send_internal_error(verb, path)
        else:
            self._send_json(200, response)

    def _payload_from_query(self, endpoint: Endpoint) -> Dict[str, Any]:
        """The request payload a GET spells as query parameters.

        ``GET /v1/recommend`` with no parameters asks about the default
        query shape; ``?samples=10000&max_hops=3&memory_limited=true``
        narrows it.  Each value of a request field is read as the
        field's annotation says (booleans are ``true``/``false``/``1``/
        ``0``, anything else an integer); any other key passes through
        raw.  The result goes through the same ``from_dict`` as a POST
        body, which names an unknown key as such.
        """
        if endpoint.request is None:
            return {}
        hints = get_type_hints(endpoint.request)
        own = {spec.name for spec in fields(endpoint.request)}
        query = self.path.partition("?")[2].partition("#")[0]
        payload: Dict[str, Any] = {}
        for key, values in parse_qs(query, keep_blank_values=True).items():
            raw = values[-1]
            if key not in own:
                payload[key] = raw
            elif hints[key] is bool:
                if raw.lower() not in ("true", "false", "1", "0"):
                    raise InvalidQueryError(
                        f"{key} must be true/false, got {raw!r}"
                    )
                payload[key] = raw.lower() in ("true", "1")
            else:
                try:
                    payload[key] = int(raw)
                except ValueError:
                    raise InvalidQueryError(
                        f"{key} must be an integer, got {raw!r}"
                    ) from None
        return payload

    def _call(self, endpoint: Endpoint, payload: Any) -> Dict[str, Any]:
        """Parse, call the endpoint's service method, serialise.

        Two routes carry transport-side behaviour the table cannot
        state.  ``/v1/shard/run`` sleeps :func:`shard_run_delay` *before*
        anything else, in the dispatch window a coordinator observes —
        exactly where a fault drill wants the worker to be killable.
        ``/v1/update`` starts the re-warm on a daemon thread *after* the
        response is computed: the client gets its version transition
        immediately, and the hottest logged keys are re-evaluated
        against the successor concurrently with whatever traffic
        follows (progress: the ``rewarm`` counters in ``/v1/stats``).
        """
        service = self.server.service
        method = getattr(service, endpoint.method)
        if endpoint.request is None:
            return method()
        if endpoint.path == "/v1/shard/run":
            delay = shard_run_delay()
            if delay > 0:
                time.sleep(delay)
        response = method(endpoint.request.from_dict(payload)).to_dict()
        if endpoint.path == "/v1/update":
            limit = getattr(self.server, "rewarm_top", DEFAULT_REWARM_TOP)
            if limit > 0:
                threading.Thread(
                    target=service.rewarm,
                    args=(limit,),
                    name="repro-serve-rewarm",
                    daemon=True,
                ).start()
        return response

    def _send_internal_error(self, verb: str, path: str) -> None:
        """Contain an unexpected handler failure: log, 500, close.

        Log server-side and answer a minimal 500.  Re-raising (the old
        ``do_POST`` behaviour) made socketserver tear the keep-alive
        connection down *after* the response, with no ``Connection:
        close`` header — clients saw resets on their next pipelined
        request.  Close the connection explicitly (the header goes out
        with the 500) and keep the handler thread's exit clean.
        """
        self.log_error(
            "unhandled exception serving %s %s:\n%s",
            verb,
            path,
            traceback.format_exc().rstrip(),
        )
        self.close_connection = True
        self._send_json(
            500,
            {
                "error": {
                    "type": "InternalError",
                    "message": "internal server error",
                }
            },
        )

    # ------------------------------------------------------------------
    # IO helpers
    # ------------------------------------------------------------------

    def _read_json(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            # The body size is unknowable, so the connection cannot be
            # resynchronised for keep-alive: close it after the error.
            self.close_connection = True
            raise InvalidQueryError("invalid Content-Length header") from None
        if length < 0:
            # A negative declared length is not "empty", it is a
            # malformed (or hostile) header — and like an unparseable
            # one, it leaves the connection unsynchronisable.
            self.close_connection = True
            raise InvalidQueryError(
                f"Content-Length must be non-negative, got {length}"
            )
        if length == 0:
            raise InvalidQueryError(
                "request body must be a JSON object (empty body received)"
            )
        limit = max_body_bytes()
        if length > limit:
            # Drain (and discard) the declared body in bounded chunks
            # before rejecting: responding while the client is still
            # writing would reset the connection and the structured 413
            # would never arrive.  The connection is closed afterwards
            # regardless — a client that declared more than it sends
            # must not stall a keep-alive handler thread forever.
            self.close_connection = True
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit"
            )
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise InvalidQueryError(
                f"request body is not valid JSON: {error}"
            ) from None

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_method_not_allowed(self, allowed: str) -> None:
        self._send_json(
            405,
            {
                "error": {
                    "type": "MethodNotAllowed",
                    "message": f"{self.path} only accepts {allowed}",
                }
            },
            extra_headers={"Allow": allowed},
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        # Failures are never silenced: ``quiet`` suppresses per-request
        # access logs (log_message above), not error reports — a 500's
        # traceback must reach the server log in every mode.
        BaseHTTPRequestHandler.log_message(self, format, *args)


def _error_body(message: str, path: str) -> Dict[str, Any]:
    return {"error": {"type": "NotFound", "message": f"{message}: {path}"}}


def create_server(
    service: ReliabilityService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    quiet: bool = True,
    rewarm_top: int = DEFAULT_REWARM_TOP,
) -> ReliabilityHTTPServer:
    """Bind a server to ``service`` (``port=0`` picks a free port).

    The caller owns both lifetimes: ``server.serve_forever()`` to run,
    then ``server.shutdown()`` / ``server.server_close()`` and
    ``service.close()`` to tear down.  Tests bind to port 0 and drive
    the returned server from a background thread.
    """
    return ReliabilityHTTPServer(
        (host, port), service, quiet=quiet, rewarm_top=rewarm_top
    )


def serve(
    service: ReliabilityService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    quiet: bool = True,
    ready_callback: Optional[Callable[[ReliabilityHTTPServer], None]] = None,
    rewarm_top: int = DEFAULT_REWARM_TOP,
) -> None:
    """Run the server until interrupted (the ``repro serve`` body).

    Ctrl-C and SIGTERM take the same road out: stop accepting, close the
    service (sidecar flushed, its worker pool shut down), return — so the
    interpreter exits normally and no pool process outlives the server.
    Signal handlers belong to the main thread; called from any other,
    SIGTERM keeps its previous disposition.
    """
    server = create_server(
        service, host, port, quiet=quiet, rewarm_top=rewarm_top
    )
    if ready_callback is not None:
        ready_callback(server)
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "MAX_BODY_ENV_VAR",
    "SHARD_RUN_DELAY_ENV_VAR",
    "ReliabilityHTTPServer",
    "ReliabilityRequestHandler",
    "create_server",
    "max_body_bytes",
    "serve",
    "shard_run_delay",
]
