"""The coordinator's HTTP client for one shard worker (stdlib-only).

A shard worker is just a plain ``repro serve`` process; this client
speaks its JSON protocol over :mod:`urllib`.  The crucial design point
is the **two-way split of failures**:

* transport-level failures — timeouts, refused/reset connections, a
  worker SIGKILLed mid-reply, non-JSON garbage, any 5xx — raise
  :class:`ShardDispatchError`.  These are *retryable by contract*: the
  determinism contract makes re-sending the identical range free, so
  the coordinator retries, backs off, and ultimately re-dispatches the
  range to a different shard;
* structured rejections — a worker answering with a well-formed
  ``{"error": {"type": ..., "message": ...}}`` body — are reconstructed
  as the matching :class:`~repro.api.errors.ReliabilityError` subclass
  and **raised as such**.  They are deterministic verdicts about the
  request (wrong fingerprint, malformed range), not about the
  transport; retrying cannot change them, so they propagate to the
  coordinator's client with their original status (409 for a
  fingerprint mismatch, 400 for a bad request) instead of decaying
  into a generic 500.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from http.client import HTTPException
from typing import Any, Optional, Tuple

from repro.api.errors import (
    FingerprintMismatchError,
    GraphLoadError,
    InvalidQueryError,
    PayloadTooLargeError,
    ReliabilityError,
    UnknownEstimatorError,
)
from repro.api.types import ShardRunRequest, ShardRunResponse

#: Seconds one dispatch attempt may take before it counts as failed.
DEFAULT_TIMEOUT = 30.0

#: Error types a worker can legitimately reject a dispatch with; any
#: other (or unstructured) body is a transport failure, not a verdict.
_REJECTION_TYPES = {
    cls.__name__: cls
    for cls in (
        FingerprintMismatchError,
        InvalidQueryError,
        UnknownEstimatorError,
        GraphLoadError,
        PayloadTooLargeError,
    )
}


class ShardDispatchError(Exception):
    """A transport-level failure talking to one shard worker.

    Retryable by contract: world ``i`` is a pure function of
    ``(graph, seed, i)``, so re-sending the identical range — to this
    shard or any other — reproduces the identical counts.
    """


def rejection_from_body(body: bytes) -> Optional[ReliabilityError]:
    """Reconstruct a worker's structured rejection, if the body is one.

    Returns ``None`` for anything that is not a well-formed
    ``{"error": {"type": <known ReliabilityError>, "message": str}}``
    document — the caller then treats the reply as a transport failure.
    """
    try:
        payload = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    error = payload.get("error")
    if not isinstance(error, dict):
        return None
    type_name = error.get("type")
    message = error.get("message")
    if not isinstance(type_name, str) or not isinstance(message, str):
        return None
    cls = _REJECTION_TYPES.get(type_name)
    return None if cls is None else cls(message)


def normalize_shard_url(spec: str) -> str:
    """``host:port`` (or a full URL) -> a scheme-qualified base URL."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty shard address")
    if "://" not in spec:
        spec = f"http://{spec}"
    return spec.rstrip("/")


def parse_shard_list(specs: str) -> Tuple[str, ...]:
    """Parse the CLI's ``--shards host:port,host:port,...`` value."""
    urls = tuple(
        normalize_shard_url(part)
        for part in specs.split(",")
        if part.strip()
    )
    if not urls:
        raise ValueError(
            "expected a comma-separated list of shard addresses "
            "(host:port or http://host:port)"
        )
    return urls


class ShardClient:
    """JSON-over-HTTP calls to one shard worker, each bounded by
    :data:`DEFAULT_TIMEOUT`."""

    def __init__(self, base_url: str) -> None:
        self.base_url = normalize_shard_url(base_url)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base_url!r})"

    def _request(self, path: str, body: Optional[bytes]) -> Any:
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            headers=(
                {"Content-Type": "application/json"} if body else {}
            ),
            method="POST" if body is not None else "GET",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=DEFAULT_TIMEOUT
            ) as reply:
                raw = reply.read()
        except urllib.error.HTTPError as error:
            raw = error.read()
            if error.code < 500:
                rejection = rejection_from_body(raw)
                if rejection is not None:
                    raise rejection from None
            raise ShardDispatchError(
                f"{self.base_url}{path} answered HTTP {error.code}"
            ) from None
        except (OSError, HTTPException) as error:
            # URLError, timeouts, refused/reset connections, and a
            # worker dying mid-reply (RemoteDisconnected/BadStatusLine)
            # all land here: the transport failed, the request did not.
            raise ShardDispatchError(
                f"{self.base_url}{path}: {error}"
            ) from None
        try:
            return json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError):
            raise ShardDispatchError(
                f"{self.base_url}{path} returned a non-JSON body"
            ) from None

    def shard_run(self, request: ShardRunRequest) -> ShardRunResponse:
        """Dispatch one world range; parse the reply strictly."""
        payload = self._request(
            "/v1/shard/run",
            json.dumps(request.to_dict()).encode("utf-8"),
        )
        try:
            return ShardRunResponse.from_dict(payload)
        except InvalidQueryError as error:
            # A 200 whose body does not parse as a shard response means
            # the host is not speaking the protocol — transport failure.
            raise ShardDispatchError(
                f"{self.base_url}/v1/shard/run returned a malformed "
                f"response: {error}"
            ) from None

    def health(self) -> Any:
        """The worker's ``GET /v1/health`` payload."""
        return self._request("/v1/health", None)


__all__ = [
    "DEFAULT_TIMEOUT",
    "ShardClient",
    "ShardDispatchError",
    "normalize_shard_url",
    "parse_shard_list",
    "rejection_from_body",
]
