"""The structured error hierarchy of the public API.

Every failure the :class:`~repro.api.service.ReliabilityService` can
signal to a caller is a :class:`ReliabilityError` subclass, so transports
(the CLI, the HTTP server, future gRPC/async layers) need exactly one
``except`` clause to map *any* service failure onto their own error
surface — a ``SystemExit`` with context for the CLI, a structured 400
body for HTTP.

Two of the subclasses double as builtin exceptions:

* :class:`InvalidQueryError` is also a :class:`ValueError` — malformed
  workload entries were plain ``ValueError`` before the facade existed,
  and callers that caught those keep working;
* :class:`UnknownEstimatorError` is also a :class:`KeyError`-free
  ``ValueError`` (registry lookups raise ``KeyError``; the service
  re-raises them as this type so API users never see a bare mapping
  error).
"""

from __future__ import annotations


class ReliabilityError(Exception):
    """Base class of every error raised by the public API facade.

    The class name doubles as the wire-level error code: transports
    report ``type(error).__name__`` alongside the message (see the
    ``error`` objects of :mod:`repro.serve`).
    """

    #: HTTP status the serving layer maps this error onto.
    http_status = 400

    def to_dict(self) -> dict:
        """The structured payload transports ship to clients."""
        return {"type": type(self).__name__, "message": str(self)}


class UnknownEstimatorError(ReliabilityError, ValueError):
    """An estimator key that is not in the registry."""


class InvalidQueryError(ReliabilityError, ValueError):
    """A malformed query, workload entry, or request parameter."""


class GraphLoadError(ReliabilityError):
    """The requested graph/dataset could not be loaded or is unusable."""


class PayloadTooLargeError(ReliabilityError):
    """A request body larger than the serving layer accepts.

    Maps onto HTTP 413 so well-behaved clients can distinguish "shrink
    your batch" from the 400 family of malformed-request errors.
    """

    http_status = 413


class FingerprintMismatchError(ReliabilityError):
    """A shard request addressed a different graph version than served.

    The shard protocol carries the coordinator's graph fingerprint on
    every dispatch; a worker whose graph (version) differs must refuse
    rather than contribute counts from the wrong world stream.  Maps
    onto HTTP 409 (conflict): the request was well-formed, the two
    hosts simply disagree about state — re-sync the tier (replay the
    ``/v1/update`` on every shard) and retry.
    """

    http_status = 409


__all__ = [
    "ReliabilityError",
    "UnknownEstimatorError",
    "InvalidQueryError",
    "GraphLoadError",
    "PayloadTooLargeError",
    "FingerprintMismatchError",
]
