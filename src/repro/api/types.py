"""Typed request/response objects of the public API.

These dataclasses are the *wire format* of the facade: every transport —
the ``repro`` CLI, the :mod:`repro.serve` HTTP server, a future gRPC or
async layer — builds a request object, hands it to
:class:`~repro.api.service.ReliabilityService`, and serialises the
response with ``to_dict()``.  The JSON produced by ``to_dict`` is the
compatibility contract: ``repro batch`` has printed this exact shape
since the batch engine landed, and the HTTP endpoints return the same
documents, so a client cannot tell (nor needs to know) which transport
answered it.

The field declarations below are the only statement of that format.
:class:`Wire` derives everything else from them: ``to_dict`` emits the
fields in declaration order, and the one strict ``from_dict`` reads the
known keys, which of them are required, their defaults and their types
off each field's annotation and default — rejecting unknown keys and
wrong types with :class:`~repro.api.errors.InvalidQueryError`, so a
malformed HTTP body becomes a structured 400 instead of a deep
``TypeError``.  The few fields JSON cannot spell directly say so in
``field(metadata=...)``: ``read`` / ``write`` name the field's own
reader / writer and ``omit_none`` drops a ``None`` value from the
document.  :data:`ENDPOINT_TABLE`, at the end of the module, is the
matching single statement of the endpoint surface.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.api.errors import InvalidQueryError

#: The JSON scalar kinds, and how an error message names each.
_SCALARS = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "a boolean",
}

#: A type that requires both names them together when either is missing.
_ST_PAIR = ("source", "target")


def _read_scalar(kind: type, value: Any, name: str) -> Any:
    """Check one JSON scalar strictly: no numeric strings, no bool-as-int."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (
        kind is not bool and isinstance(value, bool)
    ):
        raise InvalidQueryError(
            f"{name} must be {_SCALARS[kind]}, got {value!r}"
        )
    return kind(value)


def _read_int_list(value: Any, name: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise InvalidQueryError(
            f"{name} must be a list of integers, got {value!r}"
        )
    return tuple(
        _read_scalar(int, item, f"{name}[{position}]")
        for position, item in enumerate(value)
    )


def _read_nonempty_string(value: Any, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidQueryError(
            f"{name} must be a non-empty string, got {value!r}"
        )
    return value


def _rows(**columns: type) -> Callable[[Any, str], Tuple[tuple, ...]]:
    """A reader for a list of fixed-shape rows, e.g. ``[source, target]``."""
    shape = f"[{', '.join(columns)}]"
    width = len(columns)

    def read(entries: Any, name: str) -> Tuple[tuple, ...]:
        if not isinstance(entries, (list, tuple)):
            raise InvalidQueryError(
                f"{name} must be a list of {shape} entries, got {entries!r}"
            )
        rows = []
        for position, entry in enumerate(entries):
            context = f"{name} entry {position}"
            if not isinstance(entry, (list, tuple)) or len(entry) != width:
                raise InvalidQueryError(
                    f"{context}: expected {shape}, got {entry!r}"
                )
            rows.append(
                tuple(
                    _read_scalar(kind, value, f"{context}: {column}")
                    for (column, kind), value in zip(columns.items(), entry)
                )
            )
        return tuple(rows)

    return read


def _bare(hint: Any) -> Any:
    """``X`` for an ``Optional[X]`` annotation; any other one unchanged."""
    if get_origin(hint) is Union:
        return next(arg for arg in get_args(hint) if arg is not type(None))
    return hint


def _reader(hint: Any) -> Callable[[Any, str], Any]:
    """The strict reader a field's annotation implies."""
    bare = _bare(hint)
    if bare == Tuple[int, ...]:
        read = _read_int_list
    else:
        read = functools.partial(_read_scalar, bare)
    if bare is hint:
        return read
    return lambda value, name: None if value is None else read(value, name)


def _plain(value: Any) -> Any:
    """A field value as JSON: nested wire types and tuples unfolded."""
    if isinstance(value, Wire):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _writer(hint: Any) -> Optional[Callable[[Any], Any]]:
    """The writer a field's annotation implies; ``None`` = already JSON."""
    bare = _bare(hint)
    return None if bare in _SCALARS or get_origin(bare) is dict else _plain


def _omitted() -> Any:
    """An optional response field left out of the document while ``None``."""
    return field(default=None, metadata={"omit_none": True})


class _FieldSpec(NamedTuple):
    name: str
    default: Any  # ``MISSING`` marks a required key
    read: Callable[[Any, str], Any]
    write: Optional[Callable[[Any], Any]]  # ``None``: the value is JSON as is
    omit_none: bool


@functools.lru_cache(maxsize=None)
def _field_specs(cls: type) -> Tuple[_FieldSpec, ...]:
    hints = get_type_hints(cls)
    return tuple(
        _FieldSpec(
            name=spec.name,
            default=spec.default,
            read=spec.metadata.get("read") or _reader(hints[spec.name]),
            write=spec.metadata.get("write") or _writer(hints[spec.name]),
            omit_none=spec.metadata.get("omit_none", False),
        )
        for spec in fields(cls)
    )


class Wire:
    """Base of every wire dataclass: the one parser and the one serialiser.

    ``what`` (a class keyword) is how error messages name the type —
    ``class EstimateRequest(Wire, what="an estimate request")``.
    """

    _what: str

    def __init_subclass__(cls, what: Optional[str] = None, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        cls._what = what or cls.__name__

    @classmethod
    def from_dict(cls, payload: Any, context: Optional[str] = None):
        """Parse a JSON object strictly into ``cls``.

        Unknown keys, missing required keys and wrong types raise
        :class:`InvalidQueryError`; absent optional keys take the
        field's default.  ``context`` is given for a query object nested
        in a workload (``"entry 3"``): it names the object in messages
        and prefixes the field names.
        """
        what = context or cls._what
        if not isinstance(payload, Mapping):
            raise InvalidQueryError(
                f"{what} must be a JSON object, got {type(payload).__name__}"
            )
        specs = _field_specs(cls)
        known = [spec.name for spec in specs]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise InvalidQueryError(
                f"{what} does not accept key(s) "
                f"{', '.join(map(repr, unknown))}; "
                f"known keys: {', '.join(known)}"
            )
        required = [spec.name for spec in specs if spec.default is MISSING]
        missing = next((name for name in required if name not in payload), None)
        if missing is not None:
            together = missing in _ST_PAIR and set(_ST_PAIR) <= set(required)
            keys = " and ".join(map(repr, _ST_PAIR if together else (missing,)))
            if context:
                raise InvalidQueryError(
                    f"{what}: query objects need {keys} keys, "
                    f"got {dict(payload)!r}"
                )
            raise InvalidQueryError(f"{what} needs {keys}")
        prefix = f"{context}: " if context else ""
        return cls(
            **{
                spec.name: spec.read(payload[spec.name], prefix + spec.name)
                for spec in specs
                if spec.name in payload
            }
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document: the fields, in declaration order."""
        document: Dict[str, Any] = {}
        for name, _, _, write, omit_none in _field_specs(type(self)):
            value = getattr(self, name)
            if value is not None or not omit_none:
                document[name] = value if write is None else write(value)
        return document


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec(Wire):
    """One s-t query as submitted by a client.

    ``samples``/``max_hops`` left as ``None`` inherit the request-level
    defaults when the service resolves the workload (mirroring how the
    query-file format lets entries omit their budget).
    """

    source: int
    target: int
    samples: Optional[int] = None
    max_hops: Optional[int] = None

    @classmethod
    def coerce(cls, entry: Any, position: int) -> "QuerySpec":
        """Coerce one workload entry: a [s, t(, K(, d))] list or an object.

        This is the single shared reader behind the ``--queries`` file
        format and the HTTP ``queries`` array, so both transports accept
        (and reject) exactly the same entries, with the same
        ``entry {position}`` context in errors.  Both forms read their
        integers through the same strict reader.
        """
        context = f"entry {position}"
        if isinstance(entry, Mapping):
            return cls.from_dict(entry, context)
        if isinstance(entry, (list, tuple)) and len(entry) in (2, 3, 4):
            parts = list(entry)
            if len(parts) == 4 and parts[3] is None:
                # A trailing null mirrors the object form's
                # "max_hops": null — an explicit "no bound".
                parts.pop()
            try:
                return cls(
                    *[_read_scalar(int, part, context) for part in parts]
                )
            except InvalidQueryError:
                raise InvalidQueryError(
                    f"{context}: non-numeric value in {entry!r}"
                ) from None
        raise InvalidQueryError(
            f"{context}: expected [source, target(, samples(, max_hops))] "
            f"or a query object, got {entry!r}"
        )


def coerce_query_specs(entries: Any, what: str = "queries") -> Tuple[QuerySpec, ...]:
    """Coerce a JSON array (or a single object) into query specs."""
    if isinstance(entries, Mapping):
        entries = [entries]  # a single unwrapped query object
    if not isinstance(entries, (list, tuple)):
        raise InvalidQueryError(
            f"{what} must be a list of [source, target(, samples"
            f"(, max_hops))] entries or query objects"
        )
    return tuple(
        QuerySpec.coerce(entry, position)
        for position, entry in enumerate(entries)
    )


def _queries() -> Any:
    """A required workload field: entries in list or object form."""
    return field(metadata={"read": coerce_query_specs})


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateRequest(Wire, what="an estimate request"):
    """One s-t reliability estimate through one named estimator."""

    source: int
    target: int
    samples: int = 1_000
    method: str = "mc"
    seed: Optional[int] = None  # None = the service's seed


@dataclass(frozen=True)
class BatchRequest(Wire, what="a batch request"):
    """A workload of s-t queries, answered in one engine pass.

    ``samples``/``max_hops`` are the workload-level defaults applied to
    entries that do not carry their own; ``seed=None`` inherits the
    service's seed so a request replayed against the same service is
    exactly cacheable.  How the engine sweeps (chunk size, worker
    processes) is the service's configuration, never a request's.
    """

    queries: Tuple[QuerySpec, ...] = _queries()
    method: str = "mc"
    samples: int = 1_000
    seed: Optional[int] = None
    max_hops: Optional[int] = None


@dataclass(frozen=True)
class WarmRequest(Wire, what="a warm request"):
    """Speculatively evaluate popular (s, t) pairs into the result cache.

    Warming is method-agnostic on purpose: the engine's cache key is
    ``(graph fingerprint, s, t, K, seed, max_hops)`` — no estimator in
    it — so one warm pass serves every engine-backed method afterwards.
    """

    queries: Tuple[QuerySpec, ...] = _queries()
    samples: int = 1_000
    seed: Optional[int] = None
    max_hops: Optional[int] = None


@dataclass(frozen=True)
class TopKRequest(Wire, what="a topk request"):
    """Top-k most reliable targets from one source (paper §2.3 origin)."""

    source: int
    k: int = 10
    samples: int = 500
    seed: Optional[int] = None


@dataclass(frozen=True)
class BoundsRequest(Wire, what="a bounds request"):
    """Polynomial-time lower/upper reliability bracket for one pair."""

    source: int
    target: int


@dataclass(frozen=True)
class UpdateRequest(Wire, what="an update request"):
    """A live mutation of the served graph (probabilities and topology).

    ``set_edges`` entries are ``[source, target, probability]`` exact
    assignments — setting an existing edge rewrites its probability,
    setting a new pair adds the edge.  ``remove_edges`` entries are
    ``[source, target]`` pairs that must currently exist.  At least one
    operation is required; duplicate or conflicting operations on the
    same pair are rejected so an update is order-independent.
    """

    set_edges: Tuple[Tuple[int, int, float], ...] = field(
        default=(),
        metadata={"read": _rows(source=int, target=int, probability=float)},
    )
    remove_edges: Tuple[Tuple[int, int], ...] = field(
        default=(), metadata={"read": _rows(source=int, target=int)}
    )

    def __post_init__(self) -> None:
        if not self.set_edges and not self.remove_edges:
            raise InvalidQueryError(
                "an update request needs at least one set_edges or "
                "remove_edges entry"
            )


@dataclass(frozen=True)
class ShardRunRequest(Wire, what="a shard run request"):
    """One world-range evaluation dispatched to a shard worker.

    The shard protocol's request half (``POST /v1/shard/run``): evaluate
    worlds ``[start, stop)`` of the given workload and return integer
    hit counts.  ``seed`` and ``fingerprint`` are **required** — the
    coordinator pins both so every shard draws from the same world
    stream over the same graph version; a worker serving a different
    fingerprint rejects with a structured 409
    (:class:`~repro.api.errors.FingerprintMismatchError`).

    The worker sweeps at the served chunk size, the coordinator's
    partitioning grain, so chunk boundaries (and hence the merged
    ``sweeps`` counter) line up with a single-process run; hit counts
    are bit-identical regardless.
    """

    queries: Tuple[QuerySpec, ...] = _queries()
    start: int
    stop: int
    seed: int
    fingerprint: str = field(metadata={"read": _read_nonempty_string})
    samples: int = 1_000
    max_hops: Optional[int] = None


@dataclass(frozen=True)
class RecommendRequest(Wire, what="a recommend request"):
    """Inputs to an estimator recommendation.

    The three booleans are the paper's Fig. 18 decision-tree questions.
    ``samples`` and ``max_hops`` describe the *query shape* the caller
    intends to serve: a service instance uses them to consult its
    adaptive router's telemetry bucket (and to constrain the static tree
    to hop-capable methods); the graph-free static walk uses ``max_hops``
    only.
    """

    memory_limited: bool = False
    lowest_variance: bool = False
    latency_tolerant: bool = False
    samples: int = 1_000
    max_hops: Optional[int] = None


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryResult(Wire):
    """Per-query stats of one answered workload entry.

    ``cached`` is the per-query cache provenance: ``True`` when the
    estimate was replayed from the result cache (memory or sidecar)
    without sampling, ``False`` when it was evaluated in this pass, and
    ``None`` on paths with no exact cache key (the per-query loop).
    """

    source: int
    target: int
    samples: int
    max_hops: Optional[int]
    estimate: float
    cached: Optional[bool] = _omitted()


@dataclass(frozen=True)
class EngineReport(Wire):
    """How a workload was served: dispatch mode plus engine counters.

    ``mode`` is always present; the counters appear when the shared-world
    engine (or an estimator fast path exposing its
    :class:`~repro.engine.batch.BatchResult`) answered the workload, and
    ``cache`` carries the result-cache statistics — including the
    ``persistent`` flag and ``disk_hits``, the cache-provenance summary —
    when the service owns a persistent sidecar.
    """

    mode: str
    workers: Optional[int] = _omitted()
    worlds_sampled: Optional[int] = _omitted()
    sweeps: Optional[int] = _omitted()
    cache_hits: Optional[int] = _omitted()
    cache_misses: Optional[int] = _omitted()
    seconds: Optional[float] = _omitted()
    chunk_size: Optional[int] = _omitted()
    cache: Optional[Dict[str, int]] = _omitted()
    fingerprint: Optional[str] = _omitted()


@dataclass(frozen=True)
class EstimateResponse(Wire):
    """One answered estimate, with its full provenance.

    ``routing`` appears only on ``method="auto"`` requests: the router's
    decision record (picked method, reason, scores, evidence), with
    ``method`` itself reporting the *concrete* estimator that answered —
    the document a client replays against a named-method request to
    verify bit-identity.
    """

    dataset: Optional[str]
    scale: Optional[str]
    method: str
    method_display: str
    seed: int
    source: int
    target: int
    samples: int
    estimate: float
    routing: Optional[Dict[str, Any]] = _omitted()


@dataclass(frozen=True)
class BatchResponse(Wire):
    """An answered workload: per-query stats plus the engine report.

    ``to_dict()`` keeps the document shape ``repro batch`` has always
    printed (dataset, scale, method, seed, query_count, engine,
    results) with one *additive* change: engine-served rows now carry a
    ``cached`` provenance flag.  Scripts that parsed the CLI keep
    working against the HTTP endpoint unchanged — existing keys mean
    exactly what they did.
    """

    dataset: Optional[str]
    scale: Optional[str]
    method: str
    seed: int
    query_count: int = field(init=False)  # always len(results)
    engine: EngineReport
    results: Tuple[QueryResult, ...]
    #: The router's decision record; present only on ``method="auto"``
    #: requests (``method`` then reports the concrete routed estimator).
    routing: Optional[Dict[str, Any]] = _omitted()

    def __post_init__(self) -> None:
        object.__setattr__(self, "query_count", len(self.results))

    @property
    def estimates(self) -> List[float]:
        return [result.estimate for result in self.results]


@dataclass(frozen=True)
class WarmResponse(Wire):
    """Outcome of one cache-warming pass.

    ``already_warm`` counts unique queries served from the cache without
    sampling; ``newly_written`` counts the ones evaluated (and written)
    by this pass.  Their sum is ``unique_queries`` — duplicates in the
    submitted workload collapse before warming.
    """

    query_count: int
    unique_queries: int
    already_warm: int
    newly_written: int
    worlds_sampled: int
    seconds: float
    seed: int
    persistent: bool
    cache: Optional[Dict[str, int]] = _omitted()


@dataclass(frozen=True)
class UpdateResponse(Wire):
    """Outcome of one live graph update.

    ``previous_fingerprint`` → ``fingerprint`` is the cache-visible
    version transition: every engine cache key embeds the fingerprint,
    so keys minted against the predecessor stay valid *for that
    version* while the successor starts cold.  ``estimators`` maps each
    already-built estimator to how its index survived the update
    (``repointed`` / ``rebuilt`` / ``dropped`` / ``incremental``), and
    ``pool`` records whether a fingerprint-pinned worker pool had to be
    respawned.
    """

    previous_fingerprint: str
    fingerprint: str
    version: int
    node_count: int
    edge_count: int
    edges_set: int
    edges_added: int
    edges_removed: int
    structural: bool
    estimators: Dict[str, str]
    pool: str
    seconds: float


@dataclass(frozen=True)
class ShardRunResponse(Wire, what="a shard run response"):
    """A shard's answer to one world-range evaluation.

    ``hits[i]`` is the integer number of worlds in ``[start, stop)``
    (clipped by the query's own budget) in which query ``i`` of the
    submitted workload succeeded.  ``fingerprint`` and ``seed`` echo the
    provenance the counts were drawn under, so a coordinator can verify
    a reply belongs to the stream it dispatched before merging it.

    Unlike the other responses this one is parsed back (by the
    coordinator's shard client) through the same strict ``from_dict`` as
    the request types: a malformed reply from a confused host becomes a
    structured dispatch failure, never a deep ``TypeError`` inside the
    merge.
    """

    hits: Tuple[int, ...]
    start: int
    stop: int
    worlds_evaluated: int
    sweeps: int
    seed: int
    fingerprint: str = field(metadata={"read": _read_nonempty_string})
    seconds: float
    query_count: int


def _ranking_rows(ranking: Tuple[Tuple[int, float], ...]) -> List[Dict[str, Any]]:
    return [
        {"rank": rank, "node": node, "reliability": reliability}
        for rank, (node, reliability) in enumerate(ranking, start=1)
    ]


@dataclass(frozen=True)
class TopKResponse(Wire):
    """Ranked (node, reliability) rows for one top-k query."""

    source: int
    k: int
    samples: int
    seed: int
    ranking: Tuple[Tuple[int, float], ...] = field(
        metadata={"write": _ranking_rows}
    )


@dataclass(frozen=True)
class BoundsResponse(Wire):
    """Polynomial-time reliability bracket for one (source, target)."""

    source: int
    target: int
    lower: float
    upper: float


@dataclass(frozen=True)
class RecommendResponse(Wire):
    """An estimator recommendation, static or routed.

    The original three fields are the Fig. 18 decision-tree walk and
    keep their exact shape.  A service instance additionally reports how
    its adaptive router would route the described query shape:
    ``reason`` (``measured`` / ``exploration`` / ``cold_start``),
    ``decision`` (the full routing record with scores and per-bucket
    evidence), and ``telemetry`` (the live graph's aggregated
    observations).  All three are omitted on the graph-free static walk.
    """

    path: Tuple[str, ...]
    estimators: Tuple[str, ...]
    display_names: Tuple[str, ...] = ()
    reason: Optional[str] = _omitted()
    decision: Optional[Dict[str, Any]] = _omitted()
    telemetry: Optional[Dict[str, Any]] = _omitted()


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Endpoint:
    """One row of :data:`ENDPOINT_TABLE`.

    ``name`` is the request-counter key and spells the route
    (:attr:`path`); ``method`` names the
    :class:`~repro.api.service.ReliabilityService` method that answers
    it.  ``request`` / ``response`` are the wire types either side of
    that method — ``None`` where it takes no body or returns a plain
    dict.  ``verbs`` are the HTTP verbs the route accepts; ``()`` keeps
    the endpoint local (CLI and library callers only).
    """

    name: str
    verbs: Tuple[str, ...]
    method: str
    request: Optional[type] = None
    response: Optional[type] = None

    @property
    def path(self) -> str:
        return "/v1/" + self.name.replace("_", "/")


#: The endpoint surface, stated once.  ``ReliabilityService.ENDPOINTS``
#: and the HTTP routes of ``serve/server.py`` are read from here (and
#: ``docs/api.md`` is checked against it), so a new endpoint is one row
#: plus its service method.
ENDPOINT_TABLE: Tuple[Endpoint, ...] = (
    Endpoint("estimate", ("POST",), "estimate", EstimateRequest, EstimateResponse),
    Endpoint("batch", ("POST",), "estimate_batch", BatchRequest, BatchResponse),
    Endpoint("warm", ("POST",), "warm", WarmRequest, WarmResponse),
    Endpoint("update", ("POST",), "update", UpdateRequest, UpdateResponse),
    Endpoint("shard_run", ("POST",), "shard_run", ShardRunRequest, ShardRunResponse),
    Endpoint("topk", ("POST",), "topk", TopKRequest, TopKResponse),
    Endpoint("bounds", ("POST",), "bounds", BoundsRequest, BoundsResponse),
    # Streams a long-running experiment, so it belongs to the CLI.
    Endpoint("study", (), "study"),
    Endpoint(
        "recommend", ("GET", "POST"), "recommend", RecommendRequest, RecommendResponse
    ),
    Endpoint("health", ("GET",), "health"),
    Endpoint("stats", ("GET",), "stats"),
)


__all__ = [
    "Wire",
    "QuerySpec",
    "coerce_query_specs",
    "EstimateRequest",
    "BatchRequest",
    "WarmRequest",
    "TopKRequest",
    "BoundsRequest",
    "UpdateRequest",
    "ShardRunRequest",
    "RecommendRequest",
    "QueryResult",
    "EngineReport",
    "EstimateResponse",
    "BatchResponse",
    "WarmResponse",
    "UpdateResponse",
    "ShardRunResponse",
    "TopKResponse",
    "BoundsResponse",
    "RecommendResponse",
    "Endpoint",
    "ENDPOINT_TABLE",
]
