"""The public API facade: one stable surface from CLI to HTTP.

Every transport — the ``repro`` CLI, the :mod:`repro.serve` HTTP server,
library callers, and any future gRPC/async/sharded layer — speaks to the
library through :class:`ReliabilityService` and the typed
request/response objects in this package.  Import from here::

    from repro.api import BatchRequest, ReliabilityService

    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=7)
    response = service.estimate_batch(
        BatchRequest(queries=coerce_query_specs([[0, 5, 500], [3, 9, 500]]))
    )
    print(response.to_dict())
"""

from repro.api.errors import (
    FingerprintMismatchError,
    GraphLoadError,
    InvalidQueryError,
    PayloadTooLargeError,
    ReliabilityError,
    UnknownEstimatorError,
)
from repro.api.service import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_REWARM_TOP,
    FAST_BATCH_PATHS,
    ReliabilityService,
)
from repro.api.types import (
    BatchRequest,
    BatchResponse,
    BoundsRequest,
    BoundsResponse,
    EngineReport,
    EstimateRequest,
    EstimateResponse,
    QueryResult,
    QuerySpec,
    RecommendRequest,
    RecommendResponse,
    ShardRunRequest,
    ShardRunResponse,
    TopKRequest,
    TopKResponse,
    UpdateRequest,
    UpdateResponse,
    WarmRequest,
    WarmResponse,
    coerce_query_specs,
)

__all__ = [
    "ReliabilityError",
    "UnknownEstimatorError",
    "InvalidQueryError",
    "GraphLoadError",
    "PayloadTooLargeError",
    "FingerprintMismatchError",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_REWARM_TOP",
    "FAST_BATCH_PATHS",
    "ReliabilityService",
    "QuerySpec",
    "coerce_query_specs",
    "EstimateRequest",
    "BatchRequest",
    "WarmRequest",
    "UpdateRequest",
    "ShardRunRequest",
    "TopKRequest",
    "BoundsRequest",
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
]
