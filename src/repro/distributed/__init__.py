"""The distributed shard tier: many hosts behind one front door.

The engine's determinism contract — world ``i`` is a pure function of
``(graph fingerprint, seed, i)`` and per-world hit counts are integers —
makes cross-host reduction *exact*: a coordinator can partition a
batch's world range ``[0, K)`` across N shard workers, sum their
integer hit-count vectors, and obtain bit for bit what one process
sweeping the whole range would have computed.  Retries and re-dispatch
are free for the same reason, which is the robustness story of the
whole tier.

Pieces::

    repro serve --coordinator --shards host:port,host:port ...
        the front door: a CoordinatedReliabilityService behind the
        standard /v1 HTTP surface
    repro serve ...
        a shard worker: any plain server — POST /v1/shard/run is
        registered everywhere

* :class:`CoordinatedReliabilityService` — the facade subclass whose
  engine-backed batches fan out (:mod:`repro.distributed.service`);
* :class:`ShardCoordinator` — partition/dispatch/merge + membership
  health (:mod:`repro.distributed.coordinator`);
* :class:`ShardClient` — the per-worker HTTP client separating
  retryable transport failures from structured rejections
  (:mod:`repro.distributed.client`).

Timeout, retries, backoff and cooldown are module constants of the
client and the coordinator; local fallback is always on.

Operator guide: ``docs/distributed.md``.
"""

from repro.distributed.client import (
    ShardClient,
    ShardDispatchError,
    normalize_shard_url,
    parse_shard_list,
    rejection_from_body,
)
from repro.distributed.coordinator import (
    LOCAL_CONTRIBUTOR,
    ShardCoordinator,
    ShardMember,
    partition_ranges,
)
from repro.distributed.service import CoordinatedReliabilityService

__all__ = [
    "LOCAL_CONTRIBUTOR",
    "CoordinatedReliabilityService",
    "ShardClient",
    "ShardCoordinator",
    "ShardDispatchError",
    "ShardMember",
    "normalize_shard_url",
    "parse_shard_list",
    "partition_ranges",
    "rejection_from_body",
]
