"""`CoordinatedReliabilityService`: the front door of a shard tier.

A drop-in :class:`~repro.api.service.ReliabilityService` whose
engine-backed batches sweep their pending worlds on remote shard
workers instead of in the local chunk loop.  Everything else — estimate,
warm, re-warm, update, topk, bounds, non-engine batch methods — runs
locally, unchanged, which is what makes ``repro
serve --coordinator`` answer the exact ``/v1`` surface a plain server
does.

Wire compatibility: a coordinator's ``/v1/batch`` document has the same
keys, the same per-query rows, and the same deterministic engine
counters (``worlds_sampled``, ``sweeps``, ``cache_hits``,
``cache_misses``, ``fingerprint``) as a single-process server answering
the identical request — bit for bit.  The only honest divergences are
``engine.mode`` (``"distributed"`` instead of ``"shared_worlds"``),
``engine.workers`` (distinct hosts that contributed), and
``engine.seconds`` (wall clock).  The integration suite pins exactly
this: full-document equality after normalising those three fields.

There is no coordinator loop here, and no behaviour of its own: the
service is *configured* with its :class:`ShardCoordinator`
(``ReliabilityService(evaluator=...)``), whose engine factory attaches
it to each batch's engine as the range evaluator
(``BatchEngine(pool=...)``), and :meth:`BatchEngine.run
<repro.engine.batch.BatchEngine.run>` does what it does for every run —
result-cache lookups first (so warm queries never touch the network),
the exact int64 merge, one ``put_many`` — with only the sweep of the
pending worlds moved onto the shards.  Shards never cache partial
counts.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

from repro.api.service import ReliabilityService
from repro.core.graph import UncertainGraph
from repro.distributed.client import normalize_shard_url, parse_shard_list
from repro.distributed.coordinator import ShardCoordinator
# Nothing here calls it: the ledger's tracer wraps this module global by name.
from repro.engine.plan import plan_queries  # noqa: F401


class CoordinatedReliabilityService(ReliabilityService):
    """A reliability service whose range evaluator is a shard tier.

    Nothing but a constructor: it builds a :class:`ShardCoordinator`
    over ``shards`` and hands it to :class:`ReliabilityService` as
    ``evaluator=`` — passing one yourself is the same service — plus
    the tier's section in :meth:`stats`.

    Parameters (beyond :class:`ReliabilityService`'s)
    -------------------------------------------------
    shards:
        The worker membership: a ``"host:port,host:port"`` string (the
        CLI's ``--shards`` value) or a sequence of addresses/URLs.
        Each shard is a plain ``repro serve`` over the *same dataset,
        scale, and seed* — the fingerprint check on every dispatch
        enforces the "same graph" half of that contract at runtime.

    The coordinator's own ``workers`` sizes nothing on the tier:
    parallelism comes from the shards, and each applies its own compute
    configuration.
    ``method="auto"`` is resolved by the inherited router before any
    engine exists — dispatches carry world ranges, not methods.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        shards: Union[str, Sequence[str]],
        **options,
    ) -> None:
        if isinstance(shards, str):
            urls = parse_shard_list(shards)
        else:
            urls = tuple(normalize_shard_url(spec) for spec in shards)
        self.coordinator = ShardCoordinator(urls)
        super().__init__(graph, evaluator=self.coordinator, **options)

    def stats(self) -> Dict[str, object]:
        """The inherited counters plus the shard-tier health section."""
        payload = super().stats()
        payload["shards"] = self.coordinator.statistics()
        return payload


__all__ = ["CoordinatedReliabilityService"]
