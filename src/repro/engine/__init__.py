"""Batched multi-query reliability engine (paper §2.2, §3.7, §2.9).

Answers workloads of ``(source, target, K[, max_hops])`` queries by
sampling each possible world once and sweeping it for every pending
query, instead of re-sampling worlds per query.  Pending world ranges
optionally leave the thread through one seam — ``workers=N`` borrows a
pre-forked :class:`~repro.engine.pool.WorkerPool`, ``pool=`` attaches
any range evaluator — with bit-identical results.  See
``docs/architecture.md`` for the design and :mod:`repro.engine.batch`
for the determinism contract.
"""

from repro.engine.batch import (
    DEFAULT_CHUNK_SIZE,
    KERNEL_MODES,
    WORKERS_ENV_VAR,
    BatchEngine,
    BatchResult,
    resolve_workers,
)
from repro.engine.cache import (
    PersistentResultCache,
    ResultCache,
    graph_fingerprint,
    open_result_cache,
    result_key,
)
from repro.core.estimators.base import BatchQuery
from repro.engine.plan import QueryPlan, plan_queries
from repro.engine.pool import PoolClosedError, WorkerPool, shared_pool

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "KERNEL_MODES",
    "WORKERS_ENV_VAR",
    "BatchEngine",
    "BatchResult",
    "PoolClosedError",
    "WorkerPool",
    "resolve_workers",
    "shared_pool",
    "PersistentResultCache",
    "ResultCache",
    "graph_fingerprint",
    "open_result_cache",
    "result_key",
    "BatchQuery",
    "QueryPlan",
    "plan_queries",
]
