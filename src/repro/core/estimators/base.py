"""Estimator interface shared by all six algorithms.

Every estimator answers the fundamental s-t reliability query of the paper:
*given* ``(s, t)`` *and a sample budget* ``K``, *return an unbiased estimate
of* ``R(s, t)``.  Index-based methods (BFS Sharing, ProbTree) additionally
expose an offline :meth:`Estimator.prepare` phase whose cost the experiment
harness reports separately (paper §3.7).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.graph import UncertainGraph
from repro.util.rng import SeedLike, ensure_generator, stable_substream
from repro.util.validation import check_node, check_positive

#: Namespace key for the batch fallback's per-query substreams, so keys
#: like ``(seed, source, target, samples)`` cannot collide with other
#: substream users of the same root seed (e.g. the experiment runner's
#: ``(seed, pair, repeat, K)`` cells, or the engine's world stream).
_BATCH_STREAM = 0x42

#: A coerced workload entry: ``(source, target, samples, max_hops)``.
WorkloadEntry = Tuple[int, int, int, Optional[int]]

#: ``engine(graph, seed=...) -> BatchEngine``: how a batch fast path
#: obtains its engine (see :func:`run_engine_batch`).
EngineFactory = Callable[..., object]


def coerce_batch_queries(
    queries: Iterable[Sequence[int]],
    *,
    estimator_name: str,
    allow_hops: bool,
    hops_reason: Optional[str] = None,
) -> List[WorkloadEntry]:
    """Normalise a raw workload into ``(source, target, K, max_hops)``.

    Shared by every ``estimate_batch`` implementation so they agree on
    what a query *is*.  Coerced here rather than via
    ``repro.engine.plan.as_query``: core must not import upward into
    engine (see ``docs/architecture.md``).  Estimators without a
    hop-bounded sweep reject ``max_hops`` outright (``allow_hops=False``)
    instead of silently answering the unbounded query; ``hops_reason``
    lets them explain *why* in the error.
    """
    workload: List[WorkloadEntry] = []
    for query in queries:
        parts = tuple(query)
        if len(parts) == 3:
            max_hops: Optional[int] = None
        elif len(parts) == 4:
            max_hops = parts[3]
        else:
            raise ValueError(
                f"a query is (source, target, samples[, max_hops]), "
                f"got {query!r}"
            )
        if max_hops is not None and not allow_hops:
            raise NotImplementedError(
                f"{estimator_name} has no d-hop batch fast path; "
                + (
                    hops_reason
                    or "hop-bounded (max_hops) workloads are served by the "
                    "shared-world engine — use the 'mc' or 'bfs_sharing' "
                    "estimator, or repro.engine.BatchEngine directly"
                )
            )
        workload.append(
            (
                int(parts[0]),
                int(parts[1]),
                int(parts[2]),
                None if max_hops is None else int(max_hops),
            )
        )
    return workload


def run_engine_batch(
    estimator: "Estimator",
    queries: Iterable[Sequence[int]],
    *,
    seed: Optional[int] = None,
    engine: Optional[EngineFactory] = None,
) -> np.ndarray:
    """Serve a workload through the shared-world batch engine.

    The common body behind the ``estimate_batch`` fast paths of MC and
    BFS Sharing: ask ``engine`` for a
    :class:`~repro.engine.batch.BatchEngine` over the estimator's graph,
    run the workload, keep its :class:`~repro.engine.batch.BatchResult`
    on the estimator as ``estimator.last_batch_result`` (the run's
    instrumentation, for callers that want it), and return the
    estimates.

    ``engine`` is the one engine option of this layer: a factory
    ``engine(graph, seed=...) -> BatchEngine``.  Whoever owns a result
    cache, a range evaluator, a kernel choice or a worker count —
    a :class:`~repro.api.service.ReliabilityService` — configures them
    there; without one the workload runs on a plain default engine.

    With ``seed=None`` the world-stream root is drawn from the
    estimator's own generator, matching the base fallback's behaviour
    (reproducible iff the estimator was seeded).
    """
    if engine is None:
        # Imported lazily: core must not import upward into engine at
        # module scope (docs/architecture.md), but a fast path may reach
        # up at call time the way MC has since the engine landed.
        from repro.engine.batch import BatchEngine

        engine = BatchEngine
    if seed is None:
        seed = int(estimator._rng.integers(2**63))
    result = engine(estimator.graph, seed=seed).run(queries)
    estimator.last_batch_result = result
    return result.estimates


@dataclass
class QueryStatistics:
    """Per-query instrumentation collected by estimators.

    The harness reads these to reproduce the paper's per-sample cost and
    memory discussions without re-instrumenting each algorithm externally.
    """

    samples_requested: int = 0
    edges_probed: int = 0
    nodes_expanded: int = 0
    recursion_depth: int = 0
    fallback_calls: int = 0

    def merge(self, other: "QueryStatistics") -> None:
        self.samples_requested += other.samples_requested
        self.edges_probed += other.edges_probed
        self.nodes_expanded += other.nodes_expanded
        self.recursion_depth = max(self.recursion_depth, other.recursion_depth)
        self.fallback_calls += other.fallback_calls


class Estimator(abc.ABC):
    """Abstract s-t reliability estimator over one uncertain graph.

    Subclasses implement :meth:`_estimate`; this base class handles argument
    validation, RNG coercion, and the trivial ``s == t`` case (reliability 1,
    paper Alg. 1 lines 6-9) so all estimators agree on edge cases.
    """

    #: Registry key and display name, e.g. ``"mc"`` / ``"MC"``.
    key: ClassVar[str] = ""
    display_name: ClassVar[str] = ""
    #: Whether the method has an offline index phase (paper Fig. 13).
    uses_index: ClassVar[bool] = False
    #: How ``estimate_batch`` is served — the fast-path dispatch tag the
    #: CLI and docs key off:  ``"fallback"`` (per-query loop),
    #: ``"engine"`` (shared-world batch engine: one world stream for the
    #: whole workload, d-hop capable, configured by the ``engine=`` factory),
    #: or ``"bag_grouped"`` (ProbTree: one lifted query graph per (s, t)
    #: bag pair, inner batches per group).
    batch_path: ClassVar[str] = "fallback"

    def __init__(self, graph: UncertainGraph, *, seed: SeedLike = None) -> None:
        self.graph = graph
        self._rng = ensure_generator(seed)
        self.last_query_statistics = QueryStatistics()
        #: The :class:`~repro.engine.batch.BatchResult` of the last
        #: engine-served batch (``None`` when the last call took another
        #: path) — instrumentation for callers, e.g. ``repro batch``.
        self.last_batch_result = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def estimate(
        self,
        source: int,
        target: int,
        samples: int,
        *,
        rng: SeedLike = None,
    ) -> float:
        """Estimate ``R(source, target)`` from ``samples`` samples.

        ``rng`` overrides the estimator's own stream for this query — the
        experiment runner passes independent substreams per (pair, repeat)
        so repeated queries are statistically independent.
        """
        source = check_node(source, self.graph.node_count, "source")
        target = check_node(target, self.graph.node_count, "target")
        samples = check_positive(samples, "samples")
        generator = self._rng if rng is None else ensure_generator(rng)
        self.last_query_statistics = QueryStatistics(samples_requested=samples)
        self.last_batch_result = None  # this query is per-query, not batched
        if source == target:
            return 1.0
        estimate = self._estimate(source, target, samples, generator)
        if not 0.0 <= estimate <= 1.0 + 1e-12:
            raise AssertionError(
                f"{self.display_name} produced out-of-range estimate {estimate}"
            )
        return min(estimate, 1.0)

    def estimate_batch(
        self,
        queries: Iterable[Sequence[int]],
        *,
        seed: Optional[int] = None,
        engine: Optional[EngineFactory] = None,
    ) -> np.ndarray:
        """Estimate a workload of ``(source, target, samples[, max_hops])``.

        Default implementation: the per-query loop — one :meth:`estimate`
        per triple, each on a substream keyed by ``(seed, source, target,
        samples)`` so duplicate queries agree and results are independent
        of workload order.  Subclasses with a shared-work fast path
        override this (see :attr:`batch_path`): MC and BFS Sharing route
        through the batch engine (:mod:`repro.engine`), which samples
        each possible world once for the whole workload (paper
        §2.2/§3.7); ProbTree groups the batch by (s, t) bag pair and
        lifts each group's query graph once.

        ``engine`` (see :func:`run_engine_batch`) configures those fast
        paths; the per-query fallback builds no engine — it has nothing
        to fan out and no exact cache key, every call draws fresh
        samples — so it ignores it.  Hop-bounded
        queries (§2.9 d-hop reliability) need a shared-world sweep, which
        a generic estimator does not have — the fallback rejects them
        rather than silently answering the unbounded query.

        Returns estimates aligned with the input order.
        """
        workload = coerce_batch_queries(
            queries, estimator_name=type(self).__name__, allow_hops=False
        )
        self.last_batch_result = None
        results = np.empty(len(workload), dtype=np.float64)
        for index, (source, target, samples, _) in enumerate(workload):
            rng = (
                None
                if seed is None
                else stable_substream(
                    seed, _BATCH_STREAM, source, target, samples
                )
            )
            results[index] = self.estimate(source, target, samples, rng=rng)
        return results

    def prepare(self) -> None:
        """(Re)build any offline index.  Default: nothing to do.

        Calling ``prepare`` on an already-prepared estimator rebuilds the
        index (index estimators draw it from their RNG, so a rebuild may
        differ); callers that only need the index to *exist* — e.g. a
        service lazily preparing under a lock — use
        :meth:`ensure_prepared` instead.
        """

    @property
    def prepared(self) -> bool:
        """Whether the offline phase has run.

        Index estimators override this to report whether their index is
        built; it is the guard :meth:`ensure_prepared` keys off, so
        double-checked preparation never rebuilds (and re-randomises) a
        live index.  The base class cannot tell — a subclass may
        override :meth:`prepare` without overriding this property — so
        it answers ``False``, the fail-safe direction: the worst case is
        a redundant ``prepare()`` call (a no-op without an offline
        phase), never a skipped build.
        """
        return False

    def ensure_prepared(self) -> None:
        """Run :meth:`prepare` unless the index is known to be built."""
        if not self.prepared:
            self.prepare()

    def apply_update(
        self,
        graph: UncertainGraph,
        *,
        touched_edges: Sequence[Tuple[int, int]] = (),
        structural: bool = False,
    ) -> str:
        """Repoint the estimator at a mutated successor ``graph``.

        Called by the service after a live update
        (:mod:`repro.core.mutation`): ``graph`` is the copy-on-write
        successor, ``touched_edges`` the ``(source, target)`` pairs whose
        probability or existence changed, and ``structural`` whether the
        edge *set* changed.  Returns a maintenance-mode tag for
        reporting:

        * ``"repointed"`` — no index existed; the estimator now reads the
          new graph and nothing else was needed;
        * ``"rebuilt"`` — an index existed and was rebuilt from scratch
          (the safe default for any index this base class knows nothing
          about);
        * subclasses may return richer tags (``"dropped"``,
          ``"incremental"``) when they can do better than a rebuild —
          see :class:`~repro.core.estimators.bfs_sharing.
          BFSSharingEstimator` and :class:`~repro.core.estimators.
          prob_tree.ProbTreeEstimator`.

        Whatever the tag, the post-condition is identical: every
        subsequent query answers against ``graph`` exactly as a freshly
        constructed estimator would (the update conformance suite pins
        this against the exact oracle).
        """
        had_index = self.prepared
        self.graph = graph
        self.last_batch_result = None
        self._rebind_graph(graph)
        if had_index:
            self.prepare()
            return "rebuilt"
        return "repointed"

    def _rebind_graph(self, graph: UncertainGraph) -> None:
        """Refresh graph-derived working state after :meth:`apply_update`.

        Subclasses that size scratch arrays (or precompute per-edge data)
        from the graph in ``__init__`` override this to rebuild them —
        ``self.graph`` has already been repointed when it runs.  The
        default does nothing.
        """

    def memory_bytes(self) -> int:
        """Approximate online working-set size in bytes (paper §3.6).

        Includes the graph plus estimator-owned auxiliary state; subclasses
        add their index/stack/heap footprints.
        """
        return self.graph.memory_bytes()

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _estimate(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        """Estimate reliability for validated ``source != target``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"


__all__ = [
    "EngineFactory",
    "Estimator",
    "QueryStatistics",
    "WorkloadEntry",
    "coerce_batch_queries",
    "run_engine_batch",
]
