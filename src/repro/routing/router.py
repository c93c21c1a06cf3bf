"""The adaptive query router: measured cost/accuracy beats a static table.

The paper's closing guidance (Table 17 / Fig. 18) is a *static* ranking:
true on average over its study, blind to the graph actually being served,
the K actually requested, and everything an estimator's measured behaviour
reveals at runtime.  :class:`AdaptiveRouter` replaces that with a decision
per query:

1. **Measured scoring.**  For each candidate estimator the router reads
   its :class:`~repro.routing.telemetry.QueryTelemetry` bucket for the
   query's (graph fingerprint, K band, hop band).  A bucket with at least
   :data:`DEFAULT_MIN_OBSERVATIONS` observations is *warm* and gets the
   score

   ``seconds_per_sample * (estimate_variance + variance_floor)``

   — measured cost times measured dispersion, the product a cost/accuracy
   frontier minimises (an estimator may buy accuracy with time or vice
   versa; the product prices both).  The floor keeps a zero-variance
   bucket (deterministic answers, or too few samples to disperse) from
   scoring as free.  Lowest score wins.

2. **Exploration floor.**  Routing only to the current winner would never
   re-measure the losers, so every ``round(1 / DEFAULT_EPSILON)``-th
   decision in a bucket routes to the *least-observed* candidate
   instead.  The schedule is a deterministic counter, not a coin flip:
   no RNG state, reproducible decision sequences, and the determinism
   hammer in ``tests/serve`` can replay it exactly.

3. **Cold start.**  Until any candidate is warm the router defers to the
   paper's own decision tree (:func:`repro.core.recommend.
   recommend_estimator`), constrained to the candidates — so a fresh
   service routes exactly as the paper recommends, and measurement takes
   over only once there is measurement to act on.

Live updates need no handling here at all: bucket keys embed the graph
fingerprint, so a ``/v1/update`` lands the router in cold buckets for the
successor graph — static routing, then re-learned — while the
predecessor's buckets lie dormant (and revive if its fingerprint ever
returns).  Estimators whose index an update dropped arrive through
``unavailable`` and are excluded before scoring.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Collection, Dict, Optional, Tuple

from repro.core.recommend import (
    HOP_CAPABLE_ESTIMATORS,
    recommend_estimator,
)
from repro.routing.telemetry import (
    BucketStats,
    QueryTelemetry,
    hops_band,
    samples_band,
)

#: Exploration floor: fraction of decisions per bucket spent re-measuring.
DEFAULT_EPSILON = 0.1

#: Observations before a bucket's measurements are trusted over the
#: static heuristic.
DEFAULT_MIN_OBSERVATIONS = 5

#: Keeps a zero-dispersion bucket from scoring as infinitely accurate.
VARIANCE_FLOOR = 1e-4

#: Candidate pool: the serving-grade per-query methods.  LP/LP+ answer
#: with a deterministic bias (no K to spend), and RHH is dominated by
#: RSS in the paper's own study — neither belongs in a budgeted router.
DEFAULT_CANDIDATES = (
    "mc",
    "bfs_sharing",
    "prob_tree",
    "rss",
    "importance",
    "strata",
)

#: Bound on distinct decision-counter keys (one per routed bucket).
DECISION_COUNTER_CAPACITY = 4096


@dataclass(frozen=True)
class RoutingDecision:
    """One routed query: the pick, why, and the evidence behind it."""

    method: str
    reason: str  # "measured" | "exploration" | "cold_start"
    fingerprint: str
    samples_band: int
    hops_band: int
    #: Per-candidate score (``None`` = bucket cold), lowest wins.
    scores: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Per-candidate warm-bucket snapshots backing the scores.
    evidence: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: The static tree's branch decisions (cold-start routes only).
    static_path: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "method": self.method,
            "reason": self.reason,
            "fingerprint": self.fingerprint,
            "samples_band": self.samples_band,
            "hops_band": self.hops_band,
            "scores": dict(self.scores),
            "evidence": {
                method: dict(stats) for method, stats in self.evidence.items()
            },
        }
        if self.static_path:
            payload["static_path"] = list(self.static_path)
        return payload


class AdaptiveRouter:
    """Scores candidates on measured telemetry; explores; falls back."""

    def __init__(self, telemetry: QueryTelemetry) -> None:
        self.telemetry = telemetry
        # Read here, not as default arguments, so tests can monkeypatch.
        self.candidates: Tuple[str, ...] = DEFAULT_CANDIDATES
        self.epsilon = DEFAULT_EPSILON
        self.min_observations = DEFAULT_MIN_OBSERVATIONS
        #: Decisions per bucket between exploration routes (0 = never).
        self._explore_interval = (
            round(1.0 / self.epsilon) if self.epsilon > 0.0 else 0
        )
        self._lock = threading.Lock()
        self._decisions: Dict[Tuple[str, int, int], int] = {}
        self._reason_counts: Dict[str, int] = {
            "measured": 0,
            "exploration": 0,
            "cold_start": 0,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _eligible(
        self, max_hops: Optional[int], unavailable: Collection[str]
    ) -> Tuple[str, ...]:
        """Candidates able to serve this query's shape right now."""
        pool = self.candidates
        if max_hops is not None:
            pool = tuple(
                key for key in pool if key in HOP_CAPABLE_ESTIMATORS
            )
        pool = tuple(key for key in pool if key not in unavailable)
        if not pool:
            # mc is index-free and hop-capable: the one always-valid route.
            return ("mc",)
        return pool

    def _bucket_decision_count(
        self, fingerprint: str, band: int, hops: int
    ) -> int:
        """Post-increment this bucket's decision counter (micro-locked)."""
        key = (fingerprint, band, hops)
        with self._lock:
            count = self._decisions.get(key)
            if count is None:
                if len(self._decisions) >= DECISION_COUNTER_CAPACITY:
                    # Counter table full: treat as a fresh bucket without
                    # tracking — exploration pacing degrades, routing does
                    # not.
                    return 0
                count = 0
            self._decisions[key] = count + 1
            return count

    def _count_reason(self, reason: str) -> None:
        with self._lock:
            self._reason_counts[reason] += 1

    def route(
        self,
        *,
        fingerprint: str,
        samples: int,
        max_hops: Optional[int] = None,
        memory_limited: bool = False,
        unavailable: Collection[str] = (),
    ) -> RoutingDecision:
        """Pick the estimator for one query shape.

        Deterministic in ``(router state, telemetry state, arguments)``:
        the exploration schedule is a counter, scoring reads are pure,
        and ties break on candidate order.
        """
        band = samples_band(samples)
        hops = hops_band(max_hops)
        eligible = self._eligible(max_hops, unavailable)

        scores: Dict[str, Optional[float]] = {}
        evidence: Dict[str, Dict[str, float]] = {}
        observations: Dict[str, int] = {}
        for method in eligible:
            stats: Optional[BucketStats] = self.telemetry.observed(
                method,
                fingerprint=fingerprint,
                samples=samples,
                max_hops=max_hops,
            )
            observations[method] = 0 if stats is None else stats.count
            if stats is None or stats.count < self.min_observations:
                scores[method] = None
                continue
            scores[method] = stats.seconds_per_sample * (
                stats.estimate_variance + VARIANCE_FLOOR
            )
            evidence[method] = stats.to_dict()

        warm = [method for method in eligible if scores[method] is not None]
        if not warm:
            recommendation = recommend_estimator(
                memory_limited=memory_limited,
                max_hops=max_hops,
                unavailable=tuple(unavailable),
            )
            picks = [
                key for key in recommendation.estimators if key in eligible
            ]
            method = picks[0] if picks else eligible[0]
            self._count_reason("cold_start")
            return RoutingDecision(
                method=method,
                reason="cold_start",
                fingerprint=fingerprint,
                samples_band=band,
                hops_band=hops,
                scores=scores,
                evidence=evidence,
                static_path=tuple(recommendation.path),
            )

        decision_index = self._bucket_decision_count(fingerprint, band, hops)
        if (
            self._explore_interval
            and decision_index % self._explore_interval
            == self._explore_interval - 1
        ):
            # The exploration slot: re-measure the least-known candidate
            # (ties broken by candidate order, so the walk is stable).
            method = min(eligible, key=lambda key: (observations[key],))
            self._count_reason("exploration")
            return RoutingDecision(
                method=method,
                reason="exploration",
                fingerprint=fingerprint,
                samples_band=band,
                hops_band=hops,
                scores=scores,
                evidence=evidence,
            )

        method = min(warm, key=lambda key: (scores[key],))
        self._count_reason("measured")
        return RoutingDecision(
            method=method,
            reason="measured",
            fingerprint=fingerprint,
            samples_band=band,
            hops_band=hops,
            scores=scores,
            evidence=evidence,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> Dict[str, object]:
        """Router-lifetime counters for ``/v1/stats`` (lock-free read)."""
        return {
            "candidates": list(self.candidates),
            "epsilon": self.epsilon,
            "min_observations": self.min_observations,
            "decisions": dict(self._reason_counts),
            "buckets_routed": len(self._decisions),
        }


__all__ = [
    "DEFAULT_CANDIDATES",
    "DEFAULT_EPSILON",
    "DEFAULT_MIN_OBSERVATIONS",
    "VARIANCE_FLOOR",
    "AdaptiveRouter",
    "RoutingDecision",
]
