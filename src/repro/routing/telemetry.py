"""Online per-estimator query telemetry, bucketed for routing.

Every served query teaches the service something: how long the chosen
estimator took per sample, and what it answered.  :class:`QueryTelemetry`
accumulates both as running (count, mean, variance) triples — Welford's
algorithm, so one pass, O(1) per observation, no stored histories — in
buckets keyed by

``(graph fingerprint, method, samples band, hop band)``

* the **fingerprint** versions the bucket: after a live ``/v1/update``
  the successor graph's fingerprint differs, so old observations simply
  stop matching new lookups — the exact-invalidation idiom the result
  cache established (nothing is purged; a reverted graph re-warms
  instantly);
* the **samples band** is ``K.bit_length()`` — queries within a factor
  of two of each other share a bucket, since per-sample cost is the
  stable quantity while total cost scales with K;
* the **hop band** is the ``max_hops`` value itself (``-1`` when
  unbounded) — hop bounds are small integers and change both cost and
  the answer's meaning, so they never share buckets with unbounded
  queries.

Concurrency follows the service's stats-path recipe: writes take one
micro-lock (an observation is a handful of float ops — never held
across estimator or engine work), reads take none.  A lock-free read
can see a bucket mid-update (a count one ahead of its mean); routing
tolerates that the way ``/v1/stats`` snapshots do — the next read is
consistent, and no decision depends on one observation's exactness.

The bucket map is bounded: past :data:`DEFAULT_BUCKET_CAPACITY` distinct
keys, new buckets are dropped and counted (``dropped_observations``),
never evicted — the hot buckets of a workload big enough to overflow are
in the map long before it fills, mirroring the re-warm query log.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Bound on distinct (fingerprint, method, K-band, hop-band) buckets.
DEFAULT_BUCKET_CAPACITY = 4096

#: Bucket key: (fingerprint, method, samples_band, hops_band).
BucketKey = Tuple[str, str, int, int]


def samples_band(samples: int) -> int:
    """The power-of-two band of a sample budget K."""
    return int(samples).bit_length()


def hops_band(max_hops: Optional[int]) -> int:
    """The hop-bound band: the bound itself, ``-1`` when unbounded."""
    return -1 if max_hops is None else int(max_hops)


def bucket_key(
    fingerprint: str,
    method: str,
    samples: int,
    max_hops: Optional[int],
) -> BucketKey:
    return (fingerprint, method, samples_band(samples), hops_band(max_hops))


class _Accumulator:
    """Welford running (count, mean, variance) over one scalar stream."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (0.0 until two observations exist)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)


@dataclass(frozen=True)
class BucketStats:
    """One bucket's snapshot, the evidence a routing decision cites."""

    count: int
    seconds_per_sample: float
    latency_variance: float
    estimate_mean: float
    estimate_variance: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "seconds_per_sample": self.seconds_per_sample,
            "latency_variance": self.latency_variance,
            "estimate_mean": self.estimate_mean,
            "estimate_variance": self.estimate_variance,
        }


class QueryTelemetry:
    """Bucketed per-estimator latency and dispersion accumulators."""

    def __init__(self) -> None:
        # Read here, not as a default argument, so tests can monkeypatch.
        self.capacity = DEFAULT_BUCKET_CAPACITY
        self._lock = threading.Lock()
        #: key -> (latency-per-sample accumulator, estimate accumulator).
        self._buckets: Dict[  # guarded-by: _lock
            BucketKey, Tuple[_Accumulator, _Accumulator]
        ] = {}
        self._observations = 0  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Writes (micro-locked)
    # ------------------------------------------------------------------

    def record(
        self,
        method: str,
        *,
        fingerprint: str,
        samples: int,
        max_hops: Optional[int],
        seconds: float,
        estimate: float,
    ) -> None:
        """Fold one served query into its bucket.

        ``seconds`` is the whole query's wall clock; it is normalised to
        per-sample cost here so differently-sized queries in one K band
        are comparable.
        """
        key = bucket_key(fingerprint, method, samples, max_hops)
        per_sample = float(seconds) / max(int(samples), 1)
        with self._lock:
            entry = self._buckets.get(key)
            if entry is None:
                if len(self._buckets) >= self.capacity:
                    self._dropped += 1
                    return
                entry = (_Accumulator(), _Accumulator())
                self._buckets[key] = entry
            entry[0].update(per_sample)
            entry[1].update(float(estimate))
            self._observations += 1

    # ------------------------------------------------------------------
    # Reads (lock-free, stats-path tolerance)
    # ------------------------------------------------------------------

    def observed(
        self,
        method: str,
        *,
        fingerprint: str,
        samples: int,
        max_hops: Optional[int],
    ) -> Optional[BucketStats]:
        """The bucket snapshot a lookup would route on, or ``None`` (cold)."""
        key = bucket_key(fingerprint, method, samples, max_hops)
        entry = self._buckets.get(key)
        if entry is None:
            return None
        latency, estimate = entry
        return BucketStats(
            count=latency.count,
            seconds_per_sample=latency.mean,
            latency_variance=latency.variance,
            estimate_mean=estimate.mean,
            estimate_variance=estimate.variance,
        )

    def observation_count(
        self,
        method: str,
        *,
        fingerprint: str,
        samples: int,
        max_hops: Optional[int],
    ) -> int:
        """How many observations ``method``'s bucket holds (0 when cold)."""
        entry = self._buckets.get(
            bucket_key(fingerprint, method, samples, max_hops)
        )
        return 0 if entry is None else entry[0].count

    def snapshot(self, fingerprint: Optional[str] = None) -> Dict[str, object]:
        """Aggregate view for ``/v1/stats``.

        Per-method totals are aggregated over buckets (restricted to
        ``fingerprint``'s when one is given — the live graph's view);
        the bucket map itself is too wide to serialise per request.
        """
        methods: Dict[str, Dict[str, float]] = {}
        # Lock-free read: ``sorted`` first materialises a shallow copy
        # (so concurrent inserts cannot raise mid-iteration), and the
        # sort pins the float-fold order to the key order — the totals
        # must not depend on which thread inserted its bucket first.
        for (key_fp, method, _, _), (latency, _) in sorted(
            self._buckets.items()
        ):
            if fingerprint is not None and key_fp != fingerprint:
                continue
            into = methods.setdefault(
                method, {"observations": 0, "buckets": 0, "seconds": 0.0}
            )
            into["observations"] += latency.count
            into["buckets"] += 1
            into["seconds"] += latency.mean * latency.count
        return {
            "observations": self._observations,
            "buckets": len(self._buckets),
            "dropped_observations": self._dropped,
            "methods": {
                method: {
                    "observations": int(totals["observations"]),
                    "buckets": int(totals["buckets"]),
                    "seconds_per_sample": (
                        totals["seconds"] / totals["observations"]
                        if totals["observations"]
                        else 0.0
                    ),
                }
                for method, totals in sorted(methods.items())
            },
        }


__all__ = [
    "DEFAULT_BUCKET_CAPACITY",
    "BucketKey",
    "BucketStats",
    "QueryTelemetry",
    "bucket_key",
    "samples_band",
    "hops_band",
]
