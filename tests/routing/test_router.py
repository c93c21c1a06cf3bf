"""Tests for the adaptive router's decision logic."""

import pytest

from repro.core.recommend import recommend_estimator
from repro.core.registry import estimator_keys
from repro.routing import (
    DEFAULT_CANDIDATES,
    AdaptiveRouter,
    QueryTelemetry,
)
from repro.routing import router as router_module


def warm(telemetry, method, *, seconds, estimates, fingerprint="fp",
         samples=1_000, max_hops=None):
    """Feed a bucket past the trust threshold with a known profile."""
    for estimate in estimates:
        telemetry.record(
            method,
            fingerprint=fingerprint,
            samples=samples,
            max_hops=max_hops,
            seconds=seconds,
            estimate=estimate,
        )


@pytest.fixture
def telemetry():
    return QueryTelemetry()


@pytest.fixture
def router(telemetry):
    return AdaptiveRouter(telemetry)


class TestColdStart:
    def test_cold_routes_follow_static_tree(self, router):
        decision = router.route(fingerprint="fp", samples=1_000)
        static = recommend_estimator(memory_limited=False)
        expected = [
            key for key in static.estimators if key in DEFAULT_CANDIDATES
        ]
        assert decision.reason == "cold_start"
        assert decision.method == expected[0]
        assert decision.static_path == tuple(static.path)
        assert all(score is None for score in decision.scores.values())

    def test_cold_start_respects_memory_limit(self, router):
        decision = router.route(
            fingerprint="fp", samples=1_000, memory_limited=True
        )
        static = recommend_estimator(memory_limited=True)
        picks = [
            key for key in static.estimators if key in DEFAULT_CANDIDATES
        ]
        assert decision.method == picks[0]


class TestMeasuredRouting:
    def test_lowest_cost_times_dispersion_wins(self, telemetry, router):
        # mc: slow but steady; rss: fast and steady -> rss wins.
        warm(telemetry, "mc", seconds=1.0, estimates=[0.5] * 6)
        warm(telemetry, "rss", seconds=0.1, estimates=[0.5] * 6)
        decision = router.route(fingerprint="fp", samples=1_000)
        assert decision.reason == "measured"
        assert decision.method == "rss"
        assert decision.scores["rss"] < decision.scores["mc"]
        assert decision.evidence["rss"]["count"] == 6

    def test_dispersion_penalises_noisy_estimator(self, telemetry, router):
        # Same speed, but one answers with huge spread: steady one wins.
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 8)
        warm(
            telemetry,
            "rss",
            seconds=0.1,
            estimates=[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
        )
        decision = router.route(fingerprint="fp", samples=1_000)
        assert decision.method == "mc"

    def test_below_min_observations_stays_cold(self, telemetry, router):
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 4)  # < 5
        decision = router.route(fingerprint="fp", samples=1_000)
        assert decision.reason == "cold_start"

    def test_new_fingerprint_is_cold(self, telemetry, router):
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 6)
        assert router.route(fingerprint="fp", samples=1_000).reason == "measured"
        assert (
            router.route(fingerprint="fp2", samples=1_000).reason
            == "cold_start"
        )


class TestExploration:
    def test_every_tenth_decision_explores(self, telemetry, router):
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 6)
        reasons = [
            router.route(fingerprint="fp", samples=1_000).reason
            for _ in range(20)
        ]
        assert reasons.count("exploration") == 2
        assert reasons[9] == "exploration"
        assert reasons[19] == "exploration"

    def test_exploration_picks_least_observed(self, telemetry, router):
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 6)
        warm(telemetry, "rss", seconds=0.1, estimates=[0.5] * 5)
        decisions = [
            router.route(fingerprint="fp", samples=1_000) for _ in range(10)
        ]
        explored = decisions[9]
        assert explored.reason == "exploration"
        # Every candidate except mc/rss has zero observations; the stable
        # tie-break picks the first zero-count candidate in pool order.
        zero_counts = [
            key for key in router.candidates if key not in ("mc", "rss")
        ]
        assert explored.method == zero_counts[0]

    def test_epsilon_zero_never_explores(self, telemetry, monkeypatch):
        monkeypatch.setattr(router_module, "DEFAULT_EPSILON", 0.0)
        router = AdaptiveRouter(telemetry)
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 6)
        reasons = {
            router.route(fingerprint="fp", samples=1_000).reason
            for _ in range(30)
        }
        assert reasons == {"measured"}


class TestEligibility:
    def test_hop_bound_restricts_to_engine_methods(self, telemetry, router):
        warm(telemetry, "rss", seconds=0.01, estimates=[0.5] * 6)
        decision = router.route(fingerprint="fp", samples=1_000, max_hops=3)
        assert decision.method in ("mc", "bfs_sharing")
        assert "rss" not in decision.scores

    def test_unavailable_methods_excluded(self, telemetry, router):
        warm(telemetry, "mc", seconds=0.01, estimates=[0.5] * 6)
        warm(telemetry, "rss", seconds=1.0, estimates=[0.5] * 6)
        decision = router.route(
            fingerprint="fp", samples=1_000, unavailable=("mc",)
        )
        assert decision.method == "rss"

    def test_everything_blacklisted_falls_back_to_mc(self, router):
        decision = router.route(
            fingerprint="fp",
            samples=1_000,
            unavailable=DEFAULT_CANDIDATES,
        )
        assert decision.method == "mc"


class TestConstruction:
    def test_default_candidates_are_registered_estimators(self):
        assert DEFAULT_CANDIDATES
        assert set(DEFAULT_CANDIDATES) <= set(estimator_keys())


class TestIntrospection:
    def test_statistics_counts_reasons(self, telemetry, router):
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 6)
        for _ in range(10):
            router.route(fingerprint="fp", samples=1_000)
        router.route(fingerprint="cold-fp", samples=1_000)
        stats = router.statistics()
        assert stats["decisions"]["measured"] == 9
        assert stats["decisions"]["exploration"] == 1
        assert stats["decisions"]["cold_start"] == 1
        assert stats["buckets_routed"] == 1  # cold routes skip the counter
        assert stats["candidates"] == list(DEFAULT_CANDIDATES)

    def test_decision_serialises(self, telemetry, router):
        warm(telemetry, "mc", seconds=0.1, estimates=[0.5] * 6)
        payload = router.route(fingerprint="fp", samples=1_000).to_dict()
        assert payload["method"] == "mc"
        assert payload["reason"] == "measured"
        assert "static_path" not in payload
        cold = router.route(fingerprint="fresh", samples=1_000).to_dict()
        assert cold["static_path"]
