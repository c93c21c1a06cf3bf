"""Tests for the query-telemetry accumulator layer."""

import threading

import numpy as np
import pytest

from repro.routing import telemetry as telemetry_module
from repro.routing.telemetry import (
    QueryTelemetry,
    bucket_key,
    hops_band,
    samples_band,
)


class TestBucketing:
    def test_samples_band_is_power_of_two_wide(self):
        assert samples_band(1) == 1
        assert samples_band(1_000) == samples_band(1_023)
        assert samples_band(1_024) == samples_band(2_047)
        assert samples_band(1_023) != samples_band(1_024)

    def test_hops_band(self):
        assert hops_band(None) == -1
        assert hops_band(3) == 3

    def test_bucket_key_separates_every_dimension(self):
        base = bucket_key("fp", "mc", 1_000, None)
        assert bucket_key("fp2", "mc", 1_000, None) != base
        assert bucket_key("fp", "rss", 1_000, None) != base
        assert bucket_key("fp", "mc", 5_000, None) != base
        assert bucket_key("fp", "mc", 1_000, 3) != base


class TestAccumulation:
    def test_cold_bucket_reads_none(self):
        telemetry = QueryTelemetry()
        assert (
            telemetry.observed("mc", fingerprint="fp", samples=100, max_hops=None)
            is None
        )
        telemetry.record(
            "mc",
            fingerprint="fp",
            samples=100,
            max_hops=None,
            seconds=0.01,
            estimate=0.5,
        )
        stats = telemetry.observed("mc", fingerprint="fp", samples=100, max_hops=None)
        assert stats.count == 1

    def test_welford_matches_numpy(self):
        telemetry = QueryTelemetry()
        rng = np.random.default_rng(0)
        latencies = rng.uniform(0.001, 0.1, size=50)
        estimates = rng.uniform(0.0, 1.0, size=50)
        for seconds, estimate in zip(latencies, estimates):
            telemetry.record(
                "mc",
                fingerprint="fp",
                samples=100,
                max_hops=None,
                seconds=float(seconds),
                estimate=float(estimate),
            )
        stats = telemetry.observed(
            "mc", fingerprint="fp", samples=100, max_hops=None
        )
        assert stats.count == 50
        per_sample = latencies / 100
        assert stats.seconds_per_sample == pytest.approx(per_sample.mean())
        assert stats.latency_variance == pytest.approx(
            per_sample.var(ddof=1)
        )
        assert stats.estimate_mean == pytest.approx(estimates.mean())
        assert stats.estimate_variance == pytest.approx(
            estimates.var(ddof=1)
        )

    def test_seconds_normalised_per_sample(self):
        telemetry = QueryTelemetry()
        telemetry.record(
            "mc",
            fingerprint="fp",
            samples=1_000,
            max_hops=None,
            seconds=2.0,
            estimate=0.5,
        )
        stats = telemetry.observed(
            "mc", fingerprint="fp", samples=1_000, max_hops=None
        )
        assert stats.seconds_per_sample == pytest.approx(0.002)

    def test_capacity_drops_new_buckets_not_old(self, monkeypatch):
        monkeypatch.setattr(telemetry_module, "DEFAULT_BUCKET_CAPACITY", 2)
        telemetry = QueryTelemetry()
        for fingerprint in ("a", "b", "c"):
            telemetry.record(
                "mc",
                fingerprint=fingerprint,
                samples=100,
                max_hops=None,
                seconds=0.01,
                estimate=0.5,
            )
        assert (
            telemetry.observed("mc", fingerprint="a", samples=100, max_hops=None)
            is not None
        )
        assert (
            telemetry.observed("mc", fingerprint="c", samples=100, max_hops=None)
            is None
        )
        snapshot = telemetry.snapshot()
        assert snapshot["buckets"] == 2
        assert snapshot["dropped_observations"] == 1


class TestSnapshot:
    def test_snapshot_aggregates_per_method(self):
        telemetry = QueryTelemetry()
        for samples in (100, 100, 5_000):
            telemetry.record(
                "mc",
                fingerprint="fp",
                samples=samples,
                max_hops=None,
                seconds=0.01,
                estimate=0.5,
            )
        telemetry.record(
            "rss",
            fingerprint="fp",
            samples=100,
            max_hops=None,
            seconds=0.05,
            estimate=0.4,
        )
        snapshot = telemetry.snapshot()
        assert snapshot["observations"] == 4
        assert snapshot["methods"]["mc"]["observations"] == 3
        assert snapshot["methods"]["mc"]["buckets"] == 2
        assert snapshot["methods"]["rss"]["observations"] == 1

    def test_snapshot_filters_by_fingerprint(self):
        telemetry = QueryTelemetry()
        for fingerprint in ("old", "new"):
            telemetry.record(
                "mc",
                fingerprint=fingerprint,
                samples=100,
                max_hops=None,
                seconds=0.01,
                estimate=0.5,
            )
        snapshot = telemetry.snapshot("new")
        assert snapshot["methods"]["mc"]["observations"] == 1
        # Lifetime totals stay lifetime-wide; only the method view filters.
        assert snapshot["observations"] == 2


class TestConcurrency:
    def test_hammered_writes_lose_nothing(self):
        telemetry = QueryTelemetry()
        per_thread = 500

        def writer(method):
            for _ in range(per_thread):
                telemetry.record(
                    method,
                    fingerprint="fp",
                    samples=100,
                    max_hops=None,
                    seconds=0.01,
                    estimate=0.5,
                )

        threads = [
            threading.Thread(target=writer, args=(method,))
            for method in ("mc", "rss", "mc", "rss")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = telemetry.snapshot()
        assert snapshot["observations"] == 4 * per_thread
        assert snapshot["methods"]["mc"]["observations"] == 2 * per_thread
