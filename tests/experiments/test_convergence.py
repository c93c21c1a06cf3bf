"""Tests for the convergence framework (paper §3.1.4)."""

import functools

import numpy as np
import pytest

from repro.core.estimators.base import Estimator
from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.core.graph import UncertainGraph
from repro.datasets.queries import QueryWorkload
from repro.engine.batch import BatchEngine
from repro.engine.cache import ResultCache
from repro.experiments.convergence import (
    ConvergenceCriterion,
    evaluate_at_k,
    run_convergence,
)


class StubEstimator(Estimator):
    """Deterministic noise model: estimate = R + noise/sqrt(K).

    Lets convergence tests control exactly when the dispersion criterion
    fires without any graph sampling.
    """

    key = "stub"
    display_name = "Stub"

    def __init__(self, graph, *, reliability=0.4, noise=1.0, seed=None):
        super().__init__(graph, seed=seed)
        self.reliability = reliability
        self.noise = noise

    def _estimate(self, source, target, samples, rng):
        wobble = self.noise * rng.standard_normal() / np.sqrt(samples)
        return float(np.clip(self.reliability + wobble, 0.0, 1.0))


@pytest.fixture
def workload():
    return QueryWorkload(pairs=((0, 1), (0, 2)), hop_distance=1, seed=0)


@pytest.fixture
def graph():
    return UncertainGraph(3, [(0, 1, 0.5), (0, 2, 0.5)])


class TestCriterion:
    def test_grid(self):
        criterion = ConvergenceCriterion(k_start=250, k_step=250, k_max=1000)
        assert criterion.grid() == [250, 500, 750, 1000]

    def test_default_threshold_is_paper_value(self):
        assert ConvergenceCriterion().dispersion_threshold == 1e-3


class TestEvaluateAtK:
    def test_point_fields(self, graph, workload):
        estimator = StubEstimator(graph)
        point = evaluate_at_k(estimator, workload, samples=100, repeats=6, seed=0)
        assert point.samples == 100
        assert 0.0 <= point.average_reliability <= 1.0
        assert point.average_variance >= 0.0
        assert point.per_pair_means.shape == (2,)
        assert point.seconds_per_query > 0
        assert point.memory_bytes > 0

    def test_single_repeat_has_zero_variance(self, graph, workload):
        estimator = StubEstimator(graph)
        point = evaluate_at_k(estimator, workload, samples=100, repeats=1, seed=0)
        assert point.average_variance == 0.0

    def test_reproducible(self, graph, workload):
        a = evaluate_at_k(StubEstimator(graph), workload, 100, repeats=4, seed=3)
        b = evaluate_at_k(StubEstimator(graph), workload, 100, repeats=4, seed=3)
        np.testing.assert_array_equal(a.per_pair_means, b.per_pair_means)

    def test_milliseconds_per_sample(self, graph, workload):
        point = evaluate_at_k(StubEstimator(graph), workload, 200, repeats=2, seed=0)
        expected = 1000.0 * point.seconds_per_query / 200
        assert point.milliseconds_per_sample == pytest.approx(expected)


class TestRunConvergence:
    def test_low_noise_converges_immediately(self, graph, workload):
        estimator = StubEstimator(graph, noise=0.01)
        result = run_convergence(
            estimator,
            workload,
            criterion=ConvergenceCriterion(k_start=250, k_step=250, k_max=750),
            repeats=5,
            seed=0,
        )
        assert result.converged_at == 250

    def test_high_noise_never_converges(self, graph, workload):
        estimator = StubEstimator(graph, noise=50.0)
        result = run_convergence(
            estimator,
            workload,
            criterion=ConvergenceCriterion(k_start=250, k_step=250, k_max=750),
            repeats=5,
            seed=0,
        )
        assert result.converged_at is None
        # Non-converged results still expose the last grid point.
        assert result.convergence_point.samples == 750

    def test_full_grid_measured_by_default(self, graph, workload):
        estimator = StubEstimator(graph, noise=0.01)
        criterion = ConvergenceCriterion(k_start=250, k_step=250, k_max=1000)
        result = run_convergence(
            estimator, workload, criterion=criterion, repeats=3, seed=0
        )
        assert [p.samples for p in result.points] == [250, 500, 750, 1000]

    def test_stop_at_convergence_truncates(self, graph, workload):
        estimator = StubEstimator(graph, noise=0.01)
        criterion = ConvergenceCriterion(k_start=250, k_step=250, k_max=1000)
        result = run_convergence(
            estimator,
            workload,
            criterion=criterion,
            repeats=3,
            seed=0,
            stop_at_convergence=True,
        )
        assert len(result.points) == 1

    def test_point_at(self, graph, workload):
        estimator = StubEstimator(graph, noise=0.01)
        result = run_convergence(
            estimator,
            workload,
            criterion=ConvergenceCriterion(k_start=100, k_step=100, k_max=300),
            repeats=3,
            seed=0,
        )
        assert result.point_at(200).samples == 200
        assert result.point_at(9999) is None

    def test_variance_shrinks_with_k_for_real_estimator(self, graph, workload):
        # Sanity against a real estimator: V_K decreases in K.
        estimator = MonteCarloEstimator(graph)
        result = run_convergence(
            estimator,
            workload,
            criterion=ConvergenceCriterion(
                dispersion_threshold=0.0, k_start=50, k_step=450, k_max=500
            ),
            repeats=20,
            seed=0,
        )
        assert result.points[-1].average_variance < result.points[0].average_variance


class TestEngineFactoryWiring:
    def test_cached_grid_point_replays_identically(self, graph, workload):
        # One factory, one cache — the shape a service hands a study.
        engine = functools.partial(BatchEngine, cache=ResultCache(64))
        mc = MonteCarloEstimator(graph, seed=0)
        cold = evaluate_at_k(
            mc, workload, samples=150, repeats=2, seed=1,
            use_batch=True, engine=engine,
        )
        warm_mc = MonteCarloEstimator(graph, seed=0)
        warm = evaluate_at_k(
            warm_mc, workload, samples=150, repeats=2, seed=1,
            use_batch=True, engine=engine,
        )
        np.testing.assert_array_equal(
            cold.per_pair_means, warm.per_pair_means
        )
        # The warm grid point was served from the factory's cache: its
        # last repeat's batch sampled nothing, while the cold run sampled.
        assert mc.last_batch_result.worlds_sampled > 0
        assert warm_mc.last_batch_result.worlds_sampled == 0
