"""Tests for the convergence framework (paper §3.1.4)."""

import numpy as np
import pytest

from repro.core.estimators.base import Estimator
from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.core.graph import UncertainGraph
from repro.core.registry import PAPER_ESTIMATORS, create_estimator
from repro.datasets.queries import QueryWorkload
from repro.experiments.convergence import (
    ConvergenceCriterion,
    evaluate_at_k,
    run_convergence,
)
from repro.experiments.runner import StudyConfig
from repro.util.rng import stable_substream
from tests.conftest import random_graph


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


ESTIMATOR_CLASSES = pytest.mark.parametrize(
    "estimator_class", [StubEstimator, MonteCarloEstimator], ids=["stub", "mc"]
)


class TestEvaluateAtK:
    @ESTIMATOR_CLASSES
    def test_point_fields(self, graph, workload, estimator_class):
        estimator = estimator_class(graph)
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

    @ESTIMATOR_CLASSES
    def test_reproducible(self, graph, workload, estimator_class):
        a = evaluate_at_k(estimator_class(graph), workload, 100, repeats=4, seed=3)
        b = evaluate_at_k(estimator_class(graph), workload, 100, repeats=4, seed=3)
        np.testing.assert_array_equal(a.per_pair_means, b.per_pair_means)
        assert a.average_variance == b.average_variance

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


@pytest.fixture(scope="module")
def sampled_graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


SAMPLED_WORKLOAD = QueryWorkload(
    pairs=((0, 3), (1, 4), (2, 6)), hop_distance=2, seed=0
)


class TestProtocol:
    """The per-(pair, repeat) substream protocol against real estimators."""

    def test_every_cell_is_one_run_on_its_own_substream(self, sampled_graph):
        samples, repeats, seed = 120, 3, 4
        point = evaluate_at_k(
            MonteCarloEstimator(sampled_graph, seed=0),
            SAMPLED_WORKLOAD, samples, repeats, seed,
        )
        mc = MonteCarloEstimator(sampled_graph, seed=0)
        cells = np.array(
            [
                [
                    mc.estimate(
                        source, target, samples,
                        rng=stable_substream(seed, pair, repeat, samples),
                    )
                    for repeat in range(repeats)
                ]
                for pair, (source, target) in enumerate(SAMPLED_WORKLOAD)
            ]
        )
        np.testing.assert_array_equal(point.per_pair_means, cells.mean(axis=1))
        assert point.average_variance == cells.var(axis=1, ddof=1).mean()

    def test_a_pair_ignores_the_pairs_after_it(self, sampled_graph):
        # Substreams are keyed by pair position, not by the workload size.
        head = QueryWorkload(pairs=((0, 3),), hop_distance=2, seed=0)
        alone = evaluate_at_k(
            MonteCarloEstimator(sampled_graph, seed=0), head, 150, 3, seed=2
        )
        among = evaluate_at_k(
            MonteCarloEstimator(sampled_graph, seed=0),
            SAMPLED_WORKLOAD, 150, 3, seed=2,
        )
        assert alone.per_pair_means[0] == among.per_pair_means[0]

    def test_the_seed_picks_the_substreams(self, sampled_graph):
        mc = MonteCarloEstimator(sampled_graph, seed=0)
        a = evaluate_at_k(mc, SAMPLED_WORKLOAD, 150, repeats=3, seed=1)
        b = evaluate_at_k(mc, SAMPLED_WORKLOAD, 150, repeats=3, seed=2)
        assert not np.array_equal(a.per_pair_means, b.per_pair_means)

    def test_convergence_points_are_their_grid_point_evaluations(
        self, sampled_graph
    ):
        criterion = ConvergenceCriterion(k_start=100, k_step=100, k_max=300)
        result = run_convergence(
            MonteCarloEstimator(sampled_graph, seed=0),
            SAMPLED_WORKLOAD, criterion=criterion, repeats=3, seed=5,
        )
        for point in result.points:
            alone = evaluate_at_k(
                MonteCarloEstimator(sampled_graph, seed=0),
                SAMPLED_WORKLOAD, point.samples, repeats=3, seed=5,
            )
            np.testing.assert_array_equal(
                point.per_pair_means, alone.per_pair_means
            )

    @pytest.mark.parametrize("key", PAPER_ESTIMATORS)
    def test_estimator_history_cannot_change_a_grid_point(
        self, sampled_graph, key
    ):
        # Independent runs: a grid point measured after other grid points
        # equals the same grid point on a freshly built estimator.
        options = StudyConfig(dataset="lastfm").options_for(key)

        def build():
            return create_estimator(key, sampled_graph, seed=0, **options)

        walked = build()
        for samples in (100, 300):
            evaluate_at_k(walked, SAMPLED_WORKLOAD, samples, repeats=2, seed=3)
        after = evaluate_at_k(walked, SAMPLED_WORKLOAD, 200, repeats=2, seed=3)
        fresh = evaluate_at_k(build(), SAMPLED_WORKLOAD, 200, repeats=2, seed=3)
        np.testing.assert_array_equal(
            after.per_pair_means, fresh.per_pair_means
        )

