"""Integration tests for the study runner (small but end-to-end)."""

import pytest

from repro.datasets.suite import load_dataset
from repro.experiments.convergence import ConvergenceCriterion
from repro.experiments.runner import StudyConfig, build_estimator, run_study


@pytest.fixture(scope="module")
def study_result():
    config = StudyConfig(
        dataset="lastfm",
        scale="tiny",
        pair_count=4,
        repeats=4,
        criterion=ConvergenceCriterion(k_start=100, k_step=400, k_max=500),
        estimators=("mc", "rhh"),
        seed=0,
    )
    return run_study(config)


class TestStudyConfig:
    def test_bfs_sharing_options_injected(self):
        config = StudyConfig(dataset="lastfm")
        options = config.options_for("bfs_sharing")
        assert options["capacity"] == config.criterion.k_max
        assert options["refresh_per_query"] is True

    def test_user_options_win(self):
        config = StudyConfig(
            dataset="lastfm",
            estimator_options={"bfs_sharing": {"capacity": 99}},
        )
        assert config.options_for("bfs_sharing")["capacity"] == 99

    def test_plain_estimator_has_no_injected_options(self):
        assert StudyConfig(dataset="lastfm").options_for("mc") == {}


class TestStudyResult:
    def test_results_per_estimator(self, study_result):
        assert set(study_result.results) == {"mc", "rhh"}

    def test_accuracy_rows_shape(self, study_result):
        rows = study_result.accuracy_rows()
        assert len(rows) == 3  # two estimators + pairwise deviation
        assert rows[0]["estimator"] == "MC"
        assert rows[-1]["estimator"] == "Pairwise Deviation"

    def test_mc_reference_has_zero_error_at_convergence(self, study_result):
        rows = study_result.accuracy_rows()
        assert float(rows[0]["RE_conv_%"]) == 0.0

    def test_runtime_rows_shape(self, study_result):
        rows = study_result.runtime_rows()
        assert len(rows) == 2
        assert float(rows[0]["time_conv_s"]) > 0

    def test_memory_rows_shape(self, study_result):
        rows = study_result.memory_rows()
        assert len(rows) == 2
        assert int(rows[0]["memory_bytes"]) > 0

    def test_dispersion_series_covers_grid(self, study_result):
        series = study_result.dispersion_series()
        assert [point["K"] for point in series["mc"]] == [100, 500]

    def test_prepare_seconds_recorded(self, study_result):
        assert set(study_result.prepare_seconds) == {"mc", "rhh"}

    def test_workload_shared_between_estimators(self, study_result):
        assert len(study_result.workload) == 4

    def test_reference_is_probability_vector(self, study_result):
        reference = study_result.reference_per_pair
        assert reference.shape == (4,)
        assert ((reference >= 0) & (reference <= 1)).all()


class TestStudyInputs:
    def test_estimators_are_fresh_and_carry_the_study_options(self):
        config = StudyConfig(dataset="lastfm", scale="tiny")
        graph = load_dataset("lastfm", "tiny", 0).graph
        first = build_estimator(config, "bfs_sharing", graph)
        second = build_estimator(config, "bfs_sharing", graph)
        assert first is not second
        assert first.graph is graph
        assert first.capacity == config.criterion.k_max
        assert first.refresh_per_query is True
