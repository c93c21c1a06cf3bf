"""The study protocol, pinned number for number.

``pinned_study.json`` was recorded from the per-(pair, repeat) substream
protocol on ``lastfm``/``tiny``: 3 pairs, 3 repeats, K grid 250..750, four
estimators.  Every grid point's average reliability, average variance,
per-pair means and reported memory, and every estimator's convergence K,
must come out *exactly* the same through both entry points — the direct
runner and the service facade.  A change to the workload, the substream
keys, an estimator's sampling or its memory accounting fails here.
"""

import json
from pathlib import Path

import pytest

from repro.api import ReliabilityService
from repro.experiments.convergence import ConvergenceCriterion
from repro.experiments.runner import StudyConfig, run_study

PINNED = json.loads(
    (Path(__file__).with_name("pinned_study.json")).read_text(encoding="utf-8")
)

CONFIG = StudyConfig(
    dataset="lastfm",
    scale="tiny",
    pair_count=3,
    repeats=3,
    criterion=ConvergenceCriterion(k_start=250, k_step=250, k_max=750),
    estimators=("mc", "rhh", "bfs_sharing", "prob_tree"),
    seed=0,
)


def summary(result):
    """The study's numbers in the pinned file's shape (floats exact)."""
    return {
        key: {
            "converged_at": convergence.converged_at,
            "points": [
                {
                    "samples": point.samples,
                    "average_reliability": point.average_reliability,
                    "average_variance": point.average_variance,
                    "per_pair_means": point.per_pair_means.tolist(),
                    "memory_bytes": int(point.memory_bytes),
                }
                for point in convergence.points
            ],
        }
        for key, convergence in result.results.items()
    }


def run_through_service():
    with ReliabilityService.from_dataset(
        CONFIG.dataset, CONFIG.scale, CONFIG.seed
    ) as service:
        return service.study(CONFIG)


@pytest.mark.parametrize(
    "entry_point",
    [lambda: run_study(CONFIG), run_through_service],
    ids=["run_study", "service.study"],
)
def test_study_reproduces_the_pinned_numbers(entry_point):
    assert summary(entry_point()) == PINNED
