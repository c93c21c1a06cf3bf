"""Experiment orchestration: one *study* = one dataset, all estimators.

A study reproduces, for a single dataset, everything the paper derives from
its convergence protocol: the rho_K curves (Fig. 7), the accuracy tables
(Tables 3-8), the runtime tables (Tables 9-14), and the memory comparison
(Fig. 12).  Benchmarks configure a study per dataset and render the rows via
:mod:`repro.experiments.report`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.estimators.base import Estimator
from repro.core.registry import PAPER_ESTIMATORS, create_estimator, display_name
from repro.datasets.queries import QueryWorkload, generate_workload
from repro.datasets.suite import Dataset, load_dataset
from repro.experiments.convergence import (
    ConvergenceCriterion,
    ConvergenceResult,
    run_convergence,
)
from repro.experiments.metrics import deviation_of, relative_error
from repro.experiments.memory import format_bytes

REFERENCE_ESTIMATOR = "mc"  # the paper's accuracy baseline (Eq. 14)
REPORT_SAMPLE_SIZE = 1_000  # the fixed K prior work compared at


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one dataset-level study.

    The paper's full protocol is ``pair_count=100, repeats=100``; defaults
    here are sized for the Python substrate and overridable everywhere.
    """

    dataset: str
    scale: str = "small"
    pair_count: int = 10
    hop_distance: int = 2
    repeats: int = 8
    criterion: ConvergenceCriterion = ConvergenceCriterion()
    estimators: Sequence[str] = tuple(PAPER_ESTIMATORS)
    seed: int = 0
    estimator_options: Dict[str, dict] = field(default_factory=dict)

    def options_for(self, key: str) -> dict:
        options = dict(self.estimator_options.get(key, {}))
        if key == "bfs_sharing":
            # The index must cover the largest K on the grid, and must be
            # re-sampled between queries for inter-query independence
            # (paper §3.7, Table 15).
            options.setdefault("capacity", self.criterion.k_max)
            options.setdefault("refresh_per_query", True)
        return options


@dataclass
class StudyResult:
    """All measurements of one study, with table-shaped accessors."""

    config: StudyConfig
    dataset: Dataset
    workload: QueryWorkload
    results: Dict[str, ConvergenceResult]
    prepare_seconds: Dict[str, float]
    reference_per_pair: np.ndarray  # MC per-pair means at MC's convergence

    # ------------------------------------------------------------------
    # Tables 3-8: accuracy
    # ------------------------------------------------------------------

    def accuracy_rows(self) -> List[Dict[str, str]]:
        rows = []
        errors_at_convergence = {}
        errors_at_fixed = {}
        for key in self.config.estimators:
            result = self.results[key]
            converged = result.convergence_point
            fixed = result.point_at(REPORT_SAMPLE_SIZE) or converged
            re_conv = relative_error(
                converged.per_pair_means, self.reference_per_pair
            )
            re_fixed = relative_error(
                fixed.per_pair_means, self.reference_per_pair
            )
            errors_at_convergence[key] = re_conv
            errors_at_fixed[key] = re_fixed
            rows.append(
                {
                    "estimator": display_name(key),
                    "K_conv": str(converged.samples),
                    "R_conv": f"{converged.average_reliability:.4f}",
                    "RE_conv_%": f"{100 * re_conv:.2f}",
                    "R_1000": f"{fixed.average_reliability:.4f}",
                    "RE_1000_%": f"{100 * re_fixed:.2f}",
                }
            )
        rows.append(
            {
                "estimator": "Pairwise Deviation",
                "K_conv": "",
                "R_conv": "",
                "RE_conv_%": f"{100 * deviation_of(errors_at_convergence):.2f}",
                "R_1000": "",
                "RE_1000_%": f"{100 * deviation_of(errors_at_fixed):.2f}",
            }
        )
        return rows

    # ------------------------------------------------------------------
    # Tables 9-14: running time
    # ------------------------------------------------------------------

    def runtime_rows(self) -> List[Dict[str, str]]:
        rows = []
        for key in self.config.estimators:
            result = self.results[key]
            converged = result.convergence_point
            fixed = result.point_at(REPORT_SAMPLE_SIZE) or converged
            rows.append(
                {
                    "estimator": display_name(key),
                    "K_conv": str(converged.samples),
                    "time_conv_s": f"{converged.seconds_per_query:.4f}",
                    "time_1000_s": f"{fixed.seconds_per_query:.4f}",
                    "ms_per_sample": f"{converged.milliseconds_per_sample:.4f}",
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Fig. 12: memory
    # ------------------------------------------------------------------

    def memory_rows(self) -> List[Dict[str, str]]:
        rows = []
        for key in self.config.estimators:
            converged = self.results[key].convergence_point
            rows.append(
                {
                    "estimator": display_name(key),
                    "memory": format_bytes(converged.memory_bytes),
                    "memory_bytes": str(converged.memory_bytes),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Fig. 7: dispersion curves
    # ------------------------------------------------------------------

    def dispersion_series(self) -> Dict[str, List[Dict[str, float]]]:
        series = {}
        for key in self.config.estimators:
            series[key] = [
                {
                    "K": point.samples,
                    "rho_K": point.dispersion,
                    "V_K": point.average_variance,
                    "R_K": point.average_reliability,
                }
                for point in self.results[key].points
            ]
        return series

    def convergence_samples(self) -> Dict[str, Optional[int]]:
        return {
            key: self.results[key].converged_at for key in self.config.estimators
        }


def build_estimator(config: StudyConfig, key: str, graph) -> Estimator:
    """Instantiate one estimator from the registry with the study's options.

    Estimators are always *fresh* per study: their RNG state must not
    leak between runs.
    """
    return create_estimator(key, graph, seed=config.seed, **config.options_for(key))


def run_study(config: StudyConfig) -> StudyResult:
    """Execute a full study: all estimators, full K grid, shared workload.

    Loads the config's ``(dataset, scale, seed)``, builds every estimator
    fresh from the registry over its graph and measures each by the
    paper's one protocol
    (:func:`~repro.experiments.convergence.run_convergence`: independent
    per-(pair, repeat) runs at each K).
    """
    dataset = load_dataset(config.dataset, config.scale, config.seed)
    workload = generate_workload(
        dataset.graph,
        pair_count=config.pair_count,
        hop_distance=config.hop_distance,
        seed=config.seed,
    )

    results: Dict[str, ConvergenceResult] = {}
    prepare_seconds: Dict[str, float] = {}
    for key in config.estimators:
        estimator = build_estimator(config, key, dataset.graph)
        started = time.perf_counter()
        estimator.prepare()
        prepare_seconds[key] = time.perf_counter() - started
        results[key] = run_convergence(
            estimator,
            workload,
            criterion=config.criterion,
            repeats=config.repeats,
            seed=config.seed,
        )

    reference_key = (
        REFERENCE_ESTIMATOR
        if REFERENCE_ESTIMATOR in results
        else next(iter(results))
    )
    reference = results[reference_key].convergence_point.per_pair_means
    return StudyResult(
        config=config,
        dataset=dataset,
        workload=workload,
        results=results,
        prepare_seconds=prepare_seconds,
        reference_per_pair=reference,
    )


__all__ = [
    "REFERENCE_ESTIMATOR",
    "REPORT_SAMPLE_SIZE",
    "StudyConfig",
    "StudyResult",
    "build_estimator",
    "run_study",
]
