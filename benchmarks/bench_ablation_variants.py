"""Ablations of this reproduction's own design choices.

Not a paper table — these quantify implementation decisions the paper's
C++ substrate never had to make:

* LP+ engines: the literal per-edge heap (Alg. 6's data structure) vs the
  vectorised per-level array schedule (identical semantics).
* ProbTree couplings beyond the paper's three (every registered estimator
  on the query graph).
* Estimator accuracy sanity at a fixed budget against exact bounds.
"""

import time

import numpy as np

from repro.core.bounds import reliability_bounds
from repro.core.estimators.lazy_propagation import LazyPropagationEstimator
from repro.core.registry import PAPER_ESTIMATORS, create_estimator, display_name
from repro.datasets.queries import generate_workload
from repro.datasets.suite import load_dataset
from repro.experiments.report import format_table
from repro.util.rng import stable_substream

from benchmarks._shared import (
    BENCH_DATASETS,
    BENCH_SCALE,
    BENCH_SEED,
    emit,
)

SAMPLES = 500
RUNS = 3


def test_ablation_lp_engines(benchmark):
    dataset_key = "dblp02" if "dblp02" in BENCH_DATASETS else BENCH_DATASETS[0]
    dataset = load_dataset(dataset_key, BENCH_SCALE, BENCH_SEED)
    workload = generate_workload(
        dataset.graph, pair_count=3, hop_distance=2, seed=BENCH_SEED
    )
    rows = []
    times = {}
    for engine in ("array", "heap"):
        estimator = LazyPropagationEstimator(
            dataset.graph, engine=engine, seed=BENCH_SEED
        )
        values = []
        started = time.perf_counter()
        for pair_index, (source, target) in enumerate(workload):
            for run in range(RUNS):
                rng = stable_substream(BENCH_SEED, pair_index, run)
                values.append(
                    estimator.estimate(source, target, SAMPLES, rng=rng)
                )
        elapsed = (time.perf_counter() - started) / (len(workload) * RUNS)
        times[engine] = elapsed
        rows.append(
            [engine, f"{np.mean(values):.4f}", f"{elapsed:.4f}"]
        )

    estimator = LazyPropagationEstimator(dataset.graph, engine="array", seed=0)
    source, target = workload.pairs[0]
    benchmark.pedantic(
        lambda: estimator.estimate(source, target, 250, rng=np.random.default_rng(0)),
        rounds=3,
        iterations=1,
    )

    emit(
        format_table(
            f"Ablation: LP+ engines on {dataset_key} (K={SAMPLES})",
            ["engine", "mean estimate", "s/query"],
            rows,
        ),
        filename="ablation_variants.txt",
    )
    # Same estimand, and the vectorised engine must not be slower.
    estimates = {row[0]: float(row[1]) for row in rows}
    assert abs(estimates["array"] - estimates["heap"]) < 0.08
    assert times["array"] <= times["heap"] * 1.5


def test_ablation_probtree_couplings(benchmark):
    dataset_key = "lastfm" if "lastfm" in BENCH_DATASETS else BENCH_DATASETS[0]
    dataset = load_dataset(dataset_key, BENCH_SCALE, BENCH_SEED)
    workload = generate_workload(
        dataset.graph, pair_count=3, hop_distance=2, seed=BENCH_SEED
    )
    rows = []
    values_by_inner = {}
    for inner_key in PAPER_ESTIMATORS:
        if inner_key == "prob_tree":
            continue  # no self-nesting
        def factory(g, k=inner_key):
            return create_estimator(k, g, seed=BENCH_SEED)

        coupled = create_estimator(
            "prob_tree", dataset.graph, estimator_factory=factory, seed=BENCH_SEED
        )
        coupled.prepare()
        values = []
        started = time.perf_counter()
        for pair_index, (source, target) in enumerate(workload):
            rng = stable_substream(BENCH_SEED, pair_index, 0)
            values.append(coupled.estimate(source, target, SAMPLES, rng=rng))
        elapsed = (time.perf_counter() - started) / len(workload)
        values_by_inner[inner_key] = float(np.mean(values))
        rows.append(
            [
                f"ProbTree+{display_name(inner_key)}",
                f"{np.mean(values):.4f}",
                f"{elapsed:.4f}",
            ]
        )

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(
        format_table(
            f"Ablation: ProbTree coupled with every estimator ({dataset_key})",
            ["configuration", "mean estimate", "s/query"],
            rows,
        ),
        filename="ablation_variants.txt",
    )
    spread = max(values_by_inner.values()) - min(values_by_inner.values())
    assert spread < 0.08, values_by_inner


def test_ablation_estimates_within_bounds(benchmark):
    """Every estimator's answer sits inside the polynomial-time bracket."""
    dataset = load_dataset("lastfm", "tiny", BENCH_SEED)
    workload = generate_workload(
        dataset.graph, pair_count=3, hop_distance=2, seed=BENCH_SEED
    )
    rows = []
    for source, target in workload:
        lower, upper = reliability_bounds(dataset.graph, source, target)
        for key in PAPER_ESTIMATORS:
            estimator = create_estimator(key, dataset.graph, seed=BENCH_SEED)
            value = estimator.estimate(
                source, target, 2_000, rng=stable_substream(BENCH_SEED, source)
            )
            slack = 3 * np.sqrt(max(value * (1 - value), 1e-4) / 2_000)
            assert lower - slack <= value <= upper + slack, (
                key, (source, target), lower, value, upper,
            )
        rows.append([f"({source}, {target})", f"{lower:.4f}", f"{upper:.4f}"])

    benchmark.pedantic(
        lambda: reliability_bounds(dataset.graph, *workload.pairs[0]),
        rounds=3,
        iterations=1,
    )
    emit(
        format_table(
            "Ablation: polynomial-time brackets on lastFM (tiny)",
            ["pair", "lower (best path)", "upper (min cut)"],
            rows,
        ),
        filename="ablation_variants.txt",
    )
