"""Estimator selection: the paper's decision tree (Fig. 18) in practice.

Walks the Table 17 / Figure 18 guidance programmatically for several
deployment scenarios, then validates the recommendation empirically on a
small dataset by measuring variance, time, and memory for the recommended
and rejected estimators.

Run:  python examples/estimator_selection.py
"""

from repro.api import RecommendRequest, ReliabilityService
from repro.core.recommend import STAR_RATINGS, overall_recommendation
from repro.core.registry import display_name
from repro.datasets.queries import generate_workload
from repro.experiments.convergence import evaluate_at_k
from repro.experiments.memory import format_bytes
from repro.experiments.report import stars


def main() -> None:
    scenarios = [
        ("embedded device, low memory, latency-sensitive",
         RecommendRequest(memory_limited=True)),
        ("low memory, batch jobs (latency tolerant)",
         RecommendRequest(memory_limited=True, latency_tolerant=True)),
        ("big server, need tightest estimates",
         RecommendRequest(lowest_variance=True)),
        ("big server, pre-sampled worlds acceptable",
         RecommendRequest()),
    ]
    print("Decision-tree walks (paper Fig. 18):")
    for label, request in scenarios:
        response = ReliabilityService.recommend_static(request)
        print(f"  {label:48s} -> {', '.join(response.display_names)}")
    print(f"\noverall paper recommendation: {display_name(overall_recommendation())}")

    print("\nPaper star ratings (Table 17, online query processing):")
    print(
        f"  {'method':12s} {'variance':10s} {'accuracy':10s} "
        f"{'time':10s} {'memory':10s}"
    )
    for key, rating in STAR_RATINGS.items():
        print(
            f"  {display_name(key):12s} {stars(rating['variance']):10s} "
            f"{stars(rating['accuracy']):10s} {stars(rating['running_time']):10s} "
            f"{stars(rating['memory']):10s}"
        )

    # Empirical check on the AS-topology analogue, estimators built
    # through the facade's construction hook (the runner does the same).
    service = ReliabilityService.from_dataset("as_topology", "tiny", seed=0)
    dataset = service.dataset
    workload = generate_workload(dataset.graph, pair_count=4, hop_distance=2, seed=2)
    print(f"\nEmpirical profile on {dataset.title} analogue ({dataset.graph}):")
    print(f"  {'method':12s} {'variance':>12s} {'s/query':>9s} {'memory':>10s}")
    for key in ("mc", "prob_tree", "rss"):
        options = {"stratum_edges": 10} if key == "rss" else {}
        estimator = service.create_estimator(key, **options)
        estimator.prepare()
        point = evaluate_at_k(estimator, workload, samples=500, repeats=6, seed=0)
        print(
            f"  {display_name(key):12s} {point.average_variance:12.2e} "
            f"{point.seconds_per_query:9.4f} {format_bytes(point.memory_bytes):>10s}"
        )
    print(
        "\nRSS shows the variance win, MC the memory win, ProbTree the "
        "balanced profile — matching the paper's star table."
    )


if __name__ == "__main__":
    main()
