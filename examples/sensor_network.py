"""Sensor-network scenario: connection quality with instant bounds.

The paper's first motivating application: "measuring the quality of
connections between two terminals in a sensor network".  Sensor links fail
probabilistically (interference, battery); we ask how reliably a field
sensor reaches the base station, bracketing the sampling estimate with the
polynomial-time bounds (most-reliable-path lower, min-cut upper) and
checking how a hop budget (battery-limited relaying) changes the picture.

Run:  python examples/sensor_network.py
"""

import numpy as np

from repro import UncertainGraph, create_estimator
from repro.core.bounds import min_cut_upper_bound, most_reliable_path
from repro.queries import distance_profile


def build_sensor_field(width: int, seed: int) -> UncertainGraph:
    """A width x width sensor grid with distance-degraded radio links.

    Each sensor links to its 4-neighbourhood and, with some luck, one
    diagonal; link quality decays with local noise.
    """
    rng = np.random.default_rng(seed)
    edges = []

    def node(r, c):
        return r * width + c

    for r in range(width):
        for c in range(width):
            quality = float(np.clip(rng.normal(0.75, 0.15), 0.2, 0.98))
            if c + 1 < width:
                edges.append((node(r, c), node(r, c + 1), quality))
                edges.append((node(r, c + 1), node(r, c), quality))
            if r + 1 < width:
                edges.append((node(r, c), node(r + 1, c), quality))
                edges.append((node(r + 1, c), node(r, c), quality))
            if r + 1 < width and c + 1 < width and rng.random() < 0.3:
                diagonal = quality * 0.8
                edges.append((node(r, c), node(r + 1, c + 1), diagonal))
                edges.append((node(r + 1, c + 1), node(r, c), diagonal))
    return UncertainGraph(width * width, edges)


def main() -> None:
    width = 8
    graph = build_sensor_field(width, seed=5)
    field_sensor = 0  # far corner
    base_station = width * width - 1  # opposite corner
    print(f"sensor field: {graph}")

    # Instant polynomial-time bracket, before any sampling.
    lower = most_reliable_path(graph, field_sensor, base_station)
    upper = min_cut_upper_bound(graph, field_sensor, base_station)
    print(
        f"\nbounds: {lower.probability:.4f} <= "
        f"R(sensor, base) <= {upper.probability:.4f}"
    )
    print(f"  best relay route: {' -> '.join(map(str, lower.path))}")
    print(f"  weakest perimeter: {len(upper.cut)} links")

    # Sampling estimate (RSS: lowest-variance estimator).
    estimator = create_estimator("rss", graph, stratum_edges=10, seed=1)
    estimate = estimator.estimate(
        field_sensor, base_station, samples=2_000, rng=np.random.default_rng(2)
    )
    print(f"\nRSS estimate: R(sensor, base) ~= {estimate:.4f}")
    in_bracket = lower.probability - 0.02 <= estimate <= upper.probability + 0.02
    print(f"estimate within the bracket: {in_bracket}")

    # Hop-budget analysis: each relay costs battery, so the routing layer
    # caps hops; how much reliability does each extra hop buy?
    budget_cap = 2 * (width - 1) + 4
    profile = distance_profile(
        graph,
        field_sensor,
        base_station,
        max_distance=budget_cap,
        samples=1_500,
        seed=3,
    )
    print("\nhop budget vs delivery probability:")
    minimum_hops = 2 * (width - 1)
    for hops in range(minimum_hops - 2, budget_cap, 2):
        print(f"  <= {hops:2d} hops: {profile[hops - 1]:.4f}")
    print(
        "\nThe profile saturates once the budget clears the grid distance — "
        "extra relays past that buy little (the paper's distance-constrained "
        "query, §2.4/§2.9)."
    )


if __name__ == "__main__":
    main()
