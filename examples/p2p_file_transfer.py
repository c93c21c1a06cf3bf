"""P2P scenario: finding reliable peers and fragile relays.

The paper motivates s-t reliability with "identifying highly reliable
peers containing some file to transfer in a peer-to-peer network".  Peers
churn, so each overlay link exists with the probability that both
endpoints are online simultaneously.  This example:

1. ranks seed peers by transfer reliability to the downloader (top-k
   reliability search — BFS Sharing's original query);
2. extracts the "safe swarm" (reliable-set query at a threshold);
3. finds the relay peer whose churn would hurt the best transfer most
   (conditional-reliability failure impact).

All three read the batch engine's world stream: top-k and the reliable
set rank / threshold the downloader's all-targets row, and a failed
relay is ordinary reliability on the graph with its links removed.

Run:  python examples/p2p_file_transfer.py
"""

import numpy as np

from repro.api import ReliabilityService, TopKRequest
from repro.core.graph import GraphBuilder
from repro.queries import failure_impact, reliable_set


def build_overlay(peer_count: int, seed: int):
    """A P2P overlay: random graph with uptime-derived link probabilities."""
    rng = np.random.default_rng(seed)
    # Churn-heavy swarm: typical peer online less than half the time.
    uptime = np.clip(rng.beta(2.0, 2.6, size=peer_count), 0.05, 0.95)
    builder = GraphBuilder(peer_count)
    # Each peer keeps a couple of neighbour links (both directions: the
    # overlay is symmetric, and a link works only while both ends are up).
    for peer in range(peer_count):
        neighbor_count = int(rng.integers(2, 4))
        neighbors = rng.choice(peer_count, size=neighbor_count, replace=False)
        for neighbor in neighbors:
            if neighbor == peer:
                continue
            link = float(uptime[peer] * uptime[neighbor])
            builder.add_undirected_edge(peer, int(neighbor), link)
    return builder.build(), uptime


def main() -> None:
    peer_count = 120
    graph, uptime = build_overlay(peer_count, seed=8)
    downloader = 0
    print(f"P2P overlay: {graph}")
    print(f"downloader: peer {downloader} (uptime {uptime[downloader]:.2f})\n")

    # 1. The most reliably reachable peers (candidate seeds) — the
    # top-k endpoint of the service facade, identical to `repro topk` /
    # the library call at the same seed.
    service = ReliabilityService(graph, seed=1)
    ranking = service.topk(
        TopKRequest(source=downloader, k=8, samples=800)
    ).ranking
    print("top-8 seed candidates by transfer reliability:")
    for rank, (peer, reliability) in enumerate(ranking, start=1):
        print(
            f"  {rank}. peer {peer:3d}  R = {reliability:.3f}  "
            f"(uptime {uptime[peer]:.2f})"
        )

    # 2. The safe swarm: everything above a 50% delivery threshold.
    swarm = reliable_set(graph, downloader, threshold=0.5, samples=800, seed=2)
    print(f"\nsafe swarm (R >= 0.50): {len(swarm)} peers")

    # 3. Which relay's churn would hurt the best seed most?
    best_seed = ranking[0][0]
    distances = graph.bfs_distances(downloader, max_hops=2)
    relays = [int(v) for v in np.nonzero(distances == 1)[0]]
    impact = failure_impact(
        graph, downloader, best_seed, relays, samples=2_000, seed=3
    )
    print(f"\nchurn impact on transfer {downloader} -> {best_seed}:")
    for peer, conditional, drop in impact[:5]:
        print(
            f"  relay {peer:3d} offline: R falls to {conditional:.3f} "
            f"(drop {drop:+.3f})"
        )
    print(
        "\nTop-k, threshold, and conditional queries all read the same "
        "engine world stream (paper §2.3, §2.9)."
    )


if __name__ == "__main__":
    main()
