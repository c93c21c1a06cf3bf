"""Uncertain graph data structure.

An :class:`UncertainGraph` is the triple ``(V, E, P)`` of the paper (§2.1): a
set of ``n`` dense integer nodes, ``m`` directed edges, and a probability
``P(e) in (0, 1]`` per edge.  The structure is *frozen* after construction and
stored in CSR (compressed sparse row) form so that the sampling estimators can
expand a node's out-edges with NumPy slices instead of Python loops.

Construction notes
------------------
* Parallel edges ``(u, v)`` are merged with the probability-OR
  ``1 - (1 - p1)(1 - p2)``: under independent possible-world semantics, two
  parallel edges are traversable iff at least one exists, which is exactly an
  OR of independent Bernoullis.  All six estimators therefore see an identical
  simple graph.
* Self-loops are dropped: they can never affect s-t reachability.
* Probability 0 is rejected (an impossible edge is a non-edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.util.validation import check_node, check_probability

EdgeTriple = Tuple[int, int, float]


def or_combine(p1: float, p2: float) -> float:
    """Probability that at least one of two independent edges exists."""
    return 1.0 - (1.0 - p1) * (1.0 - p2)


@dataclass(frozen=True)
class EdgeStatistics:
    """Summary of a graph's edge-probability distribution (paper Table 2)."""

    mean: float
    std: float
    quartiles: Tuple[float, float, float]

    def __str__(self) -> str:
        q1, q2, q3 = self.quartiles
        return (
            f"{self.mean:.2f} +/- {self.std:.2f}, "
            f"{{{q1:.3g}, {q2:.3g}, {q3:.3g}}}"
        )


class UncertainGraph:
    """A frozen directed uncertain graph in CSR form.

    Parameters
    ----------
    node_count:
        Number of nodes; node ids are ``0 .. node_count - 1``.
    edges:
        Iterable of ``(source, target, probability)`` triples.  Parallel
        edges are OR-merged and self-loops dropped (see module docstring).

    Attributes
    ----------
    indptr, targets, probs:
        Forward CSR: the out-edges of node ``u`` are positions
        ``indptr[u]:indptr[u + 1]`` of ``targets``/``probs``.  Edge ids are
        these CSR positions and are stable for the lifetime of the graph.
    """

    def __init__(self, node_count: int, edges: Iterable[EdgeTriple]) -> None:
        if node_count < 0:
            raise ValueError(f"node_count must be non-negative, got {node_count}")
        self.node_count = int(node_count)

        merged: Dict[Tuple[int, int], float] = {}
        for source, target, probability in edges:
            source = check_node(source, self.node_count, "source")
            target = check_node(target, self.node_count, "target")
            probability = check_probability(probability)
            if source == target:
                continue
            key = (source, target)
            if key in merged:
                merged[key] = or_combine(merged[key], probability)
            else:
                merged[key] = probability

        self.edge_count = len(merged)
        order = sorted(merged)
        sources = np.fromiter(
            (u for u, _ in order), dtype=np.int64, count=self.edge_count
        )
        self.targets = np.fromiter(
            (v for _, v in order), dtype=np.int64, count=self.edge_count
        )
        self.probs = np.fromiter(
            (merged[key] for key in order), dtype=np.float64, count=self.edge_count
        )
        self.indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.add.at(self.indptr, sources + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)

        self._edge_sources = sources
        self._reverse: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: Mutation counter.  The graph itself stays frozen; the mutation
        #: layer (:mod:`repro.core.mutation`) builds *successor* graphs
        #: with ``version = predecessor + 1`` so caches that memoise
        #: content hashes (``repro.engine.cache.graph_fingerprint``) can
        #: tell a changed graph from an unchanged one without re-hashing.
        #: The rare owner that edits probabilities in place must bump this
        #: (see :func:`repro.core.mutation.set_edge_probability`).
        self.version = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_arrays(
        cls,
        node_count: int,
        sources: np.ndarray,
        targets: np.ndarray,
        probs: np.ndarray,
    ) -> "UncertainGraph":
        """Build from parallel NumPy arrays (fast path for generators)."""
        triples = zip(
            np.asarray(sources).tolist(),
            np.asarray(targets).tolist(),
            np.asarray(probs).tolist(),
        )
        return cls(node_count, triples)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def out_degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    @property
    def edge_sources(self) -> np.ndarray:
        """Per-edge source nodes aligned with :attr:`targets` (read-only).

        For consumers that need whole-edge-set views — e.g. the importance
        sampler's occurrence counts and the BFS-stratified sampler's edge
        ordering.
        Treat it as immutable: it is the CSR backing array, not a copy.
        """
        return self._edge_sources

    def edge_probability(self, source: int, target: int) -> Optional[float]:
        """Probability of edge ``source -> target`` or ``None`` if absent."""
        start, stop = self.indptr[source], self.indptr[source + 1]
        position = np.searchsorted(self.targets[start:stop], target)
        if position < stop - start and self.targets[start + position] == target:
            return float(self.probs[start + position])
        return None

    def iter_edges(self) -> Iterator[EdgeTriple]:
        """Yield ``(source, target, probability)`` for every edge."""
        for edge_id in range(self.edge_count):
            yield (
                int(self._edge_sources[edge_id]),
                int(self.targets[edge_id]),
                float(self.probs[edge_id]),
            )

    # ------------------------------------------------------------------
    # Reverse CSR (built on demand; needed by BFS Sharing and ProbTree)
    # ------------------------------------------------------------------

    @property
    def reverse_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rev_indptr, rev_sources, rev_edge_ids)`` — in-edges per node.

        ``rev_edge_ids`` maps each reverse position back to the forward CSR
        edge id, so the forward ``probs`` array (and any per-edge index data)
        can be reused.
        """
        if self._reverse is None:
            order = np.argsort(self.targets, kind="stable")
            rev_indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            np.add.at(rev_indptr, self.targets + 1, 1)
            np.cumsum(rev_indptr, out=rev_indptr)
            self._reverse = (rev_indptr, self._edge_sources[order], order)
        return self._reverse

    def in_degree(self, node: int) -> int:
        rev_indptr, _, _ = self.reverse_csr
        return int(rev_indptr[node + 1] - rev_indptr[node])

    def in_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, forward edge ids)`` of ``node``'s in-edges."""
        rev_indptr, rev_sources, rev_edge_ids = self.reverse_csr
        start, stop = rev_indptr[node], rev_indptr[node + 1]
        return rev_sources[start:stop], rev_edge_ids[start:stop]

    # ------------------------------------------------------------------
    # Statistics and traversal helpers
    # ------------------------------------------------------------------

    def edge_statistics(self) -> EdgeStatistics:
        """Mean/SD/quartiles of edge probabilities (paper Table 2, col. 4)."""
        if self.edge_count == 0:
            return EdgeStatistics(0.0, 0.0, (0.0, 0.0, 0.0))
        quartiles = np.percentile(self.probs, [25, 50, 75])
        return EdgeStatistics(
            mean=float(self.probs.mean()),
            std=float(self.probs.std()),
            quartiles=(float(quartiles[0]), float(quartiles[1]), float(quartiles[2])),
        )

    def bfs_distances(self, source: int, max_hops: Optional[int] = None) -> np.ndarray:
        """Hop distances from ``source`` ignoring probabilities (-1 if unreached).

        Used by the workload generator to pick s-t pairs at a fixed hop
        distance (paper §3.1.3) and by ProbTree diagnostics.
        """
        check_node(source, self.node_count, "source")
        distances = np.full(self.node_count, -1, dtype=np.int64)
        distances[source] = 0
        frontier = [source]
        hops = 0
        while frontier and (max_hops is None or hops < max_hops):
            hops += 1
            next_frontier: List[int] = []
            for node in frontier:
                start, stop = self.indptr[node], self.indptr[node + 1]
                for neighbor in self.targets[start:stop]:
                    if distances[neighbor] < 0:
                        distances[neighbor] = hops
                        next_frontier.append(int(neighbor))
            frontier = next_frontier
        return distances

    def memory_bytes(self) -> int:
        """Resident size of the CSR arrays (graph-only memory footprint)."""
        total = self.indptr.nbytes + self.targets.nbytes + self.probs.nbytes
        total += self._edge_sources.nbytes
        if self._reverse is not None:
            total += sum(array.nbytes for array in self._reverse)
        return total

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"UncertainGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"probs={self.edge_statistics()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edge_count == other.edge_count
            and bool(np.array_equal(self.indptr, other.indptr))
            and bool(np.array_equal(self.targets, other.targets))
            and bool(np.allclose(self.probs, other.probs))
        )


class GraphBuilder:
    """Incremental builder for :class:`UncertainGraph`.

    Collects edges (with OR-merging of duplicates deferred to the graph
    constructor) and grows the node space on demand::

        builder = GraphBuilder()
        builder.add_edge(0, 1, 0.5)
        builder.add_edge(1, 2, 0.3)
        graph = builder.build()
    """

    def __init__(self, node_count: int = 0) -> None:
        self._node_count = int(node_count)
        self._edges: List[EdgeTriple] = []

    def add_edge(self, source: int, target: int, probability: float) -> None:
        """Add a directed probabilistic edge, growing the node space."""
        self._node_count = max(self._node_count, int(source) + 1, int(target) + 1)
        self._edges.append((int(source), int(target), float(probability)))

    def add_undirected_edge(self, u: int, v: int, probability: float) -> None:
        """Add both directions with the same probability (bi-directed edge).

        Matches the paper's treatment of social/co-authorship networks, whose
        edges are "bi-directed": two directed edges that exist independently.
        """
        self.add_edge(u, v, probability)
        self.add_edge(v, u, probability)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def build(self) -> UncertainGraph:
        return UncertainGraph(self._node_count, self._edges)


__all__ = [
    "UncertainGraph",
    "GraphBuilder",
    "EdgeStatistics",
    "EdgeTriple",
    "or_combine",
]
