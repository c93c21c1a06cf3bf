"""BFS Sharing: offline possible worlds in a bit-vector index (paper §2.3).

Zhu et al. (ICDM'15) pre-sample ``L`` possible worlds *offline* and store them
compactly: one L-bit vector per edge whose k-th bit says "this edge exists in
world k" (paper Fig. 3).  An online query runs a *single* BFS over the compact
structure — equivalent to K parallel BFS traversals — ORing/ANDing K-bit
reachability vectors per node (Algorithms 2-3).

Two behaviours the paper establishes are reproduced faithfully:

* **No early termination.** Reaching the target does not stop the traversal,
  because cascading updates (Alg. 3) may still add worlds to ``I_t``.  The
  traversal always runs to the dataflow fixpoint over the visited set.
* **Corrected complexity.** The original paper claimed query time independent
  of K; Ke et al. correct this to ``O(K(m+n))`` — bits arrive at a node in
  waves, so each edge is relaxed up to ``O(K)`` times.  Our worklist
  implementation has exactly that behaviour: a node re-enters the worklist
  whenever its reachability vector gains bits, so measured query time grows
  with K (paper Tables 10/12/13/14).

Implementation note: Algorithms 2-3 interleave a BFS with per-update cascades
and "updated" marks.  We implement the equivalent *monotone dataflow
fixpoint*: ``I_v = OR over in-edges (u,v) of (I_u AND bits(u,v))`` seeded with
``I_s = 1...1``, driven by a FIFO worklist.  The fixpoint is unique and equals
per-world BFS reachability (verified against plain MC in the tests); the
paper's cascade is one particular scheduling of the same fixpoint.
Guide with accuracy/speed/memory trade-offs: ``docs/estimators.md``.
"""
from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.estimators.base import (
    EngineFactory,
    Estimator,
    run_engine_batch,
)
from repro.core.graph import UncertainGraph
from repro.util import bitset
from repro.util.rng import SeedLike, ensure_generator, stable_substream
from repro.util.validation import check_positive

DEFAULT_CAPACITY = 1500  # the paper's "safe bound" L on pre-sampled worlds


def shared_reachability_fixpoint(
    graph: UncertainGraph,
    edge_bits: np.ndarray,
    source: int,
    bit_count: int,
    max_hops: Optional[int] = None,
) -> tuple:
    """The shared-BFS dataflow fixpoint (Algs. 2-3) over given edge bits.

    Seeds ``I_source`` with the first ``bit_count`` worlds and propagates
    ``I_v = OR over in-edges (u, v) of (I_u AND bits(u, v))`` via a FIFO
    worklist to the unique monotone fixpoint.  Returns
    ``(node_bits, edges_probed)`` where ``node_bits[v]``'s bit ``k`` says
    "``v`` is reachable from ``source`` in world ``k``".

    With ``max_hops`` the propagation runs *level-synchronously* for at
    most ``max_hops`` rounds, so bit ``k`` of ``node_bits[v]`` says
    "``v`` is within ``max_hops`` edges of ``source`` in world ``k``" —
    the distance-constrained indicator of §2.9, evaluated for all worlds
    of the chunk at once.  Each round propagates from a snapshot of the
    frontier's vectors, so a bit advances exactly one edge per round
    (per-world BFS levels, bitwise in parallel).

    Factored out of :class:`BFSSharingEstimator` so the batch engine
    (:mod:`repro.engine.batch`) can run the same kernel over *chunks* of
    its deterministic world stream — one fixpoint answers up to 64 worlds
    per word for every target of a source at once.
    """
    words = edge_bits.shape[1]
    if bitset.packed_words(bit_count) != words:
        raise ValueError(
            f"bit_count {bit_count} needs {bitset.packed_words(bit_count)} "
            f"words, edge bits carry {words}"
        )
    node_bits = np.zeros((graph.node_count, words), dtype=np.uint64)
    node_bits[source] = bitset.full_row(bit_count)
    indptr, targets = graph.indptr, graph.targets
    edges_probed = 0

    if max_hops is not None:
        frontier = np.asarray([source], dtype=np.int64)
        for _ in range(max_hops):
            if frontier.size == 0:
                break
            # Snapshot the frontier's vectors: bits must travel exactly one
            # edge per round, even when a frontier node's row grows while
            # the round is still being applied.
            frontier_bits = node_bits[frontier].copy()
            in_next = np.zeros(graph.node_count, dtype=bool)
            for position, node in enumerate(frontier):
                start, stop = indptr[node], indptr[node + 1]
                if start == stop:
                    continue
                edges_probed += stop - start
                contribution = (
                    edge_bits[start:stop] & frontier_bits[position][None, :]
                )
                neighbors = targets[start:stop]
                updated = node_bits[neighbors] | contribution
                changed = (updated != node_bits[neighbors]).any(axis=1)
                if not changed.any():
                    continue
                node_bits[neighbors[changed]] = updated[changed]
                in_next[neighbors[changed]] = True
            frontier = np.nonzero(in_next)[0]
        return node_bits, int(edges_probed)

    in_worklist = np.zeros(graph.node_count, dtype=bool)
    in_worklist[source] = True
    worklist = deque([source])
    while worklist:
        node = worklist.popleft()
        in_worklist[node] = False
        start, stop = indptr[node], indptr[node + 1]
        if start == stop:
            continue
        edges_probed += stop - start
        # Worlds in which each out-edge carries node's reachability onward.
        contribution = edge_bits[start:stop] & node_bits[node][None, :]
        neighbors = targets[start:stop]
        updated = node_bits[neighbors] | contribution
        changed = (updated != node_bits[neighbors]).any(axis=1)
        if not changed.any():
            continue
        changed_nodes = neighbors[changed]
        node_bits[changed_nodes] = updated[changed]
        for neighbor in changed_nodes:
            if not in_worklist[neighbor]:
                in_worklist[neighbor] = True
                worklist.append(int(neighbor))
    return node_bits, int(edges_probed)


class BFSSharingIndex:
    """The offline part: ``capacity`` pre-sampled worlds as edge bit-vectors.

    Index size is ``O(K m)`` bits — linear in the sample budget, unlike
    ProbTree (paper §3.7, Fig. 13b).  The worlds are drawn a whole
    64-world word at a time and the bits past ``capacity`` cleared, so a
    larger index from the same generator state extends this one: its
    first ``capacity`` worlds are these.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        capacity: int = DEFAULT_CAPACITY,
        rng: SeedLike = None,
    ) -> None:
        self.graph = graph
        self.capacity = check_positive(capacity, "capacity")
        words = bitset.packed_words(self.capacity)
        self.edge_bits = bitset.sample_bit_matrix(
            graph.probs, words * bitset.WORD_BITS, ensure_generator(rng)
        ) & bitset.prefix_mask(self.capacity, words)

    def refresh(self, rng: SeedLike = None) -> None:
        """Re-sample all worlds.

        The paper's Table 15 measures exactly this: the index must be
        re-sampled between successive queries to keep their answers
        statistically independent.
        """
        self.edge_bits = bitset.sample_bit_matrix(
            self.graph.probs, self.capacity, ensure_generator(rng)
        )

    def size_bytes(self) -> int:
        """Resident size of the edge bit-vectors (paper Fig. 13b)."""
        return int(self.edge_bits.nbytes)

    def save(self, path: Union[str, Path]) -> None:
        """Persist the sampled worlds (enables the Fig. 13c load benchmark)."""
        np.savez_compressed(
            Path(path), capacity=np.int64(self.capacity), edge_bits=self.edge_bits
        )

    @classmethod
    def load(cls, path: Union[str, Path], graph: UncertainGraph) -> "BFSSharingIndex":
        """Load an index previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            index = cls.__new__(cls)
            index.graph = graph
            index.capacity = int(data["capacity"])
            index.edge_bits = np.ascontiguousarray(data["edge_bits"])
        if index.edge_bits.shape[0] != graph.edge_count:
            raise ValueError(
                f"index has {index.edge_bits.shape[0]} edges, graph has "
                f"{graph.edge_count}; wrong graph for this index"
            )
        return index


class BFSSharingEstimator(Estimator):
    """Online s-t reliability over a :class:`BFSSharingIndex` (Algs. 2-3)."""

    key = "bfs_sharing"
    display_name = "BFSSharing"
    uses_index = True
    batch_path = "engine"

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        capacity: int = DEFAULT_CAPACITY,
        refresh_per_query: bool = False,
        seed: SeedLike = None,
    ) -> None:
        """
        Parameters
        ----------
        capacity:
            Number of offline worlds L (paper default 1500).  A query may use
            any ``samples <= capacity``; asking for more grows the index.
        refresh_per_query:
            Re-sample the index before every query, making successive query
            answers independent (the cost the paper isolates in Table 15).
            The experiment runner passes per-repeat RNGs and enables this.
        """
        super().__init__(graph, seed=seed)
        self._seed = seed  # roots the offline worlds, see prepare()
        self.capacity = check_positive(capacity, "capacity")
        self.refresh_per_query = refresh_per_query
        self._index: Optional[BFSSharingIndex] = None
        self._node_bits: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    @property
    def index(self) -> BFSSharingIndex:
        """The offline index, built on first access."""
        if self._index is None:
            self.prepare()
        assert self._index is not None
        return self._index

    @property
    def prepared(self) -> bool:
        return self._index is not None

    def prepare(self) -> None:
        """Build the offline index (O(K m) sampling, paper Fig. 13a).

        The worlds come from a fresh substream of (estimator seed, graph
        version), never from the estimator's running generator: every
        per-query answer is a function of the seed, the graph version and
        the query alone.  Neither an earlier capacity growth (the index
        extends the same worlds) nor the order of past requests and
        updates can move it.
        """
        if isinstance(self._seed, np.random.Generator):
            rng = self._rng  # a caller's generator has no stable identity
        else:
            rng = stable_substream(self._seed, self.graph.version)
        self._index = BFSSharingIndex(self.graph, self.capacity, rng)

    def attach_index(self, index: BFSSharingIndex) -> None:
        """Use an externally built/loaded index (e.g. from disk)."""
        if index.graph is not self.graph:
            raise ValueError("index was built for a different graph instance")
        self._index = index
        self.capacity = index.capacity

    def apply_update(self, graph, *, touched_edges=(), structural=False):
        """Drop the offline index and let it rebuild lazily.

        The batch fast path never consults the monolithic index — it
        streams the engine's world chunks, and the successor graph's new
        fingerprint already re-keys that stream — so the only stale state
        is the pre-sampled :class:`BFSSharingIndex` (its edge bit rows
        are positional in the old CSR).  Rebuilding it eagerly would pay
        the full ``O(Km)`` re-sampling (the paper's Table 15 cost) even
        for graphs only ever served through the engine; dropping it
        defers that cost to the first per-query access, which rebuilds
        via :meth:`prepare` exactly as cold construction would.
        """
        had_index = self._index is not None
        self.graph = graph
        self.last_batch_result = None
        self._index = None
        self._node_bits = None
        return "dropped" if had_index else "repointed"

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def reachability_bits(
        self,
        source: int,
        samples: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Shared BFS from ``source``: per-node K-bit reachability vectors.

        Runs Algorithms 2-3 to their fixpoint and returns the full
        ``(n, words)`` matrix ``I`` — bit k of row v set iff ``v`` is
        reachable from ``source`` in pre-sampled world k.  This is the
        primitive behind the s-t query *and* the top-k / reliable-set
        queries BFS Sharing was originally designed for (paper §2.3).
        """
        if self._index is None or samples > self.capacity:
            self.capacity = max(self.capacity, samples)
            self.prepare()
        index = self._index
        assert index is not None
        if self.refresh_per_query and rng is not None:
            index.refresh(rng)

        words = bitset.packed_words(samples)
        # Node reachability vectors I_v; allocated per query like the paper
        # (the O(Kn) online-only memory its corrected analysis points out).
        node_bits, edges_probed = shared_reachability_fixpoint(
            self.graph, index.edge_bits[:, :words], source, samples
        )
        self._node_bits = node_bits
        self.last_query_statistics.edges_probed = edges_probed
        return node_bits

    def _estimate(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        node_bits = self.reachability_bits(source, samples, rng)
        return bitset.popcount(node_bits[target]) / samples

    def estimate_batch(
        self,
        queries: Iterable[Sequence[int]],
        *,
        seed: Optional[int] = None,
        engine: Optional[EngineFactory] = None,
    ) -> np.ndarray:
        """Shared-world fast path: the packed index built from engine chunks.

        A BFS-Sharing index *is* a transposed batch-engine world chunk:
        bit ``k`` of edge row ``e`` says "``e`` exists in world ``k``" in
        both.  So instead of pre-sampling a private monolithic index
        (``O(Km)`` resident memory) and walking it once per query, the
        batch path streams the engine's deterministic world chunks, packs
        each chunk into this module's edge bit-matrix layout
        (``bitset.pack_bool_matrix``), and runs this module's
        :func:`shared_reachability_fixpoint` **once per distinct source
        per chunk** — one pack resolving every (target, world) pair of
        that source's queries at once, with per-query budgets applied as
        prefix masks.  That is Algorithms 2-3 at workload granularity:
        one online traversal now answers all of a source's queries, not
        just all of one query's worlds, and resident memory stays
        ``O(chunk_size * m)`` bits however large K grows.

        Because the worlds come from the engine's index-keyed stream, the
        estimates are **bit-identical** to ``mc``'s engine path and to the
        engine's sequential oracle at equal seed — and exactly cacheable,
        so an ``engine`` factory that shares a result cache replays
        repeat workloads without sampling.  Unlike the per-query path,
        hop-bounded queries (§2.9) are served too (the fixpoint's
        level-synchronous mode).

        The private offline index (:class:`BFSSharingIndex`) is neither
        consulted nor built, and ``refresh_per_query`` is deliberately
        **not consulted** here: like ``mc``'s batch path, the batch is
        *defined* over one shared world stream (each estimate's marginal
        distribution is unchanged; only cross-query correlation differs),
        so Table 15's per-query refresh has nothing to refresh.  Callers
        that need refreshed-index independence per query should use the
        per-query :meth:`~Estimator.estimate` loop, which honours the
        flag.
        """
        return run_engine_batch(self, queries, seed=seed, engine=engine)

    def memory_bytes(self) -> int:
        total = super().memory_bytes()
        if self._index is not None:
            total += self._index.size_bytes()
        if self._node_bits is not None:
            total += int(self._node_bits.nbytes)
        return total


__all__ = [
    "BFSSharingIndex",
    "BFSSharingEstimator",
    "DEFAULT_CAPACITY",
    "shared_reachability_fixpoint",
]
