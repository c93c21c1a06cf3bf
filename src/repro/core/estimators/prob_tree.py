"""ProbTree: FWD (fixed-width tree decomposition) index (paper §2.7, §3.8).

Maniu et al. (TODS'17) decompose the uncertain graph into a tree of *bags*
and pre-compute, per bag, the reliability between the bag's boundary nodes.
An s-t query then assembles a much smaller *equivalent* graph from the index
(root bag + the lifted chains containing ``s`` and ``t``) and runs any
sampling estimator on it.  We implement the FWD variant with width ``w = 2``,
which the paper selects because (a) building/query cost is linear and (b) the
index is *lossless* for ``w <= 2`` — the query graph's reliability equals the
original graph's, exactly.

**Index construction (Alg. 7)** repeatedly eliminates a node ``v`` of
undirected degree ``<= w``.  A new bag absorbs ``v``, its neighbors, and all
not-yet-absorbed directed edges among them; eliminating ``v`` with boundary
``{a, b}`` inserts *derived* edges ``a -> b`` / ``b -> a`` whose probability
OR-combines the absorbed direct edge with the two-hop path through ``v``
(``p(a->v) p(v->b)``).  This is the paper's "our adaptation in complexity":
for ``w = 2`` the at-most-two parallel derivations aggregate as
``1 - (1 - p1)(1 - p2)`` in O(w^2), with no distance distributions.  It is
lossless because the two derivations are edge-disjoint, hence independent,
and the absorbed edges appear nowhere else.  Remaining nodes and edges form
the root.  Each bag's parent is the bag (or root) that later absorbs its
derived edges — equivalently, the first later bag containing its boundary
(Alg. 7 lines 18-25).

**Query (Alg. 8)** lifts the bag covering ``s`` (and ``t``) into its parent,
replacing the parent's derived edges *sourced from that bag* with the bag's
raw content, and repeats up to the root; the assembled root graph is handed
to the coupled estimator.  Coupling defaults to MC, as in the original
paper, but accepts any estimator factory — reproducing §3.8 (ProbTree+LP+/
RHH/RSS) and extending it to every registered estimator.
Guide with accuracy/speed/memory trade-offs: ``docs/estimators.md``.
"""
from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.estimators.base import (
    EngineFactory,
    Estimator,
    QueryStatistics,
    coerce_batch_queries,
)
from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.core.graph import UncertainGraph, or_combine
from repro.util.rng import SeedLike

DEFAULT_WIDTH = 2  # the paper's lossless setting

#: Default bound on cached lifted query graphs.  Lift keys are (bag,
#: bag) pairs, which real workloads reuse heavily (hot sources/targets
#: share covering bags); a few dozen assembled graphs cover them while
#: keeping the resident overhead far below the index itself.
DEFAULT_LIFT_CACHE_CAPACITY = 32

#: Namespace key for the batch path's per-bag-pair inner seeds, so they
#: cannot collide with the engine's world stream (0x57) or the base
#: fallback's per-query substreams (0x42) under one root seed.
_BAG_STREAM = 0x50

ROOT_BAG = -1  # sentinel parent id for bags hanging off the root

#: One directed probabilistic edge held by a bag or the root:
#: ``(source_node, target_node, probability, origin_bag_id)`` where
#: ``origin_bag_id`` is ``None`` for original edges and the creating bag's id
#: for derived edges (needed to "delete the reliability resulting from B"
#: during a lift, Alg. 8 line 7).
BagEdge = Tuple[int, int, float, Optional[int]]

EstimatorFactory = Callable[[UncertainGraph], Estimator]

#: One lift-cache value: ``(assembled query graph, node renumbering)``.
LiftedEntry = Tuple[UncertainGraph, Dict[int, int]]


@dataclass
class Bag:
    """One bag of the FWD decomposition."""

    bag_id: int
    covered: int  # the eliminated node
    nodes: Tuple[int, ...]  # covered + boundary
    boundary: Tuple[int, ...]  # <= width nodes shared with the parent
    edges: List[BagEdge] = field(default_factory=list)
    parent: int = ROOT_BAG  # bag id, or ROOT_BAG

    def edge_count(self) -> int:
        return len(self.edges)


class FWDProbTreeIndex:
    """The offline FWD index: bags, parent links, and the root graph."""

    def __init__(self, graph: UncertainGraph, width: int = DEFAULT_WIDTH) -> None:
        if width < 1 or width > 2:
            raise ValueError(
                f"width must be 1 or 2 (lossless range per the paper), got {width}"
            )
        self.graph = graph
        self.width = width
        self.bags: List[Bag] = []
        self.bag_of_covered: Dict[int, int] = {}
        self.root_nodes: Set[int] = set()
        self.root_edges: List[BagEdge] = []
        self._build()

    # ------------------------------------------------------------------
    # Construction (Alg. 7)
    # ------------------------------------------------------------------

    def _build(self) -> None:
        graph = self.graph
        # Undirected skeleton and the directed probabilistic edge pool.
        skeleton: Dict[int, Set[int]] = {v: set() for v in range(graph.node_count)}
        pool: Dict[Tuple[int, int], Tuple[float, Optional[int]]] = {}
        for u, v, p in graph.iter_edges():
            skeleton[u].add(v)
            skeleton[v].add(u)
            pool[(u, v)] = (p, None)

        alive = np.ones(graph.node_count, dtype=bool)
        # Lazy min-degree candidate queue: nodes enter whenever their degree
        # drops to <= width; stale entries are re-checked on pop.
        candidates = [
            v for v in range(graph.node_count) if 1 <= len(skeleton[v]) <= self.width
        ]
        head = 0
        while head < len(candidates):
            v = candidates[head]
            head += 1
            if not alive[v]:
                continue
            degree = len(skeleton[v])
            if degree == 0 or degree > self.width:
                continue
            self._eliminate(v, skeleton, pool, alive, candidates)

        self.root_nodes = {v for v in range(graph.node_count) if alive[v]}
        self.root_edges = [
            (u, w, p, origin) for (u, w), (p, origin) in sorted(pool.items())
        ]
        self._assign_parents()

    def _eliminate(
        self,
        v: int,
        skeleton: Dict[int, Set[int]],
        pool: Dict[Tuple[int, int], Tuple[float, Optional[int]]],
        alive: np.ndarray,
        candidates: List[int],
    ) -> None:
        """Create the bag covering ``v`` and splice derived edges in."""
        neighbors = sorted(skeleton[v])
        bag_id = len(self.bags)
        bag_nodes = tuple([v] + neighbors)

        # Absorb every pool edge among the bag's nodes (Alg. 7 lines 7-9).
        bag_edges: List[BagEdge] = []
        for a in bag_nodes:
            for b in bag_nodes:
                if a == b:
                    continue
                entry = pool.pop((a, b), None)
                if entry is not None:
                    bag_edges.append((a, b, entry[0], entry[1]))

        bag = Bag(
            bag_id=bag_id,
            covered=v,
            nodes=bag_nodes,
            boundary=tuple(neighbors),
            edges=bag_edges,
        )
        self.bags.append(bag)
        self.bag_of_covered[v] = bag_id

        # Derived edges between the (at most two) boundary nodes.
        if len(neighbors) == 2:
            absorbed = {(a, b): p for a, b, p, _ in bag_edges}
            a, b = neighbors
            for x, y in ((a, b), (b, a)):
                through = 0.0
                if (x, v) in absorbed and (v, y) in absorbed:
                    through = absorbed[(x, v)] * absorbed[(v, y)]
                direct = absorbed.get((x, y), 0.0)
                combined = or_combine(direct, through) if direct else through
                if combined > 0.0:
                    # Fresh insert: any previous (x, y) edge was absorbed above.
                    pool[(x, y)] = (combined, bag_id)

        # Update the skeleton: remove v, clique its neighbors (Alg. 7 line 11).
        for u in neighbors:
            skeleton[u].discard(v)
        if len(neighbors) == 2:
            a, b = neighbors
            skeleton[a].add(b)
            skeleton[b].add(a)
        del skeleton[v]
        alive[v] = False
        for u in neighbors:
            if 1 <= len(skeleton[u]) <= self.width:
                candidates.append(u)

    def _assign_parents(self) -> None:
        """Parent = the bag that absorbed this bag's derived edges.

        Derived edges record their origin, so scanning every bag's (and the
        root's) edge list identifies each origin's absorber directly; bags
        whose derived edges were never re-absorbed, or that created none
        (boundary size < 2), fall back to the first later bag containing
        their boundary, then to the root — Alg. 7 lines 18-25.
        """
        parent: Dict[int, int] = {}
        for bag in self.bags:
            for _, _, _, origin in bag.edges:
                if origin is not None and origin not in parent:
                    parent[origin] = bag.bag_id
        for _, _, _, origin in self.root_edges:
            if origin is not None and origin not in parent:
                parent[origin] = ROOT_BAG

        # Fallback for bags without derived edges: first later bag whose
        # node set contains the boundary.
        containing: Dict[int, List[int]] = {}
        for bag in self.bags:
            for node in bag.nodes:
                containing.setdefault(node, []).append(bag.bag_id)
        for bag in self.bags:
            if bag.bag_id in parent:
                continue
            choice = ROOT_BAG
            if bag.boundary:
                candidate_lists = [
                    [c for c in containing.get(node, []) if c > bag.bag_id]
                    for node in bag.boundary
                ]
                common = set(candidate_lists[0])
                for lst in candidate_lists[1:]:
                    common &= set(lst)
                if common:
                    choice = min(common)
            parent[bag.bag_id] = choice
        for bag in self.bags:
            bag.parent = parent[bag.bag_id]

    # ------------------------------------------------------------------
    # Query-graph assembly (Alg. 8)
    # ------------------------------------------------------------------

    def _chain_from_bag(self, bag_id: int) -> List[int]:
        """Bag ids from ``bag_id`` up to the root (root exclusive)."""
        chain: List[int] = []
        while bag_id != ROOT_BAG:
            chain.append(bag_id)
            bag_id = self.bags[bag_id].parent
        return chain

    def _lift_chain(self, node: int) -> List[int]:
        """Bag ids from the bag covering ``node`` up to the root (exclusive)."""
        return self._chain_from_bag(self.bag_of_covered.get(node, ROOT_BAG))

    def lift_key(self, source: int, target: int) -> Tuple[int, int]:
        """The (covering bag of ``source``, covering bag of ``target``) pair.

        The assembled query graph depends on ``(source, target)`` *only*
        through this pair: the lift set is the union of the two bags'
        parent chains, and every node is a member of its covering bag (or
        of the root), so two queries sharing a lift key share one
        equivalent graph — the reuse the batch fast path exploits.
        ``ROOT_BAG`` stands for "not covered by any bag".
        """
        return (
            self.bag_of_covered.get(source, ROOT_BAG),
            self.bag_of_covered.get(target, ROOT_BAG),
        )

    def lifted_graph(
        self, key: Tuple[int, int]
    ) -> Tuple[UncertainGraph, Dict[int, int]]:
        """Assemble the equivalent graph for a :meth:`lift_key` pair.

        Returns ``(graph, node_map)`` where ``node_map`` sends original
        node ids (of every lifted bag plus the root) to query-graph ids.
        This is Alg. 8 keyed by bag pair instead of node pair: batched
        queries sharing a key call this **once** and reuse the graph.
        """
        bag_s, bag_t = key
        lift_set = set(self._chain_from_bag(bag_s)) | set(
            self._chain_from_bag(bag_t)
        )
        effective: Dict[int, List[BagEdge]] = {}

        def edges_of(container: int) -> List[BagEdge]:
            if container in effective:
                return effective[container]
            if container == ROOT_BAG:
                return list(self.root_edges)
            return list(self.bags[container].edges)

        # Children are always created before parents, so ascending bag id is
        # bottom-up lift order (Alg. 8's height loop).
        for bag_id in sorted(lift_set):
            bag = self.bags[bag_id]
            lifted = edges_of(bag_id)
            parent_edges = [
                e for e in edges_of(bag.parent) if e[3] != bag_id
            ]
            parent_edges.extend(lifted)
            effective[bag.parent] = parent_edges
            effective[bag_id] = []

        final_edges = effective.get(ROOT_BAG, self.root_edges)
        query_nodes: Set[int] = set(self.root_nodes)
        for bag_id in lift_set:
            query_nodes.update(self.bags[bag_id].nodes)

        node_map = {node: i for i, node in enumerate(sorted(query_nodes))}
        triples = [
            (node_map[u], node_map[w], p) for u, w, p, _ in final_edges
        ]
        graph = UncertainGraph(len(node_map), triples)
        return graph, node_map

    def query_graph(
        self, source: int, target: int
    ) -> Tuple[UncertainGraph, int, int, Dict[int, int]]:
        """Assemble the equivalent query graph for ``(source, target)``.

        Returns ``(graph, mapped_source, mapped_target, node_map)`` where
        ``node_map`` sends original node ids to query-graph ids.  Every
        node is either covered by a bag (and that bag is on the lift
        chain) or alive in the root, so ``source`` and ``target`` are
        always present in the assembled graph.
        """
        graph, node_map = self.lifted_graph(self.lift_key(source, target))
        return graph, node_map[source], node_map[target], node_map

    # ------------------------------------------------------------------
    # Incremental maintenance (probability-only updates)
    # ------------------------------------------------------------------

    def update_probabilities(
        self, changes: Dict[Tuple[int, int], float]
    ) -> int:
        """Re-lift only the bags affected by edge-probability changes.

        ``changes`` maps existing ``(source, target)`` edges to their new
        probabilities; the edge *set* must be unchanged (structural
        updates rebuild instead — the elimination order is a function of
        the degree skeleton alone, which is why probability-only updates
        can keep every bag, boundary, and parent link).

        Each original directed edge is absorbed by exactly one container
        (a bag or the root), and each bag's derived boundary edges are a
        pure function of that bag's absorbed edges — so the update walks
        containers bottom-up (ascending bag id, children strictly before
        parents, root last), rewrites touched original edges, recomputes
        the derived edges of every dirtied bag with the exact
        :meth:`_eliminate` formula, and splices the new values into the
        parent, dirtying it in turn.  The result is **bit-identical** to
        a fresh build over the updated graph (pinned by the update
        conformance suite); bags nowhere on a touched edge's lift chain
        are never visited.

        Returns the number of bags re-lifted (the Table 15 maintenance
        unit the live-update benchmark reports).
        """
        pending = {
            (int(u), int(v)): float(p) for (u, v), p in changes.items()
        }
        #: Recomputed derived-edge values per dirty origin bag,
        #: keyed ``(x, y)``.
        derived_new: Dict[int, Dict[Tuple[int, int], float]] = {}
        relifted = 0

        def refresh(edges: List[BagEdge]) -> bool:
            changed = False
            for position, (u, v, p, origin) in enumerate(edges):
                if origin is None:
                    new_p = pending.get((u, v))
                else:
                    new_p = derived_new.get(origin, {}).get((u, v))
                if new_p is not None and new_p != p:
                    edges[position] = (u, v, new_p, origin)
                    changed = True
            return changed

        for bag in self.bags:  # ascending id == bottom-up
            if not refresh(bag.edges):
                continue
            relifted += 1
            if len(bag.boundary) == 2:
                # The exact derivation of _eliminate over the updated
                # absorbed edges: OR of the direct edge and the two-hop
                # path through the covered node.
                absorbed = {(a, b): p for a, b, p, _ in bag.edges}
                a, b = bag.boundary
                values: Dict[Tuple[int, int], float] = {}
                for x, y in ((a, b), (b, a)):
                    through = 0.0
                    if (x, bag.covered) in absorbed and (
                        bag.covered,
                        y,
                    ) in absorbed:
                        through = (
                            absorbed[(x, bag.covered)]
                            * absorbed[(bag.covered, y)]
                        )
                    direct = absorbed.get((x, y), 0.0)
                    combined = (
                        or_combine(direct, through) if direct else through
                    )
                    if combined > 0.0:
                        values[(x, y)] = combined
                derived_new[bag.bag_id] = values
        refresh(self.root_edges)
        return relifted

    # ------------------------------------------------------------------
    # Accounting / persistence
    # ------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate resident index size (paper Fig. 13b).

        Counts each bag edge as (two ints, a float, an origin ref) plus
        per-bag bookkeeping — the quantities the paper's ProbTree stores.
        """
        edge_bytes = 40
        total = 0
        for bag in self.bags:
            total += 96 + len(bag.nodes) * 8 + bag.edge_count() * edge_bytes
        total += len(self.root_edges) * edge_bytes + len(self.root_nodes) * 8
        return total

    def statistics(self) -> Dict[str, float]:
        """Structural summary used by the benchmarks and examples."""
        # Parents always have larger ids, so one descending pass computes
        # every depth iteratively (chains can be thousands of bags long).
        depths: Dict[int, int] = {ROOT_BAG: 0}
        for bag in reversed(self.bags):
            depths[bag.bag_id] = 1 + depths[bag.parent]
        height = max(
            (depths[bag.bag_id] for bag in self.bags), default=0
        )
        return {
            "bags": len(self.bags),
            "height": height,
            "root_nodes": len(self.root_nodes),
            "root_edges": len(self.root_edges),
            "covered_fraction": len(self.bags) / max(1, self.graph.node_count),
        }

    def save(self, path: Union[str, Path]) -> None:
        """Persist the index (enables the Fig. 13c load benchmark)."""
        payload = {
            "width": self.width,
            "bags": [
                (b.bag_id, b.covered, b.nodes, b.boundary, b.edges, b.parent)
                for b in self.bags
            ],
            "root_nodes": self.root_nodes,
            "root_edges": self.root_edges,
        }
        with open(Path(path), "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: Union[str, Path], graph: UncertainGraph) -> "FWDProbTreeIndex":
        with open(Path(path), "rb") as handle:
            payload = pickle.load(handle)
        index = cls.__new__(cls)
        index.graph = graph
        index.width = payload["width"]
        index.bags = [
            Bag(bag_id, covered, nodes, boundary, edges, parent)
            for bag_id, covered, nodes, boundary, edges, parent in payload["bags"]
        ]
        index.bag_of_covered = {bag.covered: bag.bag_id for bag in index.bags}
        index.root_nodes = payload["root_nodes"]
        index.root_edges = payload["root_edges"]
        return index


def _group_seed(seed: int, key: Tuple[int, int]) -> int:
    """Derive one bag-pair group's inner batch seed from the root seed.

    Stable in ``(seed, key)`` and independent across keys, so duplicate
    queries agree whatever workload they arrive in.  ``ROOT_BAG`` (-1) is
    shifted up because ``SeedSequence`` entropy must be non-negative.
    """
    sequence = np.random.SeedSequence(
        (int(seed), _BAG_STREAM, int(key[0]) + 1, int(key[1]) + 1)
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _grouped_report(workload, estimates, seed: int, reports):
    """The groups' inner engine reports as one outer-workload report.

    Counters add up across groups; cache provenance and the fingerprint
    belong to the lifted graphs, not to this workload, and stay unset.
    """
    # Imported lazily, like run_engine_batch: core reaches up only at
    # call time.
    from repro.engine.batch import BatchResult
    from repro.engine.plan import BatchQuery

    def total(counter: str):
        return sum(getattr(report, counter) for report in reports)

    return BatchResult(
        queries=tuple(BatchQuery(*entry) for entry in workload),
        estimates=estimates,
        seed=seed,
        worlds_sampled=total("worlds_sampled"),
        sweeps=total("sweeps"),
        cache_hits=total("cache_hits"),
        cache_misses=total("cache_misses"),
        seconds=total("seconds"),
        workers=max(report.workers for report in reports),
    )


class ProbTreeEstimator(Estimator):
    """s-t reliability through the FWD ProbTree index (Alg. 8).

    ``estimator_factory`` chooses the sampler run on the assembled query
    graph: MC by default (as in the original paper), or LP+/RHH/RSS/... for
    the coupling experiment (paper Table 16).
    """

    key = "prob_tree"
    display_name = "ProbTree"
    uses_index = True
    batch_path = "bag_grouped"

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        width: int = DEFAULT_WIDTH,
        estimator_factory: Optional[EstimatorFactory] = None,
        lift_cache_capacity: int = DEFAULT_LIFT_CACHE_CAPACITY,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        self.width = width
        self.estimator_factory = estimator_factory or MonteCarloEstimator
        self._index: Optional[FWDProbTreeIndex] = None
        self._last_query_graph: Optional[UncertainGraph] = None
        if lift_cache_capacity < 0:
            raise ValueError(
                f"lift_cache_capacity must be >= 0 (0 disables the "
                f"cache), got {lift_cache_capacity}"
            )
        self.lift_cache_capacity = lift_cache_capacity
        #: Bounded LRU of assembled lifted graphs keyed by
        #: :meth:`FWDProbTreeIndex.lift_key` — the assembled graph is a
        #: pure function of the (immutable) index and the key, so reuse
        #: is exact.  Shared by the per-query and batch paths; cleared
        #: whenever the index is (re)built.
        self._lift_cache: "OrderedDict[Tuple[int, int], LiftedEntry]" = (
            OrderedDict()
        )
        self.lift_cache_hits = 0
        self.lift_cache_misses = 0

    @property
    def index(self) -> FWDProbTreeIndex:
        if self._index is None:
            self.prepare()
        assert self._index is not None
        return self._index

    @property
    def prepared(self) -> bool:
        return self._index is not None

    def prepare(self) -> None:
        """Build the FWD index (linear-time offline phase, Fig. 13a)."""
        self._index = FWDProbTreeIndex(self.graph, self.width)
        self._lift_cache.clear()

    def attach_index(self, index: FWDProbTreeIndex) -> None:
        """Use an externally built/loaded index."""
        if index.graph is not self.graph:
            raise ValueError("index was built for a different graph instance")
        self._index = index
        self.width = index.width
        self._lift_cache.clear()

    def apply_update(self, graph, *, touched_edges=(), structural=False):
        """Maintain the FWD index incrementally where the update allows.

        Probability-only updates keep the decomposition (bags,
        boundaries, parents are functions of the degree skeleton alone)
        and re-lift just the bags holding touched edges via
        :meth:`FWDProbTreeIndex.update_probabilities` — bit-identical to
        a fresh build, at touched-chain cost instead of whole-graph
        cost.  Structural updates (edge add/remove) can change the
        elimination order itself, so they rebuild.  The lift cache is
        cleared either way: assembled query graphs embed the old
        probabilities.
        """
        had_index = self._index is not None
        self.graph = graph
        self.last_batch_result = None
        self._last_query_graph = None
        self._lift_cache.clear()
        if not had_index:
            return "repointed"
        if structural:
            self.prepare()
            return "rebuilt"
        changes = {
            (u, v): graph.edge_probability(u, v)
            for u, v in touched_edges
        }
        assert self._index is not None
        self._index.update_probabilities(changes)
        self._index.graph = graph
        return "incremental"

    def lifted_graph(
        self, key: Tuple[int, int]
    ) -> Tuple[UncertainGraph, Dict[int, int]]:
        """The assembled query graph for a lift key, LRU-cached.

        Both query paths go through here: the per-query Alg. 8 walk and
        the bag-grouped batch path previously re-assembled the bag-pair
        graph on every call; now a hot (s, t) bag pair lifts **once**
        per index lifetime (up to eviction).  Reuse is exact — the
        assembly is deterministic in ``(index, key)`` — and it compounds
        with the persistent result cache, because a reused graph keeps
        its memoised fingerprint, so downstream cache keys need no
        re-hashing either.
        """
        cached = self._lift_cache.get(key)
        if cached is not None:
            self._lift_cache.move_to_end(key)
            self.lift_cache_hits += 1
            return cached
        self.lift_cache_misses += 1
        assembled = self.index.lifted_graph(key)
        if self.lift_cache_capacity > 0:
            self._lift_cache[key] = assembled
            while len(self._lift_cache) > self.lift_cache_capacity:
                self._lift_cache.popitem(last=False)
        return assembled

    def estimate_batch(
        self,
        queries: Iterable[Sequence[int]],
        *,
        seed: Optional[int] = None,
        engine: Optional[EngineFactory] = None,
    ) -> np.ndarray:
        """Bag-grouped fast path: one lifted query graph per (s, t) bag pair.

        The per-query path re-runs Alg. 8 for every query, but the
        assembled equivalent graph depends on ``(s, t)`` only through the
        pair of covering bags (:meth:`FWDProbTreeIndex.lift_key`).  The
        batch path therefore groups the workload by that key, lifts each
        group's query graph **once**, and submits the whole group to the
        coupled estimator as one inner ``estimate_batch`` — so with the
        default MC coupling, a group's queries additionally share one
        engine world stream over the lifted graph.  ``engine`` is
        forwarded untouched (§2.7: the index is decoupled from the
        estimator run on the lifted graph), so inner engines come from
        the caller's factory: a service's result cache then holds inner
        results too, keyed by the lifted graph's own fingerprint.  When
        every group ran on an engine, ``last_batch_result`` carries the
        groups' counters summed.

        Determinism: each group's inner seed is derived from ``(seed,
        bag pair)``, and inner batches deduplicate, so results depend on
        neither workload order nor duplication — like the base fallback,
        but not bit-identical to it (grouping changes which substream
        answers which query; both are unbiased over the same lossless
        lifted graphs, so agreement is statistical, within the
        conformance suite's CI tolerance).

        Hop-bounded queries are rejected: a derived bag edge collapses a
        multi-edge detour into one hop, so the lifted graph does not
        preserve §2.9 hop counts.
        """
        workload = coerce_batch_queries(
            queries,
            estimator_name=type(self).__name__,
            allow_hops=False,
            hops_reason=(
                "its derived bag edges collapse multi-hop detours into "
                "single edges, so the lifted query graph does not "
                "preserve §2.9 hop counts — use the 'mc' or "
                "'bfs_sharing' estimator for d-hop workloads"
            ),
        )
        if seed is None:
            seed = int(self._rng.integers(2**63))
        self.last_batch_result = None
        self.last_query_statistics = QueryStatistics(
            samples_requested=sum(entry[2] for entry in workload)
        )
        index = self.index
        groups: Dict[Tuple[int, int], List[int]] = {}
        for position, (source, target, _, _) in enumerate(workload):
            key = index.lift_key(source, target)
            groups.setdefault(key, []).append(position)

        results = np.empty(len(workload), dtype=np.float64)
        reports = []
        for key in sorted(groups):  # deterministic group order
            members = groups[key]
            lifted, node_map = self.lifted_graph(key)
            self._last_query_graph = lifted
            inner = self.estimator_factory(lifted)
            inner_queries = [
                (
                    node_map[workload[position][0]],
                    node_map[workload[position][1]],
                    workload[position][2],
                )
                for position in members
            ]
            estimates = inner.estimate_batch(
                inner_queries, seed=_group_seed(seed, key), engine=engine
            )
            results[np.asarray(members, dtype=np.int64)] = estimates
            reports.append(inner.last_batch_result)
        if reports and all(report is not None for report in reports):
            self.last_batch_result = _grouped_report(
                workload, results, seed, reports
            )
        return results

    def _estimate(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        # Through the estimator-level LRU, not index.query_graph: two
        # queries sharing a (bag, bag) lift key share one assembly.
        query_graph, node_map = self.lifted_graph(
            self.index.lift_key(source, target)
        )
        mapped_source, mapped_target = node_map[source], node_map[target]
        self._last_query_graph = query_graph
        inner = self.estimator_factory(query_graph)
        estimate = inner.estimate(mapped_source, mapped_target, samples, rng=rng)
        outer = self.last_query_statistics
        inner_stats = inner.last_query_statistics
        outer.edges_probed += inner_stats.edges_probed
        outer.nodes_expanded += inner_stats.nodes_expanded
        outer.recursion_depth = max(
            outer.recursion_depth, inner_stats.recursion_depth
        )
        outer.fallback_calls += inner_stats.fallback_calls
        return estimate

    def memory_bytes(self) -> int:
        total = super().memory_bytes()
        if self._index is not None:
            total += self._index.size_bytes()
        for graph, _ in self._lift_cache.values():
            total += graph.memory_bytes()
        if (
            self._last_query_graph is not None
            and not any(
                graph is self._last_query_graph
                for graph, _ in self._lift_cache.values()
            )
        ):
            total += self._last_query_graph.memory_bytes()
        return total

    def lift_cache_statistics(self) -> Dict[str, int]:
        """Counters for reports: size, capacity, hits, misses."""
        return {
            "size": len(self._lift_cache),
            "capacity": self.lift_cache_capacity,
            "hits": self.lift_cache_hits,
            "misses": self.lift_cache_misses,
        }


__all__ = [
    "Bag",
    "BagEdge",
    "FWDProbTreeIndex",
    "ProbTreeEstimator",
    "DEFAULT_LIFT_CACHE_CAPACITY",
    "DEFAULT_WIDTH",
    "ROOT_BAG",
]
