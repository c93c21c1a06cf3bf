"""Lazy propagation sampling, LP and the corrected LP+ (paper §2.6, Alg. 6).

Li et al. (SIGMOD'17) avoid re-probing low-probability edges in every sampled
world.  Each visited node ``v`` keeps a counter ``c_v`` of how many worlds
have *expanded* ``v``; every out-edge is scheduled to next exist at a future
expansion number, the gap drawn from a geometric distribution with the edge's
probability.  By memorylessness this is statistically identical to a fresh
Bernoulli draw per expansion, while touching each edge ``~1/p(e)`` times less
often.

**The correction (LP vs LP+).**  After an edge fires at expansion ``c_v``,
the original paper reschedules it at ``X' + c_v`` (Alg. 6 line 24).  Ke et
al. show this is wrong: a fresh skip count ``X'`` counts failures *starting
from the next expansion*, so the correct key is ``X' + c_v + 1``.  The
original key makes edges fire one expansion early — and refire immediately
when ``X' = 0`` — which nets out as systematic *over*-estimation (paper
Fig. 5, Example 1).  Both variants are implemented (``corrected=False``
gives LP).

**Engines.**  Two implementations with identical scheduling semantics:

* ``engine="heap"`` — the paper's literal data structure: a per-node min-heap
  of ``(next_expansion, neighbor)`` entries, popped while due.  Faithful, but
  per-pop Python cost dominates on dense graphs.
* ``engine="array"`` (default) — a per-edge ``next_fire`` array; a whole BFS
  level's due-edges are found, fired, and rescheduled with a handful of
  vectorised NumPy operations.  Same geometric schedule.

Neither engine wins everywhere.  Timed over 5 pairs at K = 1000 on a
2-vCPU host (heap / array), the heap wins on the two low-reliability
datasets — lastfm 30 / 210 ms, nethept 1.6 / 36.7 ms — and the array
engine on the other three — as_topology 682 / 409 ms, dblp02
3,161 / 713 ms, biomine 1,907 / 441 ms.  (In the C++ substrate of the
paper the heap's probe-skipping is the whole speedup; in a NumPy
substrate, scanning a frontier's edge block is a single vector op, so
LP+'s advantage over MC is structurally smaller here — see
docs/estimators.md.)

Heap-engine details that keep the schedule exact: on early termination,
still-due entries are drained and rescheduled before the counter advances
(otherwise their keys fall behind ``c_v`` and silently stop firing); in
buggy-LP mode a probability-1 edge would refire in the same expansion forever
(``X'`` always 0), so a per-expansion pop cap breaks the loop — the original
authors' datasets had no probability-1 edges, so the published algorithm
never hit this.
Guide with accuracy/speed/memory trade-offs: ``docs/estimators.md``.
"""
from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

from repro.core.estimators.base import Estimator
from repro.core.graph import UncertainGraph
from repro.util.bitset import concatenate_ranges
from repro.util.rng import SeedLike

# Heap entries: (fire_at_expansion, neighbor, edge_id).
_HeapEntry = Tuple[int, int, int]

_LP_POP_CAP_FACTOR = 64  # safety net for the buggy-LP probability-1 loop

ENGINES = ("array", "heap")


class LazyPropagationEstimator(Estimator):
    """LP+ (default) or the original, faulty LP (``corrected=False``)."""

    key = "lp_plus"
    display_name = "LP+"
    uses_index = False

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        corrected: bool = True,
        engine: str = "array",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.corrected = corrected
        self.engine = engine
        if not corrected:
            self.key = "lp"
            self.display_name = "LP"
        self._visited_epoch = np.zeros(graph.node_count, dtype=np.int64)
        self._epoch = 0
        # Inverse-CDF geometric sampling: skip = floor(ln U / ln(1 - p)).
        # Probability-1 edges get -inf, making every skip 0.
        with np.errstate(divide="ignore"):
            self._log_survival = np.log1p(-graph.probs)
        # Heap-engine state (per query).
        self._heaps: Dict[int, List[_HeapEntry]] = {}
        self._counters: Dict[int, int] = {}
        self._uniform_buffer = np.empty(0)
        self._uniform_position = 0
        # Array-engine state (per query).
        self._next_fire = np.zeros(0, dtype=np.int64)
        self._node_counters = np.zeros(0, dtype=np.int64)

    def _rebind_graph(self, graph: UncertainGraph) -> None:
        self._visited_epoch = np.zeros(graph.node_count, dtype=np.int64)
        self._epoch = 0
        with np.errstate(divide="ignore"):
            self._log_survival = np.log1p(-graph.probs)
        self._heaps = {}
        self._counters = {}
        self._uniform_buffer = np.empty(0)
        self._uniform_position = 0
        self._next_fire = np.zeros(0, dtype=np.int64)
        self._node_counters = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Shared dispatch
    # ------------------------------------------------------------------

    def _estimate(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        if self.engine == "array":
            return self._estimate_array(source, target, samples, rng)
        return self._estimate_heap(source, target, samples, rng)

    # ------------------------------------------------------------------
    # Array engine: level-batched geometric schedules
    # ------------------------------------------------------------------

    def _geometric_skips(
        self, rng: np.random.Generator, edge_ids: np.ndarray
    ) -> np.ndarray:
        """Vectorised skips (Geometric(p) - 1) for the given edges."""
        uniforms = rng.random(edge_ids.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(uniforms) / self._log_survival[edge_ids]
        # p == 1 edges: log_survival is -inf, ratio is -0.0 -> skip 0.
        return np.nan_to_num(ratio, posinf=0.0, neginf=0.0).astype(np.int64)

    def _estimate_array(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        graph = self.graph
        indptr, targets = graph.indptr, graph.targets
        # Fresh schedule per query: first existence of each edge at the
        # source node's expansion #X, X ~ Geometric(p) - 1 (lazy init done
        # eagerly — identical distribution, one vector op).
        self._next_fire = self._geometric_skips(
            rng, np.arange(graph.edge_count, dtype=np.int64)
        )
        self._node_counters = np.zeros(graph.node_count, dtype=np.int64)
        next_fire, counters = self._next_fire, self._node_counters
        visited = self._visited_epoch
        fire_offset = 1 if self.corrected else 0

        hits = 0
        probes = 0
        for _ in range(samples):
            self._epoch += 1
            epoch = self._epoch
            visited[source] = epoch
            frontier = np.array([source], dtype=np.int64)
            while frontier.size:
                edge_ids = concatenate_ranges(
                    indptr[frontier], indptr[frontier + 1]
                )
                counters[frontier] += 1
                if edge_ids.size == 0:
                    break
                degrees = (indptr[frontier + 1] - indptr[frontier]).astype(np.int64)
                owner_counter = np.repeat(counters[frontier] - 1, degrees)
                due = next_fire[edge_ids] <= owner_counter
                fired = edge_ids[due]
                probes += int(fired.size)
                if fired.size == 0:
                    break
                next_fire[fired] = (
                    owner_counter[due]
                    + fire_offset
                    + self._geometric_skips(rng, fired)
                )
                candidates = targets[fired]
                fresh = candidates[visited[candidates] != epoch]
                if fresh.size == 0:
                    break
                fresh = np.unique(fresh)
                visited[fresh] = epoch
                if visited[target] == epoch:
                    hits += 1
                    break
                frontier = fresh
        self.last_query_statistics.edges_probed = probes
        return hits / samples

    # ------------------------------------------------------------------
    # Heap engine: the paper's literal Algorithm 6
    # ------------------------------------------------------------------

    def _next_uniform(self, rng: np.random.Generator) -> float:
        """One U(0,1) draw from a refillable block buffer."""
        if self._uniform_position >= self._uniform_buffer.shape[0]:
            self._uniform_buffer = rng.random(4096)
            self._uniform_position = 0
        value = self._uniform_buffer[self._uniform_position]
        self._uniform_position += 1
        return float(value)

    def _skip(self, rng: np.random.Generator, edge_id: int) -> int:
        """One skip count (Geometric(p) - 1) for a single edge."""
        log_survival = self._log_survival[edge_id]
        if log_survival == -np.inf or log_survival == 0.0:
            return 0  # probability-1 edge always exists
        uniform = self._next_uniform(rng)
        if uniform <= 0.0:
            return 0
        return int(np.log(uniform) / log_survival)

    def _initialize_node(
        self, node: int, rng: np.random.Generator
    ) -> List[_HeapEntry]:
        """Alg. 6 lines 12-18: first visit schedules every out-neighbor."""
        start, stop = self.graph.indptr[node], self.graph.indptr[node + 1]
        probs = self.graph.probs[start:stop]
        neighbors = self.graph.targets[start:stop]
        if probs.size:
            skips = rng.geometric(np.minimum(probs, 1.0)).astype(np.int64) - 1
        else:
            skips = np.zeros(0, dtype=np.int64)
        heap = [
            (int(skips[i]), int(neighbors[i]), int(start + i))
            for i in range(probs.size)
        ]
        heapq.heapify(heap)
        self._heaps[node] = heap
        self._counters[node] = 0
        return heap

    def _expand(
        self,
        node: int,
        target: int,
        frontier: List[int],
        rng: np.random.Generator,
    ) -> bool:
        """Expand ``node`` in the current world; True iff target was reached.

        Fires every out-edge scheduled for the node's current expansion
        counter, rescheduling each with a fresh geometric skip (Alg. 6
        lines 19-29), then advances the counter (line 30).
        """
        heap = self._heaps.get(node)
        if heap is None:
            heap = self._initialize_node(node, rng)
        counter = self._counters[node]
        epoch = self._epoch
        visited = self._visited_epoch
        reached_target = False
        pops = 0
        pop_cap = _LP_POP_CAP_FACTOR * max(1, len(heap))
        reschedule_base = counter + 1 if self.corrected else counter
        while heap and heap[0][0] <= counter and pops < pop_cap:
            pops += 1
            _, neighbor, edge_id = heapq.heappop(heap)
            skip = self._skip(rng, edge_id)
            heapq.heappush(heap, (reschedule_base + skip, neighbor, edge_id))
            if visited[neighbor] != epoch:
                visited[neighbor] = epoch
                frontier.append(neighbor)
                if neighbor == target:
                    reached_target = True
                    # Keep draining due entries so their keys do not fall
                    # behind the counter (see module docstring).
                    continue
        self._counters[node] = counter + 1
        self.last_query_statistics.edges_probed += pops
        return reached_target

    def _estimate_heap(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        # Fresh lazy state per query: schedules and buffered draws must not
        # leak across queries (each query is an independent batch of K
        # worlds, possibly under a different RNG stream).
        self._heaps = {}
        self._counters = {}
        self._uniform_buffer = np.empty(0)
        self._uniform_position = 0
        hits = 0
        for _ in range(samples):
            self._epoch += 1
            self._visited_epoch[source] = self._epoch
            frontier = [source]
            position = 0
            while position < len(frontier):
                node = frontier[position]
                position += 1
                if self._expand(node, target, frontier, rng):
                    hits += 1
                    break
        return hits / samples

    def memory_bytes(self) -> int:
        # Graph + per-node counters and per-edge geometric schedules (paper
        # §2.8: "a global counter for each node and a geometric random
        # instance heap for its neighbors").
        total = super().memory_bytes() + int(self._visited_epoch.nbytes)
        total += int(self._log_survival.nbytes)
        if self.engine == "array":
            total += int(self._next_fire.nbytes) + int(self._node_counters.nbytes)
        else:
            entry_bytes = 88  # tuple of three small ints, CPython estimate
            total += sum(
                64 + entry_bytes * len(heap) for heap in self._heaps.values()
            )
            total += 64 * len(self._counters)
        return total


class LazyPropagationOriginal(LazyPropagationEstimator):
    """The uncorrected LP of Li et al. — kept for the Fig. 5 experiment."""

    key = "lp"
    display_name = "LP"

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        engine: str = "array",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, corrected=False, engine=engine, seed=seed)


__all__ = ["LazyPropagationEstimator", "LazyPropagationOriginal", "ENGINES"]
