"""Importance sampling "IS" with calibrated per-edge occurrence counts.

Plain MC draws each edge with its own probability ``p_e``, so rarely-present
edges on the only s-t paths make hits rare and the hit-rate estimator noisy.
This estimator samples worlds from a *proposal* distribution that tilts
load-bearing edges upward and reweights each world by its exact likelihood
ratio, which keeps the estimator unbiased for **any** proposal with
``q_e < 1`` wherever ``p_e < 1`` (the proposal dominates the target).

The tilt comes from the occurrence-count recipe of the GraphSAINT sampler
family (Zeng et al., ICLR'20 — see SNIPPETS.md): pre-generate ``N``
calibration worlds, count per-edge occurrences ``C_{u,v}`` and per-node
occurrences ``C_v`` (worlds in which any edge incident to ``v`` is present),
and read ``alpha_{u,v} = C_{u,v} / C_v`` as the normalised importance of the
edge to its head node.  Edges whose occurrence share exceeds their marginal
probability are exactly the ones whose presence correlates with connectivity,
so the proposal is ``q_e = p_e + tilt * (alpha_e - p_e)`` clamped to
``[p_e, ceiling]`` — *tilt-only-upward*, which bounds every present-edge
likelihood factor ``p_e / q_e`` by 1 and keeps weights numerically tame.

Calibration worlds come from the batch engine's deterministic world stream
(:meth:`repro.engine.batch.BatchEngine.world_masks`), so the cached counts
are pure in ``(graph, CALIBRATION_SEED)`` and rebuild identically after a
live update repoints the estimator.

The weighted mean ``(1/K) * sum_i w_i * I_i`` is exactly unbiased, but a
finite-K realisation can exceed 1.0 (absent-edge factors ``(1-p)/(1-q)``
are >= 1 under an upward tilt); the estimate is clipped to 1.0 on return,
trading a sliver of bias in the extreme-reliability regime for the
estimator contract's hard ``[0, 1]`` range — the oracle conformance suite
bounds the effect.
Guide with accuracy/speed/memory trade-offs: ``docs/estimators.md``.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.estimators.base import Estimator
from repro.core.graph import UncertainGraph
from repro.core.possible_world import ReachabilitySampler, forced_from_mask
from repro.util.rng import SeedLike
from repro.util.validation import check_positive

#: Default number of calibration worlds N.  Enough for occurrence shares to
#: stabilise (binomial noise ~ 1/sqrt(N) ≈ 7%) while keeping the one-off
#: calibration pass well under a single serving query's budget.
DEFAULT_CALIBRATION_WORLDS = 192

#: Root of the calibration world stream.  Fixed (not drawn from the
#: estimator's rng) so that re-calibration after ``apply_update``
#: reproduces exactly what a fresh construction would build.
CALIBRATION_SEED = 0

#: Default tilt strength: how far q moves from p toward alpha.
DEFAULT_TILT = 0.5

#: Proposal probabilities are clamped below this (unless p itself is
#: higher), keeping absent-edge likelihood factors (1-p)/(1-q) bounded.
PROPOSAL_CEILING = 0.98

#: Worlds are drawn in blocks of this many rows, bounding resident memory
#: at O(block * edge_count) bools however large K grows.
_SAMPLE_BLOCK = 128


class ImportanceSamplingEstimator(Estimator):
    """IS: occurrence-calibrated proposal sampling with exact reweighting."""

    key = "importance"
    display_name = "IS"
    uses_index = False
    batch_path = "fallback"

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        calibration_worlds: int = DEFAULT_CALIBRATION_WORLDS,
        tilt: float = DEFAULT_TILT,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        self.calibration_worlds = check_positive(
            calibration_worlds, "calibration_worlds"
        )
        self.tilt = float(tilt)
        if not 0.0 <= self.tilt <= 1.0:
            raise ValueError(f"tilt must be in [0, 1], got {tilt}")
        self._sampler = ReachabilitySampler(graph)
        self._target_buffer = np.empty(1, dtype=np.int64)
        self._proposal: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self.edge_occurrences: Optional[np.ndarray] = None
        self.node_occurrences: Optional[np.ndarray] = None

    def _rebind_graph(self, graph: UncertainGraph) -> None:
        self._sampler = ReachabilitySampler(graph)
        self._proposal = None
        self.edge_occurrences = None
        self.node_occurrences = None

    # ------------------------------------------------------------------
    # Calibration (the offline-ish phase; cheap, but cached like an index)
    # ------------------------------------------------------------------

    @property
    def prepared(self) -> bool:
        """Whether the occurrence counts and proposal are built."""
        return self._proposal is not None

    def prepare(self) -> None:
        """Run the calibration pass and derive the proposal distribution.

        Pure in ``(graph content, calibration_worlds, tilt)`` — no state
        from previous calibrations or queries leaks in, so a post-update
        rebuild equals a fresh build.
        """
        graph = self.graph
        edge_count = graph.edge_count
        counts = np.zeros(edge_count, dtype=np.int64)
        node_counts = np.zeros(graph.node_count, dtype=np.int64)
        if edge_count:
            # Core may reach up into engine at call time (the MC fast-path
            # precedent); the engine world stream makes calibration worlds
            # identical to what an engine run with this seed would sweep.
            from repro.engine.batch import BatchEngine

            engine = BatchEngine(graph, seed=CALIBRATION_SEED)
            masks = engine.world_masks(0, self.calibration_worlds)
            counts = masks.sum(axis=0, dtype=np.int64)
            sources = graph.edge_sources
            targets = graph.targets
            for row in masks:
                present = np.flatnonzero(row)
                if present.size == 0:
                    continue
                touched = np.unique(
                    np.concatenate((sources[present], targets[present]))
                )
                node_counts[touched] += 1
        self.edge_occurrences = counts
        self.node_occurrences = node_counts

        probs = graph.probs
        if edge_count:
            # alpha_{u,v} = C_{u,v} / C_v with v the edge head; a present
            # edge always touches its head, so alpha <= 1 by construction.
            heads = graph.targets
            alpha = counts / np.maximum(node_counts[heads], 1)
        else:
            alpha = np.zeros(0, dtype=np.float64)
        ceiling = np.maximum(probs, PROPOSAL_CEILING)
        proposal = np.maximum(
            probs, np.minimum(probs + self.tilt * (alpha - probs), ceiling)
        )
        # Likelihood-ratio log factors.  q >= p keeps log_present <= 0; the
        # absent factor is 0 where p == 1 (then q == 1 and absence has
        # probability zero under both distributions).
        log_present = np.log(probs) - np.log(proposal)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_absent = np.log1p(-probs) - np.log1p(-proposal)
        log_absent = np.where(probs >= 1.0, 0.0, log_absent)
        self._proposal = (proposal, log_present, log_absent)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def _estimate(
        self,
        source: int,
        target: int,
        samples: int,
        rng: np.random.Generator,
    ) -> float:
        self.ensure_prepared()
        proposal, log_present, log_absent = self._proposal
        edge_count = self.graph.edge_count
        if edge_count == 0:
            return 0.0
        # Per-world log weight = sum_present log(p/q) + sum_absent
        # log((1-p)/(1-q)); rearranged to one matmul per block plus the
        # constant all-absent baseline.
        base_absent = float(log_absent.sum())
        log_delta = log_present - log_absent
        target_buffer = self._target_buffer
        target_buffer[0] = target
        sampler = self._sampler
        total = 0.0
        edges_probed = 0
        remaining = samples
        while remaining:
            count = min(_SAMPLE_BLOCK, remaining)
            masks = rng.random((count, edge_count)) < proposal
            log_weights = masks @ log_delta + base_absent
            for row, log_weight in zip(masks, log_weights):
                hit = sampler.reach_targets(
                    source, target_buffer, rng=None, forced=forced_from_mask(row)
                )
                if hit[0]:
                    total += math.exp(log_weight)
            edges_probed += count * edge_count
            remaining -= count
        self.last_query_statistics.edges_probed = edges_probed
        # The raw weighted mean is exactly unbiased but can exceed 1.0 for
        # a finite K (see module docstring); the contract range wins.
        return min(total / samples, 1.0)

    def memory_bytes(self) -> int:
        # Graph + the three cached proposal arrays + occurrence counts +
        # the visited-epoch array; calibration mask blocks are transient.
        visited_bytes = self.graph.node_count * np.dtype(np.int64).itemsize
        cached = 0
        if self._proposal is not None:
            cached += sum(int(array.nbytes) for array in self._proposal)
        if self.edge_occurrences is not None:
            cached += int(self.edge_occurrences.nbytes)
        if self.node_occurrences is not None:
            cached += int(self.node_occurrences.nbytes)
        block_bytes = _SAMPLE_BLOCK * max(self.graph.edge_count, 1)
        return super().memory_bytes() + visited_bytes + cached + block_bytes


__all__ = [
    "ImportanceSamplingEstimator",
    "DEFAULT_CALIBRATION_WORLDS",
    "DEFAULT_TILT",
    "PROPOSAL_CEILING",
]
