"""Vectorized sweep kernels: bulk bitwise fixpoints over packed CSR bits.

The per-node Python loop in
:func:`~repro.core.estimators.bfs_sharing.shared_reachability_fixpoint`
spends most of its time in the interpreter once graphs grow: every
frontier node costs a Python iteration even though its actual work is a
handful of word-wide ORs.  This module provides a drop-in replacement
that processes a *whole frontier per NumPy call*:

* gather every out-edge of the frontier at once
  (:func:`~repro.util.bitset.concatenate_ranges` over the packed uint64
  CSR adjacency — edge row ``e`` of ``edge_bits`` is CSR position ``e``);
* AND each edge's bit row with its source's reachability row in one
  broadcast;
* scatter-OR the contributions into the target nodes with a sort +
  ``np.bitwise_or.reduceat`` segmented reduction (duplicate heads within
  a round collapse to one OR, exactly as sequential in-place ORs would).

Bit-identity is a theorem, not a hope: the reachability fixpoint
``I_v = OR over in-edges (u, v) of (I_u AND bits(u, v))`` is monotone
over a finite lattice, so *every* evaluation schedule — the FIFO
worklist of the Python kernel, the frontier-synchronous rounds here —
converges to the same unique fixpoint.  For hop-bounded sweeps both
kernels propagate from a snapshot of the frontier's rows, so bits travel
exactly one edge per round in either.  The conformance suite
(``tests/engine/test_kernels.py``) pins the equality bit for bit over
hypothesis-generated graphs.  The one permitted divergence is the
``edges_probed`` *instrumentation* of the unbounded fixpoint, which is a
property of the schedule, not of the answer.

Selection: every engine sweeps through this module by default.
``BatchEngine(kernels="python")`` selects the historical per-node
kernels in-process only — the reference the conformance suite compares
against, not a served option.  Range evaluators — the workers of
:mod:`repro.engine.pool` and the shards of :mod:`repro.distributed` —
always sweep the default kernels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.graph import UncertainGraph
from repro.util import bitset

#: Kernel implementations accepted by :class:`~repro.engine.batch.BatchEngine`.
KERNEL_MODES = ("python", "vectorized")


def _scatter_or(
    contribution: np.ndarray, heads: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """OR-reduce per-edge bit rows by their head node.

    Returns ``(unique_heads, reduced)`` where ``reduced[i]`` is the OR of
    every contribution row whose edge points at ``unique_heads[i]``.  The
    stable sort groups equal heads contiguously; ``reduceat`` then ORs
    each contiguous run in one C-level pass.
    """
    order = np.argsort(heads, kind="stable")
    heads_sorted = heads[order]
    run_starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(heads_sorted)) + 1)
    )
    unique_heads = heads_sorted[run_starts]
    reduced = np.bitwise_or.reduceat(contribution[order], run_starts, axis=0)
    return unique_heads, reduced


def shared_fixpoint_vectorized(
    graph: UncertainGraph,
    edge_bits: np.ndarray,
    source: int,
    bit_count: int,
    max_hops: Optional[int] = None,
) -> tuple:
    """Frontier-bulk evaluation of the shared-BFS dataflow fixpoint.

    Same signature, same ``node_bits`` — bit for bit — as
    :func:`~repro.core.estimators.bfs_sharing.shared_reachability_fixpoint`;
    see the module docstring for why the schedules must agree.  Each round
    gathers the whole frontier's CSR edge blocks, broadcasts the AND, and
    scatter-ORs into head nodes; nodes whose rows grew form the next
    frontier.  With ``max_hops`` the loop runs at most that many rounds
    (the level-synchronous d-hop mode); unbounded it runs to the fixpoint.
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

    frontier = np.asarray([source], dtype=np.int64)
    rounds = 0
    while frontier.size and (max_hops is None or rounds < max_hops):
        rounds += 1
        starts, stops = indptr[frontier], indptr[frontier + 1]
        edge_ids = bitset.concatenate_ranges(starts, stops)
        if edge_ids.size == 0:
            break
        edges_probed += edge_ids.size
        # All gathers precede the scatter, so every contribution reads
        # the frontier's rows as they stood when the round began — the
        # snapshot semantics the hop-bounded Python kernel enforces with
        # an explicit copy.
        edge_sources = np.repeat(frontier, stops - starts)
        contribution = edge_bits[edge_ids] & node_bits[edge_sources]
        unique_heads, reduced = _scatter_or(contribution, targets[edge_ids])
        updated = node_bits[unique_heads] | reduced
        changed = (updated != node_bits[unique_heads]).any(axis=1)
        frontier = unique_heads[changed]
        node_bits[frontier] = updated[changed]
    return node_bits, int(edges_probed)


__all__ = [
    "KERNEL_MODES",
    "shared_fixpoint_vectorized",
]
