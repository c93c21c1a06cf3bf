"""Kernel conformance suite: vectorized sweeps vs the reference loops.

The vectorized kernels of :mod:`repro.engine.kernels` claim *bit
identity* with the per-node Python kernels they replace — the monotone
fixpoint has one solution whatever the evaluation schedule.  This
suite pins the claim over hypothesis-generated graphs (including
self-loops, which the graph constructor drops; disconnected nodes; hop
bounds; and empty worlds where no edge exists), then re-asserts it at
engine level (against the per-world sequential oracle too) and at
service level for every engine-backed estimator path.

Derandomized like the oracle-conformance suite: a failure is a bug,
never a coin flip.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimators.bfs_sharing import shared_reachability_fixpoint
from repro.core.graph import UncertainGraph
from repro.engine.batch import BatchEngine
from repro.engine.kernels import KERNEL_MODES, shared_fixpoint_vectorized
from repro.util import bitset
from tests.conftest import random_graph, small_graph_parts

CONFORMANCE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Hop bounds swept per example: None is the unbounded fixpoint, 0 is the
#: degenerate "source only" indicator, the rest exercise the
#: level-synchronous mode including bounds beyond the graph's diameter.
HOP_BOUNDS = (None, 0, 1, 2, 9)


def build(parts) -> UncertainGraph:
    node_count, edges = parts
    return UncertainGraph(node_count, edges)


class TestSharedFixpointConformance:
    """``shared_fixpoint_vectorized`` vs ``shared_reachability_fixpoint``."""

    @CONFORMANCE_SETTINGS
    @given(parts=small_graph_parts, seed=st.integers(0, 2**16))
    def test_node_bits_bit_identical(self, parts, seed):
        graph = build(parts)
        rng = np.random.default_rng(seed)
        bit_count = int(rng.integers(1, 130))  # spans 1..3 packed words
        edge_bits = bitset.sample_bit_matrix(graph.probs, bit_count, rng)
        for source in range(graph.node_count):
            for max_hops in HOP_BOUNDS:
                reference, ref_probed = shared_reachability_fixpoint(
                    graph, edge_bits, source, bit_count, max_hops=max_hops
                )
                vectorized, vec_probed = shared_fixpoint_vectorized(
                    graph, edge_bits, source, bit_count, max_hops=max_hops
                )
                np.testing.assert_array_equal(vectorized, reference)
                if max_hops is not None:
                    # Level-synchronous rounds visit identical frontiers,
                    # so even the probe *instrumentation* matches.  The
                    # unbounded worklist's probe count is a property of
                    # its schedule — the one permitted divergence.
                    assert vec_probed == ref_probed

    def test_empty_world_reaches_only_source(self):
        # All-zero edge bits: in every world no edge exists, so the
        # fixpoint must leave every non-source row empty.
        graph = random_graph(seed=3, node_count=6, edge_probability=0.5)
        bit_count = 64
        edge_bits = np.zeros((graph.edge_count, 1), dtype=np.uint64)
        node_bits, _ = shared_fixpoint_vectorized(graph, edge_bits, 0, bit_count)
        reference, _ = shared_reachability_fixpoint(graph, edge_bits, 0, bit_count)
        np.testing.assert_array_equal(node_bits, reference)
        assert bitset.popcount_rows(node_bits)[1:].sum() == 0

    def test_word_count_mismatch_rejected(self):
        graph = random_graph(seed=3, node_count=4, edge_probability=0.9)
        edge_bits = np.zeros((graph.edge_count, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="words"):
            shared_fixpoint_vectorized(graph, edge_bits, 0, 65)


#: Mixed workload shared by the engine-level tests: duplicates, shared
#: sources, distinct budgets, and d-hop twins (as in test_parallel).
WORKLOAD = [
    (0, 3, 400),
    (0, 5, 400),
    (1, 4, 250),
    (2, 6, 300),
    (0, 3, 400),
    (5, 2, 150),
    (0, 3, 400, 2),
    (1, 4, 250, 3),
]


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


class TestEngineKernelConformance:
    # The Python reference engines pin workers=1: ranges handed to a
    # pool sweep the default kernels, so only an inline run is the oracle.
    def test_vectorized_equals_python_exactly(self, graph):
        python = BatchEngine(
            graph, seed=5, chunk_size=64, workers=1, kernels="python"
        ).run(WORKLOAD)
        vectorized = BatchEngine(
            graph, seed=5, chunk_size=64, kernels="vectorized"
        ).run(WORKLOAD)
        np.testing.assert_array_equal(vectorized.estimates, python.estimates)
        assert vectorized.worlds_sampled == python.worlds_sampled
        assert vectorized.sweeps == python.sweeps

    def test_vectorized_agrees_with_sequential_oracle(self, graph):
        vectorized = BatchEngine(
            graph, seed=9, chunk_size=32, kernels="vectorized"
        ).run(WORKLOAD)
        oracle = BatchEngine(graph, seed=9).run_sequential(WORKLOAD)
        np.testing.assert_array_equal(vectorized.estimates, oracle.estimates)

    def test_vectorized_parallel_equals_serial(self, graph):
        serial = BatchEngine(
            graph, seed=5, chunk_size=64, kernels="vectorized"
        ).run(WORKLOAD)
        parallel = BatchEngine(
            graph, seed=5, chunk_size=64, kernels="vectorized", workers=2
        ).run(WORKLOAD)
        np.testing.assert_array_equal(serial.estimates, parallel.estimates)

    def test_default_is_vectorized(self, graph):
        assert BatchEngine(graph, seed=5).kernels == "vectorized"
        assert KERNEL_MODES == ("python", "vectorized")

    @pytest.mark.parametrize("bogus", ["simd", "PYTHON", "", None])
    def test_unknown_mode_rejected_at_construction(self, graph, bogus):
        with pytest.raises(ValueError, match="unknown kernel mode"):
            BatchEngine(graph, seed=5, kernels=bogus)
