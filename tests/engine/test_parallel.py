"""Property tests for the multiprocess range sweep (``workers >= 2``).

The engine's headline guarantee (see the determinism contract in
:mod:`repro.engine.batch`): because world ``i`` is a pure function of
``(graph, seed, i)`` and per-range hit counts are integers, fanning world
ranges out over the registry's process pool cannot change a single bit of
any result.  These tests pin that down for random plans, chunk sizes,
seeds, worker counts, and d-hop bounds.  (Failure paths of the pool
itself live in ``test_pool.py``.)
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.estimators.monte_carlo import MonteCarloEstimator
from repro.engine.batch import WORKERS_ENV_VAR, BatchEngine, resolve_workers
from repro.engine.cache import ResultCache
from tests.conftest import random_graph

#: Mixed workload: duplicates, shared sources, distinct budgets, and d-hop
#: twins of unbounded queries (same pair, different indicator).
WORKLOAD = [
    (0, 3, 400),
    (0, 5, 400),
    (1, 4, 250),
    (2, 6, 300),
    (0, 3, 400),  # duplicate on purpose
    (5, 2, 150),
    (0, 3, 400, 2),
    (1, 4, 250, 3),
]


@pytest.fixture(scope="module")
def graph():
    return random_graph(seed=11, node_count=12, edge_probability=0.25)


class TestBitForBitAgreement:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_equals_serial_exactly(self, graph, workers):
        serial = BatchEngine(graph, seed=5, chunk_size=64).run(WORKLOAD)
        parallel = BatchEngine(
            graph, seed=5, chunk_size=64, workers=workers
        ).run(WORKLOAD)
        np.testing.assert_array_equal(serial.estimates, parallel.estimates)
        # Same chunk boundaries => identical instrumentation too.
        assert parallel.worlds_sampled == serial.worlds_sampled
        assert parallel.sweeps == serial.sweeps
        assert parallel.cache_hits == serial.cache_hits
        assert parallel.cache_misses == serial.cache_misses
        assert parallel.workers == workers

    def test_parallel_agrees_with_sequential_oracle(self, graph):
        parallel = BatchEngine(
            graph, seed=9, chunk_size=32, workers=2
        ).run(WORKLOAD)
        oracle = BatchEngine(graph, seed=9).run_sequential(WORKLOAD)
        np.testing.assert_array_equal(parallel.estimates, oracle.estimates)

    @settings(
        max_examples=8,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        queries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=1, max_value=120),
                st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
            ),
            min_size=1,
            max_size=6,
        ),
        chunk_size=st.sampled_from([1, 7, 32, 64]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_random_plans_agree_bit_for_bit(
        self, graph, queries, chunk_size, seed
    ):
        serial = BatchEngine(graph, seed=seed, chunk_size=chunk_size).run(
            queries
        )
        parallel = BatchEngine(
            graph, seed=seed, chunk_size=chunk_size, workers=2
        ).run(queries)
        np.testing.assert_array_equal(serial.estimates, parallel.estimates)
        assert parallel.sweeps == serial.sweeps


class TestDHopInvariants:
    DHOP_WORKLOAD = [(0, 3, 300, 2), (0, 5, 300, 1), (2, 6, 200, 3)]

    @pytest.mark.parametrize("chunk_size", [1, 13, 64, 1000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dhop_independent_of_chunking_and_workers(
        self, graph, chunk_size, workers
    ):
        reference = BatchEngine(graph, seed=3, chunk_size=17).run(
            self.DHOP_WORKLOAD
        )
        other = BatchEngine(
            graph, seed=3, chunk_size=chunk_size, workers=workers
        ).run(self.DHOP_WORKLOAD)
        np.testing.assert_array_equal(reference.estimates, other.estimates)

    def test_large_hop_bound_equals_unbounded(self, graph):
        # Any bound >= node count covers every simple path, so the d-hop
        # indicator coincides with plain reachability world by world.
        bounded = BatchEngine(graph, seed=3).run([(0, 3, 300, 12)])
        unbounded = BatchEngine(graph, seed=3).run([(0, 3, 300)])
        assert bounded.estimates[0] == unbounded.estimates[0]

    def test_hop_bound_is_monotone(self, graph):
        result = BatchEngine(graph, seed=3).run(
            [(0, 3, 400, hops) for hops in (1, 2, 3)] + [(0, 3, 400)]
        )
        estimates = result.estimates
        assert estimates[0] <= estimates[1] <= estimates[2] <= estimates[3]


class TestSchedulingAndFallback:
    def test_single_chunk_runs_in_process(self, graph):
        result = BatchEngine(
            graph, seed=5, chunk_size=1000, workers=4
        ).run(WORKLOAD)
        assert result.workers == 1  # one task: nothing to fan out

    def test_workers_capped_by_task_count(self, graph):
        # K=400, chunk_size=200 -> 2 tasks; 8 workers collapse to 2.
        result = BatchEngine(
            graph, seed=5, chunk_size=200, workers=8
        ).run(WORKLOAD)
        assert result.workers == 2

    def test_parallel_run_populates_parent_cache(self, graph):
        engine = BatchEngine(graph, seed=5, chunk_size=64, workers=2)
        first = engine.run(WORKLOAD)
        assert first.cache_misses == len(set(WORKLOAD))
        replay = engine.run(WORKLOAD)
        assert replay.worlds_sampled == 0
        assert replay.cache_hits == len(set(WORKLOAD))
        np.testing.assert_array_equal(first.estimates, replay.estimates)

    def test_parallel_cache_interoperates_with_serial(self, graph):
        cache = ResultCache(capacity=64)
        BatchEngine(graph, seed=5, workers=2, chunk_size=64, cache=cache).run(
            WORKLOAD
        )
        serial_replay = BatchEngine(graph, seed=5, cache=cache).run(WORKLOAD)
        assert serial_replay.worlds_sampled == 0


class TestConfiguration:
    def test_workers_must_be_positive(self, graph):
        with pytest.raises(ValueError):
            BatchEngine(graph, workers=0)

    def test_resolve_workers_explicit(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(3) == 3
        assert resolve_workers(None) == 1

    def test_env_var_supplies_default(self, graph, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert BatchEngine(graph).workers == 3
        # Explicit argument beats the environment.
        assert BatchEngine(graph, workers=1).workers == 1

    def test_blank_env_var_means_serial(self, graph, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "")
        assert BatchEngine(graph).workers == 1

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
    def test_garbage_env_var_names_its_source(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR) as excinfo:
            resolve_workers(None)
        assert repr(raw) in str(excinfo.value)


class TestEstimatorIntegration:
    def test_a_multi_worker_engine_factory_cannot_change_estimates(
        self, graph
    ):
        mc = MonteCarloEstimator(graph, seed=0)
        serial = mc.estimate_batch(
            WORKLOAD, seed=5,
            engine=functools.partial(BatchEngine, chunk_size=64, workers=1),
        )
        parallel = mc.estimate_batch(
            WORKLOAD, seed=5,
            engine=functools.partial(BatchEngine, chunk_size=64, workers=2),
        )
        assert mc.last_batch_result.workers == 2
        np.testing.assert_array_equal(serial, parallel)
