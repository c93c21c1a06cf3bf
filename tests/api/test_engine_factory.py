"""One road to the engine: ``ReliabilityService._engine`` is the factory.

Every engine a served request touches — the batch's own, a warm pass's,
and the inner batches ``prob_tree`` runs over its lifted graphs — is
built by the service's factory, so they all share the service's result
cache, chunk size and worker count.  These tests pin the property from
the outside: what gets constructed, what leaks, what is shared.
"""

import os

import pytest

from repro.api import BatchRequest, QuerySpec, ReliabilityService
from repro.api import service as service_module
from repro.engine import cache as cache_module
from repro.engine import pool as pool_module
from repro.engine.batch import BatchEngine
from repro.engine.cache import graph_fingerprint
from repro.engine.pool import close_shared_pools, registered_pool
from repro.experiments.convergence import ConvergenceCriterion
from repro.experiments.runner import StudyConfig

PROB_TREE_BATCH = BatchRequest(
    queries=(
        QuerySpec(0, 5, 200),
        QuerySpec(0, 7, 200),
        QuerySpec(3, 9, 150),
        QuerySpec(11, 2, 120),
    ),
    method="prob_tree",
)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestOneRoad:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_prob_tree_batches_open_one_sidecar_and_leak_nothing(
        self, tmp_path, monkeypatch
    ):
        constructed = []
        real_init = cache_module.PersistentResultCache.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(
            cache_module.PersistentResultCache, "__init__", counting_init
        )
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=str(tmp_path / "cache")
        ) as service:
            service.estimate_batch(PROB_TREE_BATCH)  # index built, lifts cached
            before = open_fds()
            reports = [
                service.estimate_batch(
                    BatchRequest(
                        queries=PROB_TREE_BATCH.queries,
                        method="prob_tree",
                        seed=seed,
                    )
                ).engine
                for seed in range(100, 120)
            ]
            assert open_fds() == before
            assert constructed == [service._cache]
            # Fresh seeds: every one of those batches really sampled.
            assert all(report.worlds_sampled > 0 for report in reports)

    def test_a_repeated_prob_tree_batch_is_served_from_the_service_cache(self):
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3
        ) as service:
            cold = service.estimate_batch(PROB_TREE_BATCH)
            warm = service.estimate_batch(PROB_TREE_BATCH)
            assert cold.engine.mode == warm.engine.mode == "bag_grouped"
            assert cold.engine.cache_hits == 0
            assert cold.engine.worlds_sampled > 0
            # Inner batches are keyed by each lifted graph's own
            # fingerprint, in the cache every other request uses.
            assert warm.engine.cache_hits == cold.engine.cache_misses > 0
            assert warm.engine.cache_misses == 0
            assert warm.engine.worlds_sampled == 0
            assert warm.estimates == cold.estimates
            assert service.stats()["cache"]["size"] == cold.engine.cache_misses


class TestFactoryConfiguration:
    def test_engines_carry_the_service_configuration(self, monkeypatch):
        monkeypatch.setattr(service_module, "DEFAULT_CHUNK_SIZE", 64)
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, workers=2
        ) as service:
            engine = service._engine(service.graph, seed=9)
            assert isinstance(engine, BatchEngine)
            assert engine.cache is service._cache
            assert (engine.seed, engine.chunk_size) == (9, 64)
            assert (engine.workers, engine.kernels) == (2, "vectorized")

    def test_studies_stay_off_the_service_cache(self):
        # A study runs per-(pair, repeat) estimates: it neither fills the
        # request cache nor replays from it, so repeats are re-measured.
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=0
        ) as service:
            config = StudyConfig(
                dataset="lastfm", scale="tiny", pair_count=2, repeats=2,
                criterion=ConvergenceCriterion(
                    k_start=250, k_step=250, k_max=250
                ),
                estimators=("mc",), seed=0,
            )
            first = service.study(config)
            assert service.stats()["cache"]["size"] == 0
            again = service.study(config)
            assert service.stats()["cache"]["size"] == 0
            assert (
                again.results["mc"].points[0].per_pair_means.tolist()
                == first.results["mc"].points[0].per_pair_means.tolist()
            )


#: Six lastfm/small pairs whose covering bag pairs all differ: a
#: ``prob_tree`` batch over them lifts six distinct query graphs — more
#: than the pool registry holds — each swept at a multi-chunk budget.
LIFTED_PAIRS = ((0, 1), (4, 19), (17, 53), (19, 20), (20, 56), (38, 74))


class TestOnlyTheServedGraphFansOut:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        close_shared_pools()
        yield
        close_shared_pools()

    @staticmethod
    def serve(workers):
        """An ``mc`` batch, then a ``prob_tree`` one; estimates + registry."""
        requests = (
            BatchRequest(queries=(QuerySpec(0, 5, 1000), QuerySpec(3, 9, 1000))),
            BatchRequest(
                queries=tuple(QuerySpec(s, t, 1000) for s, t in LIFTED_PAIRS),
                method="prob_tree",
            ),
        )
        with ReliabilityService.from_dataset(
            "lastfm", "small", seed=0, workers=workers
        ) as service:
            index = service.estimator("prob_tree").index
            lift_keys = {index.lift_key(s, t) for s, t in LIFTED_PAIRS}
            assert len(lift_keys) == len(LIFTED_PAIRS)
            estimates = [
                service.estimate_batch(request).estimates
                for request in requests
            ]
            served = graph_fingerprint(service.graph)
            registry = list(pool_module._REGISTRY)
            pool = registered_pool(service.graph)
            closed = None if pool is None else pool.closed
        return estimates, served, registry, closed

    def test_the_factory_fans_out_over_the_served_graph_only(self):
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, workers=2
        ) as service:
            lifted, _ = service.estimator("prob_tree").lifted_graph((-1, -1))
            assert service._engine(service.graph, seed=1).workers == 2
            assert service._engine(lifted, seed=1).workers == 1

    def test_lifted_query_graphs_sweep_inline(self):
        estimates, served, registry, closed = self.serve(workers=2)
        # Only the served graph's pool was forked, and no lifted graph
        # evicted (and closed) it on the way.
        assert registry == [served]
        assert closed is False
        assert estimates == self.serve(workers=1)[0]
