"""Tests for ``ReliabilityService.update`` and the re-warm plumbing."""

import pytest

from repro.api import (
    BatchRequest,
    EstimateRequest,
    InvalidQueryError,
    ReliabilityService,
    UpdateRequest,
    coerce_query_specs,
)
from repro.core.graph import UncertainGraph
from repro.engine import pool as pool_module
from repro.engine.batch import BatchEngine
from repro.engine.cache import graph_fingerprint
from repro.engine.pool import registered_pool
from repro.util.rng import stable_substream

SEED = 11

EDGES = [
    (0, 1, 0.8), (1, 2, 0.6), (0, 2, 0.3), (2, 3, 0.7),
    (1, 3, 0.4), (3, 4, 0.9), (2, 4, 0.5),
]

QUERIES = [[0, 3, 300], [1, 4, 300], [0, 4, 300]]


def make_service(**options):
    return ReliabilityService(
        UncertainGraph(5, EDGES), seed=SEED, **options
    )


def batch(service, queries=None, **overrides):
    return service.estimate_batch(
        BatchRequest(
            queries=coerce_query_specs(queries or QUERIES), **overrides
        )
    )


class TestUpdateRoundTrip:
    def test_version_transition_and_counters(self):
        with make_service() as service:
            before = graph_fingerprint(service.graph)
            response = service.update(
                UpdateRequest(set_edges=((0, 1, 0.5),))
            )
            assert response.previous_fingerprint == before
            assert response.fingerprint != before
            assert response.fingerprint == graph_fingerprint(service.graph)
            assert response.version == 1
            assert response.edges_set == 1
            assert not response.structural
            assert service.stats()["requests"]["update"] == 1
            assert service.stats()["graph"]["version"] == 1

    def test_invalid_update_is_a_structured_400(self):
        with make_service() as service:
            with pytest.raises(InvalidQueryError):
                service.update(UpdateRequest(remove_edges=((4, 0),)))
            # A rejected update publishes nothing.
            assert service.graph.version == 0

    def test_stale_cache_keys_miss_and_new_version_matches_oracle(self):
        with make_service() as service:
            first = batch(service)
            assert first.engine.cache_misses == len(QUERIES)
            # Same request again: fully served from cache.
            again = batch(service)
            assert again.engine.cache_hits == len(QUERIES)
            assert again.engine.worlds_sampled == 0

            service.update(UpdateRequest(set_edges=((1, 2, 0.95),)))

            # The fingerprint changed, so every key misses...
            after = batch(service)
            assert after.engine.cache_hits == 0
            assert after.engine.cache_misses == len(QUERIES)
            assert after.engine.fingerprint != first.engine.fingerprint
            # ...and the answers are bit-identical to a fresh sequential
            # oracle over the mutated graph.
            oracle = BatchEngine(service.graph, seed=SEED).run_sequential(
                [(0, 3, 300, None), (1, 4, 300, None), (0, 4, 300, None)]
            )
            assert after.estimates == [float(e) for e in oracle.estimates]

    def test_untouched_version_entries_survive_an_update(self):
        with make_service() as service:
            batch(service)
            hits_before = service.stats()["cache"]["size"]
            service.update(UpdateRequest(set_edges=((0, 1, 0.55),)))
            # Nothing was purged: the predecessor's entries are still
            # resident (they simply stop matching new-version keys).
            assert service.stats()["cache"]["size"] == hits_before

    def test_an_updated_service_refuses_studies(self):
        # Studies measure the suite dataset, which an update has left
        # behind; measuring it silently would disagree with /v1 answers.
        from repro.experiments.convergence import ConvergenceCriterion
        from repro.experiments.runner import StudyConfig

        config = StudyConfig(
            dataset="lastfm", scale="tiny", seed=SEED,
            pair_count=1, repeats=2, estimators=("mc",),
            criterion=ConvergenceCriterion(k_start=250, k_step=250, k_max=250),
        )
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=SEED
        ) as service:
            assert set(service.study(config).results) == {"mc"}
            service.update(UpdateRequest(set_edges=((0, 1, 0.5),)))
            with pytest.raises(InvalidQueryError, match="graph was updated"):
                service.study(config)


class TestEstimatorMaintenance:
    def test_modes_reported_per_estimator(self):
        with make_service() as service:
            service.estimator("mc")
            service.estimator("prob_tree")
            service.estimator("bfs_sharing")
            response = service.update(
                UpdateRequest(set_edges=((0, 1, 0.5),))
            )
            assert response.estimators["prob_tree"] == "incremental"
            assert response.estimators["bfs_sharing"] == "dropped"
            assert response.estimators["mc"] in ("repointed", "rebuilt")

    def test_structural_update_rebuilds_prob_tree(self):
        with make_service() as service:
            service.estimator("prob_tree")
            response = service.update(UpdateRequest(remove_edges=((2, 4),)))
            assert response.structural
            assert response.estimators["prob_tree"] == "rebuilt"

    def test_incremental_prob_tree_matches_fresh_rebuild(self):
        # The estimator-index tentpole invariant: re-lifting only the
        # bags covering touched edges must be *bit-identical* to
        # decomposing the mutated graph from scratch.
        with make_service() as service:
            incremental = service.estimator("prob_tree")
            service.update(
                UpdateRequest(set_edges=((1, 2, 0.95), (3, 4, 0.15)))
            )
            fresh = service.create_estimator("prob_tree")
            fresh.ensure_prepared()
            queries = [(s, t, 200, None) for s in range(4) for t in range(5) if s != t]
            a = incremental.estimate_batch(queries, seed=SEED)
            b = fresh.estimate_batch(queries, seed=SEED)
            assert [float(x) for x in a] == [float(x) for x in b]

    def test_every_estimator_answers_on_the_new_version(self):
        # Whatever survival mode each method picked, its post-update
        # answers — the seed-keyed batch path and the per-query path on
        # the service's query substream — must match a same-method
        # estimator built fresh on the successor graph.
        methods = ("mc", "rhh", "rss", "lp", "prob_tree", "bfs_sharing")
        queries = [(0, 4, 300, None), (1, 3, 300, None)]
        with make_service() as service:
            for method in methods:
                service.estimator(method)
            service.update(UpdateRequest(set_edges=((0, 2, 0.85),)))
            for method in methods:
                served = service.estimator(method)
                fresh = service.create_estimator(method)
                a = served.estimate_batch(queries, seed=SEED)
                b = fresh.estimate_batch(queries, seed=SEED)
                assert [float(x) for x in a] == [float(x) for x in b], method
                for source, target, samples, _ in queries:
                    a, b = (
                        estimator.estimate(
                            source, target, samples,
                            rng=stable_substream(SEED, source, target),
                        )
                        for estimator in (served, fresh)
                    )
                    assert a == b, (method, source, target)

    def test_bfs_sharing_answers_survive_index_growth(self):
        # A larger request grows the offline index; it extends the same
        # worlds, so a smaller request answers as it did before.
        def estimate(service, samples):
            return service.estimate(
                EstimateRequest(
                    source=0, target=4, samples=samples, method="bfs_sharing"
                )
            ).estimate

        with make_service() as grown, make_service() as fresh:
            before = estimate(grown, 300)
            estimate(grown, 2_000)
            assert grown.estimator("bfs_sharing").capacity == 2_000
            assert estimate(grown, 300) == before == estimate(fresh, 300)


class TestPoolLifecycle:
    """The service owns no pool: versions map to registry pools."""

    def test_update_retires_the_predecessors_registry_pool(self):
        with make_service(workers=2) as service:
            assert service.stats()["pool"] is None
            batch(service)
            predecessor = service.graph
            pool = registered_pool(predecessor)
            assert pool is not None
            assert pool.fingerprint == graph_fingerprint(predecessor)
            assert service.stats()["pool"] == pool.statistics()
            assert service.stats()["pool"]["started"] is True
            response = service.update(
                UpdateRequest(set_edges=((0, 1, 0.5),))
            )
            assert response.pool == "respawned"
            assert pool.closed
            assert registered_pool(predecessor) is None
            assert service.stats()["pool"] is None
            # The next multi-worker run registers one for the successor.
            batch(service)
            successor_pool = registered_pool(service.graph)
            assert successor_pool is not None and not successor_pool.closed
            assert successor_pool.fingerprint == graph_fingerprint(
                service.graph
            )
            assert service.stats()["pool"]["workers"] == 2
        # Closing the service retires the pool of the graph it served.
        assert successor_pool.closed
        assert registered_pool(service.graph) is None

    def test_update_without_a_pool_reports_none(self):
        with make_service(workers=1) as service:
            batch(service)
            response = service.update(
                UpdateRequest(set_edges=((0, 1, 0.5),))
            )
            assert response.pool == "none"
            assert service.stats()["pool"] is None

    def test_a_run_in_flight_across_an_update_finishes_inline(
        self, monkeypatch
    ):
        with make_service(workers=1) as inline:
            reference = batch(inline)
        resolve_pool = pool_module.shared_pool
        with make_service(workers=2) as service:
            predecessor = service.graph

            def update_lands_after_the_run_resolved_its_pool(graph, workers):
                pool = resolve_pool(graph, workers)
                monkeypatch.setattr(pool_module, "shared_pool", resolve_pool)
                service.update(UpdateRequest(set_edges=((0, 1, 0.5),)))
                return pool  # retired under the run's feet

            monkeypatch.setattr(
                pool_module,
                "shared_pool",
                update_lands_after_the_run_resolved_its_pool,
            )
            response = batch(service)
            # PoolClosedError -> the chunk loop ran in this thread, over
            # the version the run had snapshot.
            assert service.graph is not predecessor
            assert response.engine.workers == 1
            assert response.engine.fingerprint == graph_fingerprint(
                predecessor
            )
            assert response.estimates == reference.estimates
            assert registered_pool(predecessor) is None


class TestQueryLogAndRewarm:
    def test_top_queries_rank_by_count(self):
        with make_service() as service:
            batch(service, [[0, 3, 300]])
            batch(service, [[0, 3, 300]])
            batch(service, [[1, 4, 300]])
            top = service.top_queries(2)
            assert top[0]["source"] == 0 and top[0]["target"] == 3
            assert top[0]["count"] == 2
            assert top[1]["count"] == 1

    def test_rewarm_repopulates_the_new_version(self):
        with make_service() as service:
            batch(service, [[0, 3, 300]])
            service.update(UpdateRequest(set_edges=((0, 1, 0.5),)))
            summary = service.rewarm(1)
            assert summary == {"queries_rewarmed": 1, "warm_passes": 1}
            # The hottest key is warm again: replaying it samples nothing.
            after = batch(service, [[0, 3, 300]])
            assert after.engine.worlds_sampled == 0
            assert after.engine.cache_hits == 1
            assert service.stats()["rewarm"] == {"runs": 1, "queries": 1}

    def test_rewarm_groups_by_seed(self):
        with make_service() as service:
            batch(service, [[0, 3, 300]])
            batch(service, [[1, 4, 300]], seed=99)
            summary = service.rewarm(2)
            assert summary["warm_passes"] == 2
            # Both keys replay against their own seed: repeats hit.
            assert batch(service, [[0, 3, 300]]).engine.worlds_sampled == 0
            assert (
                batch(service, [[1, 4, 300]], seed=99).engine.worlds_sampled
                == 0
            )

    def test_rewarm_with_an_empty_log_is_a_no_op(self):
        with make_service() as service:
            assert service.rewarm() == {
                "queries_rewarmed": 0, "warm_passes": 0,
            }
