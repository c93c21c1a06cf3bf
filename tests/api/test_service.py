"""Tests for the `ReliabilityService` facade.

The facade is the single public surface: these tests pin (a) its
equivalence to the lower-level building blocks it wraps, (b) its
structured failure modes, and (c) the amortisation a long-lived service
exists for — shared caches, shared estimator indexes, and thread-safe
bit-identical answers.
"""

import contextlib
import itertools
import threading

import numpy as np
import pytest

from repro.api import (
    BatchRequest,
    BoundsRequest,
    EstimateRequest,
    GraphLoadError,
    InvalidQueryError,
    QuerySpec,
    RecommendRequest,
    ReliabilityService,
    TopKRequest,
    UnknownEstimatorError,
    UpdateRequest,
    WarmRequest,
)
from repro.core.bounds import reliability_bounds
from repro.core.graph import UncertainGraph
from repro.core.recommend import recommend_estimator
from repro.core.registry import create_estimator
from repro.engine.batch import BatchEngine
from repro.queries.top_k import top_k_reliable_targets
from repro.util.rng import stable_substream

WORKLOAD = (
    QuerySpec(0, 5, 200),
    QuerySpec(3, 9, 150),
    QuerySpec(0, 5, 200),  # duplicate on purpose
)


@pytest.fixture
def service():
    built = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
    yield built
    built.close()


class TestConstruction:
    def test_from_dataset_unknown_key_is_structured(self):
        with pytest.raises(GraphLoadError, match="unknown dataset"):
            ReliabilityService.from_dataset("not_a_dataset", "tiny")

    def test_from_dataset_unknown_scale_is_structured(self):
        with pytest.raises(GraphLoadError, match="unknown scale"):
            ReliabilityService.from_dataset("lastfm", "galactic")

    def test_raw_graph_service(self, diamond_graph):
        service = ReliabilityService(diamond_graph, seed=1)
        response = service.estimate(
            EstimateRequest(source=0, target=3, samples=2_000)
        )
        assert 0.0 <= response.estimate <= 1.0
        assert response.dataset is None

    def test_non_graph_rejected(self):
        with pytest.raises(GraphLoadError, match="UncertainGraph"):
            ReliabilityService("not a graph")

    @pytest.mark.parametrize("field", ["workers", "chunk_size"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_engine_default_rejected(
        self, diamond_graph, field, value
    ):
        # Structured at construction, not a 500 on every engine request.
        with pytest.raises(
            InvalidQueryError,
            match=f"{field} must be a positive integer, got {value}",
        ):
            ReliabilityService(diamond_graph, **{field: value})
        with pytest.raises(InvalidQueryError, match=f"{field} must be"):
            ReliabilityService.from_dataset("lastfm", "tiny", **{field: value})

    def test_context_manager_closes(self, diamond_graph):
        with ReliabilityService(diamond_graph) as service:
            assert service.health()["status"] == "ok"
        assert service.health()["status"] == "closed"


class TestEstimate:
    def test_matches_direct_registry_protocol(self, service):
        """The facade replays the CLI's historical per-query protocol."""
        estimator = create_estimator("mc", service.graph, seed=3)
        expected = estimator.estimate(
            0, 5, 200, rng=stable_substream(3, 0, 5)
        )
        response = service.estimate(
            EstimateRequest(source=0, target=5, samples=200)
        )
        assert response.estimate == expected
        assert response.method_display == "MC"
        assert response.seed == 3

    def test_repeated_calls_replay_identically(self, service):
        request = EstimateRequest(source=0, target=5, samples=200)
        first = service.estimate(request)
        second = service.estimate(request)
        assert first.estimate == second.estimate

    def test_unknown_method_is_structured(self, service):
        with pytest.raises(UnknownEstimatorError, match="unknown estimator"):
            service.estimate(
                EstimateRequest(source=0, target=5, method="quantum")
            )

    def test_out_of_range_node_is_structured(self, service):
        with pytest.raises(InvalidQueryError, match="source 999 out of range"):
            service.estimate(EstimateRequest(source=999, target=5))

    def test_nonpositive_samples_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="samples"):
            service.estimate(EstimateRequest(source=0, target=5, samples=0))

    def test_estimators_are_cached_per_method(self, service):
        service.estimate(EstimateRequest(source=0, target=5, samples=50))
        service.estimate(EstimateRequest(source=3, target=9, samples=50))
        assert service.estimator("mc") is service.estimator("mc")
        assert service.stats()["estimators_loaded"] == ["mc"]


class TestEstimateBatch:
    def test_engine_path_matches_bare_engine(self, service):
        engine = BatchEngine(service.graph, seed=3)
        expected = engine.run([(0, 5, 200), (3, 9, 150), (0, 5, 200)])
        response = service.estimate_batch(BatchRequest(queries=WORKLOAD))
        assert response.estimates == [float(e) for e in expected.estimates]
        assert response.engine.mode == "shared_worlds"
        assert response.engine.worlds_sampled == 200

    def test_second_identical_request_served_from_cache(self, service):
        request = BatchRequest(queries=WORKLOAD)
        first = service.estimate_batch(request)
        second = service.estimate_batch(request)
        assert second.engine.worlds_sampled == 0
        assert second.engine.sweeps == 0
        assert [r.cached for r in first.results] == [False, False, False]
        assert [r.cached for r in second.results] == [True, True, True]
        assert first.estimates == second.estimates

    def test_bfs_sharing_bit_identical_to_mc(self, service):
        mc = service.estimate_batch(BatchRequest(queries=WORKLOAD))
        bfs = service.estimate_batch(
            BatchRequest(queries=WORKLOAD, method="bfs_sharing")
        )
        assert mc.estimates == bfs.estimates

    def test_default_samples_applied(self, service):
        response = service.estimate_batch(
            BatchRequest(queries=(QuerySpec(0, 5),), samples=120)
        )
        assert response.results[0].samples == 120

    def test_prob_tree_matches_direct_estimator(self, service):
        direct = create_estimator("prob_tree", service.graph, seed=3)
        direct.prepare()
        expected = direct.estimate_batch(
            [(0, 5, 200), (3, 9, 150)], seed=3
        )
        response = service.estimate_batch(
            BatchRequest(
                queries=(QuerySpec(0, 5, 200), QuerySpec(3, 9, 150)),
                method="prob_tree",
            )
        )
        assert response.engine.mode == "bag_grouped"
        assert response.estimates == [float(e) for e in expected]

    def test_fallback_matches_direct_estimator(self, service):
        direct = create_estimator("rhh", service.graph, seed=3)
        expected = direct.estimate_batch([(0, 5, 100)], seed=3)
        response = service.estimate_batch(
            BatchRequest(queries=(QuerySpec(0, 5, 100),), method="rhh")
        )
        assert response.engine.mode == "per_query_loop"
        assert response.estimates == [float(expected[0])]

    def test_out_of_range_query_names_its_position(self, service):
        with pytest.raises(
            InvalidQueryError, match="query 1: target 999 out of range"
        ):
            service.estimate_batch(
                BatchRequest(
                    queries=(QuerySpec(0, 5, 100), QuerySpec(0, 999, 100))
                )
            )

    def test_hop_bounded_fallback_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="shared-world engine"):
            service.estimate_batch(
                BatchRequest(
                    queries=(QuerySpec(0, 5, 100, 2),), method="rhh"
                )
            )

    def test_request_seed_overrides_service_seed(self, service):
        engine = BatchEngine(service.graph, seed=11)
        expected = engine.run([(0, 5, 200)])
        response = service.estimate_batch(
            BatchRequest(queries=(QuerySpec(0, 5, 200),), seed=11)
        )
        assert response.seed == 11
        assert response.estimates == [float(expected.estimates[0])]

    def test_to_dict_shape_is_the_cli_contract(self, service):
        report = service.estimate_batch(
            BatchRequest(queries=WORKLOAD)
        ).to_dict()
        assert list(report) == [
            "dataset", "scale", "method", "seed", "query_count", "engine",
            "results",
        ]
        assert report["dataset"] == "lastfm"
        assert report["scale"] == "tiny"
        assert report["query_count"] == 3
        for row in report["results"]:
            assert set(row) == {
                "source", "target", "samples", "max_hops", "estimate",
                "cached",
            }


class TestWarm:
    def test_warm_reports_new_vs_already_warm(self, service):
        first = service.warm(WarmRequest(queries=WORKLOAD))
        assert first.query_count == 3
        assert first.unique_queries == 2  # the duplicate collapses
        assert first.newly_written == 2
        assert first.already_warm == 0
        second = service.warm(WarmRequest(queries=WORKLOAD))
        assert second.newly_written == 0
        assert second.already_warm == 2
        assert second.worlds_sampled == 0

    def test_warm_serves_subsequent_batches(self, service):
        service.warm(WarmRequest(queries=WORKLOAD))
        response = service.estimate_batch(BatchRequest(queries=WORKLOAD))
        assert response.engine.worlds_sampled == 0
        assert all(result.cached for result in response.results)

    def test_warm_persists_across_services(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as warmer:
            report = warmer.warm(WarmRequest(queries=WORKLOAD))
            assert report.persistent is True
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, cache_dir=cache_dir
        ) as reader:
            response = reader.estimate_batch(BatchRequest(queries=WORKLOAD))
            assert response.engine.worlds_sampled == 0

    def test_warm_validates_queries(self, service):
        with pytest.raises(InvalidQueryError, match="query 0"):
            service.warm(WarmRequest(queries=(QuerySpec(0, 9999, 10),)))


class TestOtherEndpoints:
    def test_topk_matches_direct_call(self, service):
        expected = top_k_reliable_targets(
            service.graph, 0, 3, samples=200, seed=3
        )
        response = service.topk(TopKRequest(source=0, k=3, samples=200))
        assert list(response.ranking) == expected

    def test_topk_is_on_the_bit_identity_contract(self, service):
        """Top-k at seed x == `/v1/batch` `mc` at seed x, bit for bit."""
        nodes = range(service.graph.node_count)
        with contextlib.ExitStack() as stack:
            reconfigured = [
                stack.enter_context(
                    ReliabilityService.from_dataset(
                        "lastfm", "tiny", seed=3, **options
                    )
                )
                for options in ({"chunk_size": 64}, {"workers": 2})
            ]
            for seed, source in itertools.product((4, 21), (0, 7)):
                request = TopKRequest(
                    source=source, k=len(nodes), samples=200, seed=seed
                )
                ranking = service.topk(request).ranking
                batch = service.estimate_batch(
                    BatchRequest(
                        queries=tuple(
                            QuerySpec(source, node, 200) for node in nodes
                        ),
                        method="mc",
                        seed=seed,
                    )
                )
                assert dict(ranking) == {
                    row.target: row.estimate
                    for row in batch.results
                    if row.target != source
                }
                for other in reconfigured:
                    assert other.topk(request).ranking == ranking

    def test_bounds_matches_direct_call(self, service):
        lower, upper = reliability_bounds(service.graph, 0, 5)
        response = service.bounds(BoundsRequest(source=0, target=5))
        assert (response.lower, response.upper) == (lower, upper)

    def test_recommend_static_matches_decision_tree(self):
        expected = recommend_estimator(
            memory_limited=True, want_fastest=True
        )
        response = ReliabilityService.recommend_static(
            RecommendRequest(memory_limited=True)
        )
        assert response.estimators == tuple(expected.estimators)
        assert "ProbTree" in response.display_names

    @pytest.mark.parametrize(
        "shape", [{"max_hops": -1}, {"max_hops": 0}, {"samples": -5}]
    )
    def test_recommend_rejects_a_non_positive_query_shape(self, service, shape):
        (field,) = shape
        request = RecommendRequest(**shape)
        with pytest.raises(InvalidQueryError, match=f"{field} must be"):
            service.recommend(request)
        with pytest.raises(InvalidQueryError, match=f"{field} must be"):
            ReliabilityService.recommend_static(request)

    def test_instance_recommend_reports_decision_and_telemetry(self, service):
        response = service.recommend(RecommendRequest(samples=200))
        assert response.reason == "cold_start"
        assert response.estimators[0] == response.decision["method"]
        assert response.decision["static_path"]
        assert response.telemetry["observations"] == 0
        # Warm one method's bucket past the trust threshold: the router
        # switches to measured evidence and cites it.
        for _ in range(6):
            service.estimate(
                EstimateRequest(source=0, target=5, samples=200, method="mc")
            )
        warmed = service.recommend(RecommendRequest(samples=200))
        assert warmed.reason == "measured"
        assert warmed.estimators[0] == "mc"
        assert warmed.decision["evidence"]["mc"]["count"] >= 6
        assert warmed.telemetry["methods"]["mc"]["observations"] >= 6

    def test_health_and_stats(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["dataset"] == "lastfm"
        service.estimate(EstimateRequest(source=0, target=5, samples=50))
        stats = service.stats()
        assert stats["requests"]["estimate"] == 1
        assert stats["cache"]["capacity"] > 0
        assert stats["persistent"] is False
        assert stats["uptime_seconds"] >= 0


class TestStudy:
    def test_study_through_facade_matches_direct_runner(self):
        from repro.experiments.convergence import ConvergenceCriterion
        from repro.experiments.runner import StudyConfig, run_study

        config = StudyConfig(
            dataset="lastfm",
            scale="tiny",
            pair_count=2,
            repeats=2,
            criterion=ConvergenceCriterion(k_start=250, k_step=250, k_max=500),
            estimators=("mc",),
            seed=3,
        )
        direct = run_study(config)
        service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
        via_facade = service.study(config)
        assert direct.accuracy_rows() == via_facade.accuracy_rows()

    def test_study_config_must_match_service(self, service):
        from repro.experiments.runner import StudyConfig

        config = StudyConfig(dataset="nethept", scale="tiny", seed=3)
        with pytest.raises(InvalidQueryError, match="addresses"):
            service.study(config)

    @pytest.mark.parametrize(
        "criterion,field",
        [
            (dict(k_start=0, k_step=250, k_max=500), "k_start"),
            (dict(k_start=250, k_step=0, k_max=500), "k_step"),
        ],
    )
    def test_a_study_needs_a_k_grid(self, criterion, field):
        # The CLI cannot set these; the other no-work shapes are in test_cli.
        from repro.experiments.convergence import ConvergenceCriterion
        from repro.experiments.runner import StudyConfig

        config = StudyConfig(
            dataset="lastfm", scale="tiny", seed=3,
            criterion=ConvergenceCriterion(**criterion),
        )
        service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
        with pytest.raises(InvalidQueryError, match=field):
            service.study(config)

    def test_raw_graph_service_refuses_studies(self, diamond_graph):
        from repro.experiments.runner import StudyConfig

        service = ReliabilityService(diamond_graph)
        with pytest.raises(GraphLoadError, match="raw graph"):
            service.study(StudyConfig(dataset="lastfm", scale="tiny"))


class TestThreadSafety:
    def test_concurrent_batches_are_bit_identical(self, service):
        request = BatchRequest(queries=WORKLOAD)
        oracle = BatchEngine(service.graph, seed=3).run(
            [(0, 5, 200), (3, 9, 150), (0, 5, 200)]
        )
        expected = [float(e) for e in oracle.estimates]
        results = [None] * 8
        errors = []

        def worker(slot):
            try:
                results[slot] = service.estimate_batch(request).estimates
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(result == expected for result in results)

    def test_concurrent_mixed_endpoints(self, service):
        errors = []

        def estimate():
            try:
                service.estimate(
                    EstimateRequest(source=0, target=5, samples=100)
                )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def batch():
            try:
                service.estimate_batch(BatchRequest(queries=WORKLOAD))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=target) for target in
                   (estimate, batch, estimate, batch)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = service.stats()
        assert stats["requests"]["estimate"] == 2
        assert stats["requests"]["batch"] == 2


class TestBatchPathIntrospection:
    def test_batch_path_of(self):
        assert ReliabilityService.batch_path_of("mc") == "engine"
        assert ReliabilityService.batch_path_of("bfs_sharing") == "engine"
        assert ReliabilityService.batch_path_of("prob_tree") == "bag_grouped"
        assert ReliabilityService.batch_path_of("rhh") == "fallback"

    def test_batch_path_of_unknown_method(self):
        with pytest.raises(UnknownEstimatorError):
            ReliabilityService.batch_path_of("quantum")


def test_numpy_estimates_are_plain_floats(diamond_graph):
    service = ReliabilityService(diamond_graph, seed=0)
    response = service.estimate_batch(
        BatchRequest(queries=(QuerySpec(0, 3, 64),))
    )
    assert not isinstance(response.results[0].estimate, np.floating)


class TestEstimateSeedProvenance:
    def test_index_methods_honour_the_request_seed(self, service):
        """Regression: a request seed must govern index-backed answers.

        The long-lived bfs_sharing estimator samples its world index
        from the service seed; a request carrying its own seed gets a
        fresh estimator seeded by the request, so the reported seed is
        the estimate's true provenance.
        """
        response = service.estimate(
            EstimateRequest(
                source=0, target=5, samples=200, method="bfs_sharing",
                seed=11,
            )
        )
        direct = create_estimator("bfs_sharing", service.graph, seed=11)
        expected = direct.estimate(
            0, 5, 200, rng=stable_substream(11, 0, 5)
        )
        assert response.seed == 11
        assert response.estimate == expected

    def test_service_seed_requests_share_the_cached_index(self, service):
        first = service.estimate(
            EstimateRequest(
                source=0, target=5, samples=200, method="bfs_sharing"
            )
        )
        second = service.estimate(
            EstimateRequest(
                source=0, target=5, samples=200, method="bfs_sharing",
                seed=3,  # explicit but equal to the service seed
            )
        )
        assert first.estimate == second.estimate
        assert "bfs_sharing" in service.stats()["estimators_loaded"]


class TestFineGrainedLocking:
    """The PR 5 concurrency model: independent requests truly overlap."""

    def test_concurrent_methods_bit_identical_to_serial(self):
        # Every batch path (engine, bag_grouped, fallback) and estimate,
        # racing on one service, must equal an untouched serial service.
        serial = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
        shared = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
        requests = [
            ("batch", BatchRequest(queries=WORKLOAD, method="mc")),
            ("batch", BatchRequest(queries=WORKLOAD, method="bfs_sharing")),
            ("batch", BatchRequest(
                queries=(QuerySpec(0, 5, 120), QuerySpec(3, 9, 120)),
                method="prob_tree",
            )),
            ("batch", BatchRequest(queries=(QuerySpec(0, 5, 60),),
                                   method="rhh")),
            ("estimate", EstimateRequest(source=0, target=5, samples=150)),
            ("estimate", EstimateRequest(source=3, target=9, samples=150)),
        ]
        expected = []
        for kind, request in requests:
            if kind == "batch":
                expected.append(serial.estimate_batch(request).estimates)
            else:
                expected.append(serial.estimate(request).estimate)
        serial.close()

        results = [None] * len(requests)
        errors = []

        def worker(slot):
            kind, request = requests[slot]
            try:
                if kind == "batch":
                    results[slot] = shared.estimate_batch(request).estimates
                else:
                    results[slot] = shared.estimate(request).estimate
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shared.close()
        assert not errors
        assert results == expected

    def test_stats_never_blocks_and_counts_exactly(self, service):
        # Readers poll stats while writers drive requests; every
        # snapshot must be well-formed and the final counts exact.
        stop = threading.Event()
        errors = []

        def poll_stats():
            try:
                while not stop.is_set():
                    snapshot = service.stats()
                    assert set(snapshot["requests"]) <= set(
                        ReliabilityService.ENDPOINTS
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def drive(_):
            try:
                for _ in range(4):
                    service.estimate_batch(BatchRequest(queries=WORKLOAD))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        pollers = [threading.Thread(target=poll_stats) for _ in range(2)]
        drivers = [
            threading.Thread(target=drive, args=(slot,)) for slot in range(4)
        ]
        for thread in pollers + drivers:
            thread.start()
        for thread in drivers:
            thread.join()
        stop.set()
        for thread in pollers:
            thread.join()
        assert not errors
        assert service.stats()["requests"]["batch"] == 16

    def test_estimator_built_exactly_once_under_racing_requests(self):
        service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
        try:
            seen = []

            def worker():
                seen.append(service.estimator("prob_tree"))

            threads = [
                threading.Thread(target=worker) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(set(map(id, seen))) == 1
            assert service.stats()["estimators_loaded"] == ["prob_tree"]
        finally:
            service.close()


class TestAutoRouting:
    """`estimator="auto"`: the router resolves, the answer never changes."""

    def test_auto_estimate_bit_identical_to_routed_method(self, service):
        auto = service.estimate(
            EstimateRequest(source=0, target=5, samples=200, method="auto")
        )
        assert auto.routing is not None
        assert auto.routing["reason"] == "cold_start"
        assert auto.method == auto.routing["method"]
        direct = service.estimate(
            EstimateRequest(
                source=0, target=5, samples=200, method=auto.method
            )
        )
        assert direct.estimate == auto.estimate

    def test_named_method_carries_no_routing_annotation(self, service):
        response = service.estimate(
            EstimateRequest(source=0, target=5, samples=200, method="mc")
        )
        assert response.routing is None
        assert "routing" not in response.to_dict()

    def test_auto_batch_bit_identical_to_routed_method(self, service):
        auto = service.estimate_batch(
            BatchRequest(queries=WORKLOAD, method="auto")
        )
        assert auto.routing is not None
        direct = service.estimate_batch(
            BatchRequest(queries=WORKLOAD, method=auto.method)
        )
        assert [row.estimate for row in auto.results] == [
            row.estimate for row in direct.results
        ]
        assert auto.method == direct.method

    def test_auto_warms_into_measured_routing(self, service):
        for _ in range(6):
            service.estimate(
                EstimateRequest(source=0, target=5, samples=200, method="mc")
            )
        response = service.estimate(
            EstimateRequest(source=0, target=5, samples=200, method="auto")
        )
        assert response.routing["reason"] == "measured"
        assert response.method == "mc"

    def test_auto_trajectory_replays_by_name_on_a_fresh_service(self, service):
        """Cold start, measured and exploration decisions alike: every
        auto answer is what naming the routed method returns on a fresh
        identical service (no update lands, so indexes match)."""
        pairs = [(0, 5), (3, 9), (1, 8), (2, 7)]
        routed = [
            service.estimate(
                EstimateRequest(
                    source=source, target=target, samples=120, method="auto"
                )
            )
            for _ in range(8)
            for source, target in pairs
        ]
        reasons = [response.routing["reason"] for response in routed]
        assert reasons.count("measured") > 0
        # One warm decision in ten explores; cold-start ones never do.
        assert reasons.count("exploration") <= len(routed) // 10 + 1
        assert {response.method for response in routed} <= set(
            service.router.candidates
        )
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3
        ) as fresh:
            for response in routed:
                named = fresh.estimate(
                    EstimateRequest(
                        source=response.source,
                        target=response.target,
                        samples=response.samples,
                        method=response.method,
                    )
                )
                assert named.estimate == response.estimate, response.method
                assert named.routing is None

    def test_hop_bounded_auto_batch_routes_hop_capable(self, service):
        response = service.estimate_batch(
            BatchRequest(
                queries=(QuerySpec(0, 5, 100),),
                method="auto",
                max_hops=2,
            )
        )
        assert response.method in ("mc", "bfs_sharing")

    def test_update_demotes_dropped_index_until_reserved(self, service):
        # Build the bfs_sharing index, then mutate structurally: its
        # survival mode is the lazy drop, and auto must not route to it
        # until a request rebuilds the index.
        service.estimate(
            EstimateRequest(
                source=0, target=5, samples=100, method="bfs_sharing"
            )
        )
        update = service.update(UpdateRequest(set_edges=((0, 5, 0.9),)))
        assert update.estimators["bfs_sharing"] == "dropped"
        assert service.stats()["routing"]["dropped_indexes"] == [
            "bfs_sharing"
        ]
        routed = service.estimate(
            EstimateRequest(source=0, target=5, samples=100, method="auto")
        )
        assert routed.method != "bfs_sharing"
        # Serving the method directly rebuilds the index and lifts the
        # demotion.
        service.estimate(
            EstimateRequest(
                source=0, target=5, samples=100, method="bfs_sharing"
            )
        )
        assert service.stats()["routing"]["dropped_indexes"] == []

    def test_stats_reports_routing_section(self, service):
        service.estimate(
            EstimateRequest(source=0, target=5, samples=100, method="auto")
        )
        routing = service.stats()["routing"]
        assert routing["telemetry"]["observations"] == 1
        assert routing["router"]["decisions"]["cold_start"] == 1
        assert routing["dropped_indexes"] == []
