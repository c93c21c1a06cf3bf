"""Regression: the query log ranks bounded and unbounded keys together.

``top_queries`` used to sort raw ``(source, target, samples, max_hops,
seed)`` keys; with equal counts, one key carrying ``max_hops=None`` and
one carrying an int made the comparison raise ``TypeError`` — so
``stats()`` failed, ``GET /v1/stats`` answered 500, and the post-update
re-warm thread died.
"""

import json
import urllib.request

import pytest

from repro.api import BatchRequest, ReliabilityService, coerce_query_specs

#: Same pair and budget, once unbounded and once hop-bounded: equal counts.
TIED = {"queries": [[0, 5, 100], [0, 5, 100, 2]]}


@pytest.fixture
def service():
    with ReliabilityService.from_dataset("lastfm", "tiny", seed=3) as service:
        service.estimate_batch(
            BatchRequest(queries=coerce_query_specs(TIED["queries"]))
        )
        yield service


def test_stats_lists_the_unbounded_key_first(service):
    top = service.stats()["top_queries"]
    assert [entry["max_hops"] for entry in top] == [None, 2]
    assert {entry["count"] for entry in top} == {1}


def test_order_is_total_across_counts_and_bounds(service):
    service.estimate_batch(
        BatchRequest(queries=coerce_query_specs([[0, 5, 100, 3], [0, 5, 100, 3]]))
    )
    top = service.top_queries()
    assert [(entry["max_hops"], entry["count"]) for entry in top] == [
        (3, 2),
        (None, 1),
        (2, 1),
    ]


def test_rewarm_replays_both_keys(service):
    assert service.rewarm() == {"queries_rewarmed": 2, "warm_passes": 1}
    assert service.stats()["rewarm"] == {"runs": 1, "queries": 2}


def test_get_stats_answers_200_over_http(tiny_server):
    batch = urllib.request.Request(
        tiny_server.url + "/v1/batch", data=json.dumps(TIED).encode("utf-8")
    )
    with urllib.request.urlopen(batch, timeout=30) as response:
        assert response.status == 200
    with urllib.request.urlopen(tiny_server.url + "/v1/stats", timeout=30) as response:
        assert response.status == 200
        top = json.loads(response.read())["top_queries"]
    assert [entry["max_hops"] for entry in top] == [None, 2]
