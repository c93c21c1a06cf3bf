"""Engine tuning is service configuration, never a request field.

``chunk_size`` and ``workers`` configure the service a transport opens
(``ReliabilityService(chunk_size=, workers=)``, ``repro batch|warm|serve
--chunk-size/--workers``); the sweep kernel is no served option at all.
A `/v1` body carrying any of them is an unknown key, and a CLI run with
the flags is the facade configured the same way.  So are the two served
options that selected nothing: `/v1/batch` ``sequential`` (the per-query
loop the engine exists to beat) and `/v1/topk` ``method`` (both of its
values named one sweep).
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import BatchRequest, QuerySpec, ReliabilityService
from repro.cli import main

QUERIES = [[0, 5, 300], [3, 9, 200]]

#: A valid body per route; each case adds one removed key to it.
BODIES = {
    "/v1/batch": {"queries": QUERIES},
    "/v1/warm": {"queries": QUERIES},
    "/v1/shard/run": {
        "queries": QUERIES, "start": 0, "stop": 64, "seed": 1,
        "fingerprint": "ab",
    },
    "/v1/topk": {"source": 0, "k": 3, "samples": 50},
}


@pytest.mark.parametrize(
    "path,key,value",
    [
        ("/v1/batch", "kernels", "python"),
        ("/v1/batch", "workers", 2),
        ("/v1/batch", "chunk_size", 64),
        ("/v1/warm", "workers", 2),
        ("/v1/warm", "chunk_size", 64),
        ("/v1/shard/run", "kernels", "simd"),
        ("/v1/batch", "sequential", True),
        ("/v1/topk", "method", "mc"),
    ],
)
def test_removed_key_is_a_structured_400_naming_it(tiny_server, path, key, value):
    body = dict(BODIES[path], **{key: value})
    request = urllib.request.Request(
        tiny_server.url + path, data=json.dumps(body).encode("utf-8")
    )
    with pytest.raises(urllib.error.HTTPError) as raised:
        urllib.request.urlopen(request, timeout=30)
    assert raised.value.code == 400
    error = json.loads(raised.value.read())["error"]
    assert error["type"] == "InvalidQueryError"
    assert f"does not accept key(s) '{key}'" in error["message"]


def _without_seconds(document):
    if isinstance(document, dict):
        return {
            key: _without_seconds(value)
            for key, value in document.items()
            if key != "seconds"
        }
    if isinstance(document, list):
        return [_without_seconds(item) for item in document]
    return document


def test_cli_flags_configure_the_service(capsys, tmp_path):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(QUERIES), encoding="utf-8")
    arguments = ["batch", "--queries", str(path), "--dataset", "lastfm",
                 "--scale", "tiny", "--seed", "3"]
    assert main(arguments + ["--workers", "2", "--chunk-size", "64"]) == 0
    configured = json.loads(capsys.readouterr().out)
    assert main(arguments) == 0
    default = json.loads(capsys.readouterr().out)
    with ReliabilityService.from_dataset(
        "lastfm", "tiny", seed=3, workers=2, chunk_size=64
    ) as service:
        facade = service.estimate_batch(
            BatchRequest(
                queries=tuple(QuerySpec(*entry) for entry in QUERIES)
            )
        ).to_dict()
    assert _without_seconds(configured) == _without_seconds(facade)
    assert configured["engine"]["chunk_size"] == 64
    assert configured["engine"]["workers"] == 2
    assert [row["estimate"] for row in configured["results"]] == [
        row["estimate"] for row in default["results"]
    ]


def test_cli_warm_flags_configure_the_service(capsys, tmp_path):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(QUERIES), encoding="utf-8")
    cache_dir = str(tmp_path / "cache")
    dataset = ["--queries", str(path), "--dataset", "lastfm", "--scale",
               "tiny", "--seed", "3", "--cache-dir", cache_dir]
    assert main(["warm", *dataset, "--workers", "2", "--chunk-size", "64"]) == 0
    warmed = json.loads(capsys.readouterr().out)
    assert warmed["newly_written"] == len(QUERIES)
    assert main(["batch", *dataset]) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["engine"]["worlds_sampled"] == 0
    assert main(["batch", *dataset[:-2]]) == 0  # no sidecar: swept afresh
    swept = json.loads(capsys.readouterr().out)
    assert [row["estimate"] for row in replayed["results"]] == [
        row["estimate"] for row in swept["results"]
    ]


def test_the_per_query_loop_serves_on_a_multi_worker_service():
    """The worker count is the service's; no batch path refuses it."""
    request_ = BatchRequest(queries=(QuerySpec(0, 5, 100),), method="rhh")
    answers = []
    for workers in (1, 2):
        with ReliabilityService.from_dataset(
            "lastfm", "tiny", seed=3, workers=workers
        ) as service:
            answers.append(service.estimate_batch(request_).estimates)
    assert answers[0] == answers[1]
