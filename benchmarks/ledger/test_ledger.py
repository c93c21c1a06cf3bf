"""Fast self-test of the ledger harness (tiny scale; collected by tier-1).

Checks the instrument, not the system: the traffic generator is
deterministic and matches its pinned digests, the harness emits exactly
the metric names ``BENCHMARK.json`` declares, span files parse and their
self times add up, and a corrupted reply is counted as a failure.
"""

import json
import re
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.ledger import check, report, spans, traffic  # noqa: E402
from benchmarks.ledger.loadgen import Exchange  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_generator_is_deterministic_and_prefix_stable():
    for workload in traffic.WORKLOADS:
        first = traffic.stream(workload, 7, 80)
        again = traffic.stream(workload, 7, 80)
        assert [r.body for r in first] == [r.body for r in again]
        assert [r.body for r in traffic.stream(workload, 7, 40)] == [
            r.body for r in first[:40]
        ]
        other = traffic.stream(workload, 8, 80)
        assert [r.body for r in other] != [r.body for r in first]


def test_seed0_stream_matches_the_pinned_digests():
    for workload in traffic.WORKLOADS:
        assert traffic.digest(workload, 0) == traffic.SEED0_DIGESTS[workload]
    # shard_cold is the cold_batch stream, request for request.
    assert traffic.SEED0_DIGESTS["shard_cold"] == traffic.SEED0_DIGESTS["cold_batch"]


def test_mixed_stream_schedules_updates_and_every_method():
    requests = traffic.stream("mixed_update", 0, 400)
    updates = [r.index for r in requests if r.is_update]
    assert updates == list(range(49, 400, traffic.UPDATE_EVERY))
    methods = {r.payload.get("method") for r in requests if r.kind == "estimate"}
    assert methods == set(traffic.MIXED_ESTIMATE_METHODS)


def test_contract_names_are_wellformed_and_cover_the_workloads():
    contract = report.contract()
    assert [w["name"] for w in contract["workloads"]] == list(traffic.WORKLOADS)
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names + list(traffic.WORKLOADS))
    assert "setup_s" in report.declared("end_to_end")
    assert set(contract["paths"]) == {"benchmarks/ledger"}


def test_summary_reports_only_tails_with_ten_samples_beyond():
    assert report.summarize(range(100)).tail_percent is None
    assert report.summarize(range(101)).tail_percent == 90.0
    assert report.summarize(range(200)).tail_percent == 95.0
    assert report.summarize(range(1000)).tail_percent == 99.0


def test_self_time_is_duration_minus_child_cover():
    recorder = spans.Recorder()
    with recorder.span("root", request=3) as root:
        with recorder.span("a"):
            with recorder.span("a.inner"):
                pass
        with recorder.span("b"):
            pass
    own = recorder.self_times()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["a"].parent == root.id and by_name["a.inner"].request == 3
    covered = by_name["a"].duration + by_name["b"].duration
    assert own[root.id] == pytest.approx(root.duration - covered)
    # Overlapping children (fan-out threads) are covered once, not twice.
    overlapping = [
        spans.Span(0, "p", 0.0, 10.0, None, None),
        spans.Span(1, "c1", 1.0, 6.0, 0, None),
        spans.Span(2, "c2", 4.0, 8.0, 0, None),
    ]
    assert spans.self_times(overlapping)[0] == pytest.approx(3.0)


def test_wrapping_records_calls_and_restores_the_original():
    class Layer:
        def work(self, value):
            return value + 1

    original = Layer.work
    with spans.Recorder() as recorder:
        recorder.wrap(Layer, "work", "layer.work", note=float)
        assert Layer().work(1) == 2
    assert Layer.work is original
    (span,) = recorder.spans
    assert (span.name, span.note, span.parent) == ("layer.work", 2.0, None)


def _exchange(request, document, status=200):
    return Exchange(
        request=request, status=status, body=json.dumps(document).encode(),
        started=0.0, seconds=0.001, version=0,
    )


def test_a_corrupted_reply_is_counted_as_a_failure():
    request = traffic.stream("cold_batch", 0, 1)[0]
    replica = check.Replica("cold_batch", Path("."))
    try:
        good = replica.answer(request)
        assert check.check_exchanges([_exchange(request, good)], replica) == []
        wrong_value = json.loads(json.dumps(good))
        wrong_value["results"][0]["estimate"] += 1 / traffic.COLD_SAMPLES
        wrong_row = json.loads(json.dumps(good))
        wrong_row["results"][0]["target"] += 1
        for corrupted in (wrong_value, wrong_row):
            failures = check.check_exchanges(
                [_exchange(request, corrupted)], replica
            )
            assert len(failures) == 1
        assert len(
            check.check_exchanges([_exchange(request, good, status=500)], replica)
        ) == 1
    finally:
        replica.close()


def test_tiny_run_emits_the_declared_metrics_and_a_parseable_trace():
    from benchmarks.ledger.harness import OUT_DIR, run_untraced
    from benchmarks.ledger.layers import run_traced

    untraced = run_untraced("cold_batch", seed=5, seconds=0.5)
    assert untraced.failures == [] and untraced.failed == 0
    line = json.loads(untraced.final_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(report.declared("end_to_end"))
    assert all(entry["value"] > 0 for entry in line["metrics"].values())

    traced = run_traced("cold_batch", seed=5, seconds=1.0)
    assert traced.failures == []
    line = json.loads(traced.final_line())
    assert set(line["metrics"]) == set(report.declared("per_layer"))
    assert 0.8 <= traced.metrics["trace.coverage"] <= 1.25

    document = json.loads((OUT_DIR / "trace-cold_batch.json").read_text())
    ids = {span["id"] for span in document["spans"]}
    children = {}
    for span in document["spans"]:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
        children.setdefault(span["parent"], []).append(span)
    for span in document["spans"]:
        cover = sum(c["end"] - c["start"] for c in children.get(span["id"], ()))
        # One thread here, so children never overlap: cover is their sum.
        assert span["self"] == pytest.approx(
            span["end"] - span["start"] - cover, abs=1e-9
        )
    names = {span["name"] for span in document["spans"]}
    assert "engine.batch.evaluate_chunk" in names
