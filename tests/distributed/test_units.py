"""Unit tests for the shard-tier building blocks.

Partitioning is where exactness lives (chunk-aligned cuts keep every
shard's sweep bookkeeping identical to the single-process run), the
tier's patience settings are module constants echoed by ``/v1/stats``,
and the client helpers decide which failures are retryable — so all
three are pinned without any network in sight.
"""

import pytest

from repro.api import FingerprintMismatchError, InvalidQueryError
from repro.distributed import (
    ShardClient,
    ShardCoordinator,
    client,
    coordinator,
    normalize_shard_url,
    parse_shard_list,
    partition_ranges,
    rejection_from_body,
)


class TestPartitionRanges:
    def test_covers_the_range_contiguously(self):
        ranges = partition_ranges(1000, 64, 3)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 1000
        for (_, stop), (next_start, _) in zip(ranges, ranges[1:]):
            assert stop == next_start

    def test_cuts_fall_on_chunk_boundaries(self):
        for total, chunk, parts in [
            (1000, 64, 3),
            (999, 7, 5),
            (512, 256, 4),
            (100, 1, 9),
        ]:
            ranges = partition_ranges(total, chunk, parts)
            for start, stop in ranges[:-1]:
                assert start % chunk == 0
                assert stop % chunk == 0
            assert ranges[-1][1] == total

    def test_never_more_parts_than_chunks(self):
        # 100 worlds at chunk 64 is two chunks: at most two ranges no
        # matter how many shards are available.
        assert len(partition_ranges(100, 64, 8)) == 2
        assert len(partition_ranges(64, 64, 8)) == 1

    def test_balanced_within_one_chunk(self):
        sizes = [stop - start for start, stop in partition_ranges(1024, 64, 3)]
        assert max(sizes) - min(sizes) <= 64

    def test_degenerate_inputs(self):
        assert partition_ranges(0, 64, 3) == []
        assert partition_ranges(-5, 64, 3) == []
        assert partition_ranges(10, 64, 0) == [(0, 10)]

    @pytest.mark.parametrize("total", [1, 63, 64, 65, 1000, 4096])
    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_disjoint_cover_property(self, total, parts):
        ranges = partition_ranges(total, 64, parts)
        covered = 0
        for start, stop in ranges:
            assert start == covered
            assert stop > start
            covered = stop
        assert covered == total


class TestShardTierSettings:
    def test_defaults(self):
        assert client.DEFAULT_TIMEOUT == 30.0
        assert coordinator.DEFAULT_RETRIES == 2
        assert coordinator.DEFAULT_BACKOFF == 0.1
        assert coordinator.DEFAULT_COOLDOWN == 5.0

    def test_stats_echo_every_setting(self):
        document = ShardCoordinator(["127.0.0.1:1"]).statistics()["config"]
        assert document == {
            "timeout": 30.0,
            "retries": 2,
            "backoff": 0.1,
            "cooldown": 5.0,
            "local_fallback": True,
        }

    def test_stats_echo_the_effective_constants(self, monkeypatch):
        monkeypatch.setattr(client, "DEFAULT_TIMEOUT", 2.5)
        monkeypatch.setattr(coordinator, "DEFAULT_RETRIES", 4)
        monkeypatch.setattr(coordinator, "DEFAULT_BACKOFF", 0.01)
        monkeypatch.setattr(coordinator, "DEFAULT_COOLDOWN", 1.5)
        document = ShardCoordinator(["127.0.0.1:1"]).statistics()["config"]
        assert document == {
            "timeout": 2.5,
            "retries": 4,
            "backoff": 0.01,
            "cooldown": 1.5,
            "local_fallback": True,
        }

    def test_the_client_reads_the_timeout_per_call(self, monkeypatch):
        seen = []

        def fake_urlopen(request, timeout):
            seen.append(timeout)
            raise OSError("refused")

        monkeypatch.setattr(client.urllib.request, "urlopen", fake_urlopen)
        shard = ShardClient("127.0.0.1:1")
        monkeypatch.setattr(client, "DEFAULT_TIMEOUT", 0.5)
        with pytest.raises(client.ShardDispatchError):
            shard.health()
        assert seen == [0.5]
        assert repr(shard) == "ShardClient('http://127.0.0.1:1')"


class TestShardAddresses:
    def test_bare_host_port_gains_scheme(self):
        assert normalize_shard_url("127.0.0.1:8311") == "http://127.0.0.1:8311"

    def test_explicit_scheme_and_trailing_slash(self):
        assert normalize_shard_url("http://worker-a:80/") == "http://worker-a:80"

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            normalize_shard_url("   ")

    def test_parse_shard_list(self):
        assert parse_shard_list("a:1, b:2 ,http://c:3/") == (
            "http://a:1",
            "http://b:2",
            "http://c:3",
        )

    def test_parse_empty_list_rejected(self):
        with pytest.raises(ValueError):
            parse_shard_list(" , ,")


def encoded(document):
    import json

    return json.dumps(document).encode("utf-8")


class TestRejectionMapping:
    def test_known_types_reconstruct_with_status(self):
        body = encoded(
            {
                "error": {
                    "type": "FingerprintMismatchError",
                    "message": "stale shard",
                }
            }
        )
        rejection = rejection_from_body(body)
        assert isinstance(rejection, FingerprintMismatchError)
        assert rejection.http_status == 409
        assert "stale shard" in str(rejection)

    def test_invalid_query_maps_to_400(self):
        rejection = rejection_from_body(
            encoded(
                {"error": {"type": "InvalidQueryError", "message": "bad"}}
            )
        )
        assert isinstance(rejection, InvalidQueryError)
        assert rejection.http_status == 400

    @pytest.mark.parametrize("body", [
        b"",
        b"not json at all",
        b"\xff\xfe garbage",
        encoded("oops"),
        encoded({}),
        encoded({"error": "string"}),
        encoded({"error": {"message": "typeless"}}),
        encoded({"error": {"type": "KeyboardInterrupt", "message": "n"}}),
        encoded({"error": {"type": 7, "message": "numeric type"}}),
        # No tier error answers 503: local fallback is always on.
        encoded({"error": {"type": "ShardUnavailableError", "message": "x"}}),
    ])
    def test_everything_else_is_not_a_rejection(self, body):
        assert rejection_from_body(body) is None
