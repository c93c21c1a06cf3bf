"""Self-tests for the wire-contract rules (W301-W303).

Each check runs against a miniature types/service/server/docs set
written to disk — the one-table form: ``types.py`` holds the wire
classes and ``ENDPOINT_TABLE``, everything else is checked against it —
seeded with exactly one drift at a time.
"""

import textwrap

import pytest

from repro.analysis.base import SourceFile
from repro.analysis.wire import (
    check_docs_table,
    check_endpoint_routes,
    check_request_types,
    read_endpoint_table,
)

TYPES = """
    class Wire:
        @classmethod
        def from_dict(cls, payload):
            return cls(**payload)


    class EstimateRequest(Wire):
        source: int
        target: int


    class EstimateResponse(Wire):
        estimate: float


    class ShardRunRequest(Wire):
        start: int


    ENDPOINT_TABLE = (
        Endpoint("estimate", ("POST",), "estimate", EstimateRequest, EstimateResponse),
        Endpoint("shard_run", ("POST",), "shard_run", ShardRunRequest),
        Endpoint("study", (), "study"),
        Endpoint("health", ("GET",), "health"),
        Endpoint("stats", ("GET",), "stats"),
    )
"""

TYPES_NOT_WIRE = TYPES + """

    class WarmRequest:
        pass
"""

TYPES_OWN_FROM_DICT = TYPES + """

    class WarmRequest(Wire):
        @classmethod
        def from_dict(cls, payload):
            return cls(**payload)
"""

SERVICE = """
    class ReliabilityService:
        def estimate(self, request): ...
        def shard_run(self, request): ...
        def study(self, config): ...
        def health(self): ...
        def stats(self): ...
"""

SERVER = '''
    """Endpoints: POST /v1/estimate, POST /v1/shard/run, ..."""

    ROUTES = {row.path: row for row in ENDPOINT_TABLE if row.verbs}


    def call(row, service, payload):
        if row.path == "/v1/shard/run":
            pause()
        return getattr(service, row.method)(payload)
'''

DOCS = """
    | endpoint | returns |
    |----------|---------|
    | `POST /v1/estimate` | `EstimateResponse` |
    | `POST /v1/shard/run` | `ShardRunResponse` |
    | `GET /v1/health` | liveness |
    | `GET /v1/stats` | counters |
"""

TOPK_ROW = '    Endpoint("topk", ("POST",), "topk"),\n'


@pytest.fixture
def write(tmp_path):
    def put(name, content):
        path = tmp_path / name
        path.write_text(textwrap.dedent(content), encoding="utf-8")
        return path

    return put


def with_row(types, row=TOPK_ROW):
    """``types`` with one more table row, after the ``estimate`` row."""
    marker = "EstimateResponse),\n"
    assert marker in types
    return types.replace(marker, marker + "    " + row)


class TestEndpointTable:
    def test_rows_are_read_statically(self, write):
        rows = read_endpoint_table(SourceFile.parse(write("types.py", TYPES)))
        assert [(row.name, row.verbs, row.method, row.path) for row in rows] == [
            ("estimate", ("POST",), "estimate", "/v1/estimate"),
            ("shard_run", ("POST",), "shard_run", "/v1/shard/run"),
            ("study", (), "study", "/v1/study"),
            ("health", ("GET",), "health", "/v1/health"),
            ("stats", ("GET",), "stats", "/v1/stats"),
        ]

    def test_missing_or_computed_table_is_a_finding(self, write):
        service = write("service.py", SERVICE)
        server = write("server.py", SERVER)
        for broken in (
            "X = 1\n",
            'ENDPOINT_TABLE = (Endpoint(NAME, ("POST",), "estimate"),)\n',
        ):
            findings = check_endpoint_routes(
                write("types.py", broken), service, server
            )
            assert [finding.rule for finding in findings] == ["W302"]
            assert "no `ENDPOINT_TABLE" in findings[0].message


class TestOneStrictParserW301:
    def test_silent_when_requests_use_the_generic_parser(self, write):
        assert check_request_types(write("types.py", TYPES)) == []

    def test_fires_on_request_type_outside_the_generic_parser(self, write):
        findings = check_request_types(write("types.py", TYPES_NOT_WIRE))
        assert [finding.rule for finding in findings] == ["W301"]
        assert "`WarmRequest` has no `from_dict`" in findings[0].message

    def test_fires_on_request_type_overriding_the_generic_parser(self, write):
        findings = check_request_types(write("types.py", TYPES_OWN_FROM_DICT))
        assert [finding.rule for finding in findings] == ["W301"]
        assert "`WarmRequest.from_dict` overrides" in findings[0].message

    def test_response_types_are_not_required_to_decode(self, write):
        types = TYPES + "\n\n    class WarmResponse:\n        pass\n"
        assert check_request_types(write("types.py", types)) == []


class TestEndpointRoutesW302:
    def test_silent_when_table_service_and_server_agree(self, write):
        types = write("types.py", TYPES)
        service = write("service.py", SERVICE)
        server = write("server.py", SERVER)
        assert check_endpoint_routes(types, service, server) == []

    def test_fires_on_table_entry_with_no_route_to_a_method(self, write):
        types = write("types.py", with_row(TYPES))
        service = write("service.py", SERVICE)
        server = write("server.py", SERVER)
        findings = check_endpoint_routes(types, service, server)
        assert [finding.rule for finding in findings] == ["W302"]
        assert "endpoint `topk` has no route" in findings[0].message
        assert "ReliabilityService.topk" in findings[0].message
        assert findings[0].path == str(types)

    def test_local_rows_need_a_method_but_no_route(self, write):
        # `study` has verbs=(): counted by the service, never routed.
        types = write("types.py", TYPES)
        service = write(
            "service.py", SERVICE.replace("def study(self, config): ...", "")
        )
        server = write("server.py", SERVER)
        findings = check_endpoint_routes(types, service, server)
        assert [finding.rule for finding in findings] == ["W302"]
        assert "endpoint `study`" in findings[0].message

    def test_fires_on_route_with_no_table_entry(self, write):
        types = write("types.py", TYPES)
        service = write("service.py", SERVICE)
        server = write(
            "server.py",
            SERVER + '\n\n    EXTRA = {"/v1/extra": handle_extra}\n',
        )
        findings = check_endpoint_routes(types, service, server)
        assert [finding.rule for finding in findings] == ["W302"]
        assert "/v1/extra" in findings[0].message
        assert findings[0].path == str(server)

    def test_fires_on_written_out_route_of_a_local_row(self, write):
        types = write("types.py", TYPES)
        service = write("service.py", SERVICE)
        server = write("server.py", SERVER + '\n\n    STUDY = "/v1/study"\n')
        findings = check_endpoint_routes(types, service, server)
        assert [finding.rule for finding in findings] == ["W302"]
        assert "/v1/study" in findings[0].message


class TestDocsTableW303:
    def test_silent_when_docs_match_the_table(self, write):
        types = write("types.py", TYPES)
        docs = write("api.md", DOCS)
        assert check_docs_table(types, docs) == []

    def test_fires_on_undocumented_route(self, write):
        types = write("types.py", TYPES)
        docs = write(
            "api.md",
            DOCS.replace("| `POST /v1/shard/run` | `ShardRunResponse` |\n", ""),
        )
        findings = check_docs_table(types, docs)
        assert [finding.rule for finding in findings] == ["W303"]
        assert "/v1/shard/run" in findings[0].message

    def test_fires_on_docs_row_with_no_table_entry(self, write):
        types = write("types.py", TYPES)
        docs = write(
            "api.md",
            DOCS + "| `POST /v1/ghost` | `GhostResponse` |\n",
        )
        findings = check_docs_table(types, docs)
        assert [finding.rule for finding in findings] == ["W303"]
        assert "/v1/ghost" in findings[0].message
        assert findings[0].path == str(docs)

    def test_local_rows_are_not_documented_as_routes(self, write):
        types = write("types.py", TYPES)
        docs = write("api.md", DOCS + "| `POST /v1/study` | `StudyResult` |\n")
        findings = check_docs_table(types, docs)
        assert [finding.rule for finding in findings] == ["W303"]
        assert "/v1/study" in findings[0].message
