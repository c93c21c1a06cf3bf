"""Tests for the API wire types and the structured error hierarchy."""

import pytest

from repro.api import (
    BatchRequest,
    EstimateRequest,
    GraphLoadError,
    InvalidQueryError,
    QuerySpec,
    RecommendRequest,
    ReliabilityError,
    UnknownEstimatorError,
    WarmRequest,
    coerce_query_specs,
)


class TestErrorHierarchy:
    def test_every_api_error_is_a_reliability_error(self):
        for cls in (UnknownEstimatorError, InvalidQueryError, GraphLoadError):
            assert issubclass(cls, ReliabilityError)

    def test_invalid_query_is_a_value_error(self):
        # Pre-facade callers caught ValueError for malformed workloads;
        # the structured type must keep satisfying those handlers.
        assert issubclass(InvalidQueryError, ValueError)
        assert issubclass(UnknownEstimatorError, ValueError)

    def test_to_dict_carries_type_and_message(self):
        error = InvalidQueryError("entry 3: bad")
        assert error.to_dict() == {
            "type": "InvalidQueryError",
            "message": "entry 3: bad",
        }

    def test_http_status_defaults_to_400(self):
        assert InvalidQueryError("x").http_status == 400


class TestQuerySpecCoercion:
    def test_list_forms(self):
        assert QuerySpec.coerce([0, 5], 0) == QuerySpec(0, 5, None, None)
        assert QuerySpec.coerce([0, 5, 200], 0) == QuerySpec(0, 5, 200, None)
        assert QuerySpec.coerce([0, 5, 200, 2], 0) == QuerySpec(0, 5, 200, 2)

    def test_trailing_null_means_unbounded(self):
        assert QuerySpec.coerce([0, 5, 200, None], 0).max_hops is None

    def test_object_form(self):
        spec = QuerySpec.coerce(
            {"source": 1, "target": 2, "samples": 50, "max_hops": 3}, 4
        )
        assert spec == QuerySpec(1, 2, 50, 3)

    def test_object_missing_target_rejected_with_position(self):
        with pytest.raises(InvalidQueryError, match="entry 7.*'source' and 'target'"):
            QuerySpec.coerce({"source": 1}, 7)

    def test_object_unknown_key_rejected(self):
        with pytest.raises(InvalidQueryError, match="'sorce'"):
            QuerySpec.coerce({"sorce": 1, "target": 2}, 0)

    def test_scalar_rejected_with_position(self):
        with pytest.raises(InvalidQueryError, match="entry 2"):
            QuerySpec.coerce(5, 2)

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidQueryError, match="non-numeric"):
            QuerySpec.coerce([None, 5, 100], 0)

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidQueryError, match="entry 0"):
            QuerySpec.coerce([0, 5, 100, 2, 9], 0)

    def test_coerce_specs_wraps_single_object(self):
        specs = coerce_query_specs({"source": 0, "target": 5})
        assert specs == (QuerySpec(0, 5, None, None),)

    def test_coerce_specs_rejects_non_list(self):
        with pytest.raises(InvalidQueryError, match="must be a list"):
            coerce_query_specs("0 5 100")


class TestRequestParsing:
    def test_estimate_defaults(self):
        request = EstimateRequest.from_dict({"source": 0, "target": 5})
        assert request == EstimateRequest(0, 5, 1_000, "mc", None)

    def test_estimate_missing_endpoint_rejected(self):
        with pytest.raises(InvalidQueryError, match="'source' and 'target'"):
            EstimateRequest.from_dict({"source": 0})

    def test_estimate_unknown_key_rejected(self):
        with pytest.raises(InvalidQueryError, match="'smaples'"):
            EstimateRequest.from_dict(
                {"source": 0, "target": 5, "smaples": 10}
            )

    def test_estimate_non_integer_rejected(self):
        with pytest.raises(InvalidQueryError, match="samples must be an integer"):
            EstimateRequest.from_dict(
                {"source": 0, "target": 5, "samples": "many"}
            )

    def test_estimate_non_object_rejected(self):
        with pytest.raises(InvalidQueryError, match="JSON object"):
            EstimateRequest.from_dict([0, 5])

    def test_batch_round_trip(self):
        payload = {
            "queries": [[0, 5, 200], {"source": 3, "target": 9}],
            "method": "bfs_sharing",
            "samples": 150,
            "seed": 7,
            "max_hops": 2,
        }
        request = BatchRequest.from_dict(payload)
        assert request.method == "bfs_sharing"
        assert request.samples == 150
        assert request.seed == 7
        assert request.max_hops == 2
        assert request.queries == (
            QuerySpec(0, 5, 200, None),
            QuerySpec(3, 9, None, None),
        )
        # to_dict -> from_dict is the identity on requests.
        assert BatchRequest.from_dict(request.to_dict()) == request

    def test_batch_requires_queries(self):
        with pytest.raises(InvalidQueryError, match="'queries'"):
            BatchRequest.from_dict({"method": "mc"})

    def test_batch_rejects_boolean_integers(self):
        # JSON true must not silently coerce to samples=1.
        with pytest.raises(InvalidQueryError, match="samples"):
            BatchRequest.from_dict({"queries": [[0, 1]], "samples": True})

    def test_warm_requires_queries(self):
        with pytest.raises(InvalidQueryError, match="'queries'"):
            WarmRequest.from_dict({})

    def test_recommend_defaults_and_type_check(self):
        assert RecommendRequest.from_dict({}) == RecommendRequest()
        with pytest.raises(InvalidQueryError, match="memory_limited"):
            RecommendRequest.from_dict({"memory_limited": "yes"})
