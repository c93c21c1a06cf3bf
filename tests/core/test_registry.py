"""Tests for the estimator registry and recommendation API."""

import pytest

from repro.core.estimators.base import Estimator
from repro.core.recommend import (
    INDEX_STAR_RATINGS,
    STAR_RATINGS,
    overall_recommendation,
    recommend_estimator,
)
from repro.core.registry import (
    PAPER_ESTIMATORS,
    VARIANCE_SAMPLERS,
    create_estimator,
    display_name,
    estimator_class,
    estimator_keys,
)


class TestRegistry:
    def test_paper_estimators_has_six(self):
        assert len(PAPER_ESTIMATORS) == 6

    def test_all_keys_resolvable(self):
        for key in estimator_keys():
            assert issubclass(estimator_class(key), Estimator)

    def test_uncorrected_lp_registered_but_not_default(self):
        assert "lp" in estimator_keys()
        assert "lp" not in PAPER_ESTIMATORS

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="unknown estimator"):
            estimator_class("bogus")

    def test_create_with_options(self, diamond_graph):
        estimator = create_estimator("rhh", diamond_graph, threshold=7)
        assert estimator.threshold == 7

    @pytest.mark.parametrize("key", estimator_keys())
    def test_created_estimator_has_its_key(self, key, diamond_graph):
        estimator = create_estimator(key, diamond_graph, seed=0)
        assert type(estimator) is estimator_class(key)
        assert estimator.key == key

    def test_unknown_key_error_lists_known_keys(self):
        with pytest.raises(KeyError, match="known keys: .*bfs_sharing"):
            create_estimator("bogus", None)

    def test_display_name_of_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="unknown estimator"):
            display_name("bogus")

    def test_variance_samplers_are_registered_outside_the_paper_six(self):
        for key in VARIANCE_SAMPLERS:
            assert key in estimator_keys()
            assert key not in PAPER_ESTIMATORS

    def test_display_names_match_paper(self):
        expected = {"mc": "MC", "bfs_sharing": "BFSSharing", "prob_tree": "ProbTree",
                    "lp_plus": "LP+", "rhh": "RHH", "rss": "RSS"}
        for key, name in expected.items():
            assert display_name(key) == name



class TestRecommendation:
    def test_star_ratings_cover_all_six(self):
        assert set(STAR_RATINGS) == set(PAPER_ESTIMATORS)

    def test_index_ratings_cover_indexed_methods(self):
        assert set(INDEX_STAR_RATINGS) == {"bfs_sharing", "prob_tree"}

    def test_overall_recommendation_is_probtree(self):
        assert overall_recommendation() == "prob_tree"

    def test_memory_limited_fast_branch(self):
        rec = recommend_estimator(memory_limited=True, want_fastest=True)
        assert rec.estimators[0] == "prob_tree"
        assert "lp_plus" in rec.estimators

    def test_memory_limited_slow_branch(self):
        rec = recommend_estimator(memory_limited=True, want_fastest=False)
        assert rec.estimators == ("mc",)

    def test_large_memory_low_variance(self):
        rec = recommend_estimator(
            memory_limited=False, want_lowest_variance=True
        )
        assert set(rec.estimators) == {"rss", "rhh"}

    def test_large_memory_default(self):
        rec = recommend_estimator(memory_limited=False)
        assert rec.estimators == ("bfs_sharing",)

    def test_path_is_human_readable(self):
        rec = recommend_estimator(memory_limited=True)
        assert any("Memory" in step for step in rec.path)
        assert "=>" in str(rec)
