"""Core: uncertain graphs, possible worlds, estimators, and recommendations."""

from repro.core.graph import GraphBuilder, UncertainGraph
from repro.core.possible_world import (
    ReachabilitySampler,
    reachable_in_world,
    sample_world,
    world_probability,
)
from repro.core.exact import (
    reliability_by_enumeration,
    reliability_by_factoring,
    reliability_exact,
)
from repro.core.registry import (
    PAPER_ESTIMATORS,
    create_estimator,
    estimator_class,
    estimator_keys,
    register_estimator,
)
from repro.core.recommend import recommend_estimator

__all__ = [
    "GraphBuilder",
    "UncertainGraph",
    "ReachabilitySampler",
    "reachable_in_world",
    "sample_world",
    "world_probability",
    "reliability_by_enumeration",
    "reliability_by_factoring",
    "reliability_exact",
    "PAPER_ESTIMATORS",
    "create_estimator",
    "estimator_class",
    "estimator_keys",
    "register_estimator",
    "recommend_estimator",
]
