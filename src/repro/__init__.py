"""repro: s-t reliability algorithms over uncertain graphs.

A from-scratch reproduction of Ke, Khan & Lim, *"An In-Depth Comparison of
s-t Reliability Algorithms over Uncertain Graphs"* (VLDB 2019 /
arXiv:1904.05300): the six estimators, the dataset suite, the convergence
framework, and a benchmark per table and figure of the paper's evaluation
— grown into a query-serving system behind one facade.

Quickstart (the facade)::

    from repro import EstimateRequest, ReliabilityService, UncertainGraph

    graph = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.25)])
    service = ReliabilityService(graph, seed=7)
    response = service.estimate(
        EstimateRequest(source=0, target=2, samples=10_000)
    )
    print(response.estimate)

The estimator registry remains available for direct, low-level use::

    from repro import create_estimator

    mc = create_estimator("mc", graph, seed=7)
    print(mc.estimate(0, 2, samples=10_000))
"""

from repro.api import (
    BatchRequest,
    BatchResponse,
    EstimateRequest,
    EstimateResponse,
    GraphLoadError,
    InvalidQueryError,
    QuerySpec,
    ReliabilityError,
    ReliabilityService,
    UnknownEstimatorError,
    WarmRequest,
)
from repro.core.graph import GraphBuilder, UncertainGraph
from repro.core.bounds import reliability_bounds
from repro.core.exact import reliability_exact
from repro.core.recommend import recommend_estimator
from repro.core.registry import (
    PAPER_ESTIMATORS,
    create_estimator,
    estimator_class,
    estimator_keys,
)

__version__ = "1.1.0"

__all__ = [
    "GraphBuilder",
    "UncertainGraph",
    "reliability_bounds",
    "reliability_exact",
    "recommend_estimator",
    "PAPER_ESTIMATORS",
    "create_estimator",
    "estimator_class",
    "estimator_keys",
    "ReliabilityService",
    "ReliabilityError",
    "UnknownEstimatorError",
    "InvalidQueryError",
    "GraphLoadError",
    "QuerySpec",
    "EstimateRequest",
    "EstimateResponse",
    "BatchRequest",
    "BatchResponse",
    "WarmRequest",
    "__version__",
]
