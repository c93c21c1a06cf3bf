"""The six-dataset suite of the paper (synthetic analogues, paper Table 2).

Every dataset of the study is reproduced as a scaled synthetic analogue:
the topology generator matches the real network's structural class and the
edge-probability model is exactly the paper's (§3.1.1-3.1.2).  Three scales
are provided: ``tiny`` (unit tests), ``small`` (benchmark default) and
``medium`` (slow, closer shapes).  Paper-reported node/edge counts and
probability summaries are kept alongside so the Table 2 benchmark can print
"paper vs ours" rows.

Substitution note (see README.md, "Provenance"): the real downloads are
unavailable offline and pure-Python sampling at millions of edges is
impractical; all comparative findings the paper draws depend on degree
structure, probability distribution and s-t distance, which these
analogues preserve.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.graph import UncertainGraph
from repro.datasets import edge_probability as probability_models
from repro.datasets import generators
from repro.util.rng import ensure_generator

Builder = Callable[[int, np.random.Generator], UncertainGraph]

SCALES: Tuple[str, ...] = ("tiny", "small", "medium")


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset of the suite, with its paper-reported reference values."""

    key: str
    title: str
    description: str
    paper_nodes: int
    paper_edges: int
    paper_probability_summary: str
    nodes_by_scale: Dict[str, int]
    builder: Builder
    #: Datasets sharing a seed family get identical RNG streams — used so
    #: DBLP 0.2 and DBLP 0.05 are the *same* topology under two probability
    #: models, as in the paper.  Defaults to the dataset key.
    seed_family: str = ""


@dataclass(frozen=True)
class Dataset:
    """A materialised dataset: the graph plus its provenance."""

    spec: DatasetSpec
    scale: str
    seed: int
    graph: UncertainGraph

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def title(self) -> str:
        return self.spec.title


# ----------------------------------------------------------------------
# Per-dataset builders
# ----------------------------------------------------------------------


def _bidirect(undirected: List[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Expand an undirected edge list into both directed orientations."""
    array = np.asarray(undirected, dtype=np.int64)
    sources = np.concatenate([array[:, 0], array[:, 1]])
    targets = np.concatenate([array[:, 1], array[:, 0]])
    return sources, targets


def _build_lastfm(node_count: int, rng: np.random.Generator) -> UncertainGraph:
    """Musical social network; P(u->v) = 1 / out_degree(u)."""
    undirected = generators.powerlaw_cluster(node_count, 2, 0.4, rng)
    sources, targets = _bidirect(undirected)
    probs = probability_models.inverse_out_degree(sources, node_count)
    return UncertainGraph.from_edge_arrays(node_count, sources, targets, probs)


def _build_nethept(node_count: int, rng: np.random.Generator) -> UncertainGraph:
    """HEP-theory co-authorship; P uniform from {0.1, 0.01, 0.001}."""
    undirected = generators.powerlaw_cluster(node_count, 2, 0.3, rng)
    sources, targets = _bidirect(undirected)
    probs = probability_models.uniform_choice(len(sources), rng=rng)
    return UncertainGraph.from_edge_arrays(node_count, sources, targets, probs)


def _build_as_topology(node_count: int, rng: np.random.Generator) -> UncertainGraph:
    """Autonomous-systems backbone; P = snapshot containment ratio.

    The ratio describes the *connection*, so both orientations of a link
    share one value, like the BGP sessions the paper derives it from.
    """
    undirected = generators.preferential_attachment(node_count, 2, rng)
    link_probs = probability_models.snapshot_ratio(len(undirected), rng=rng)
    sources, targets = _bidirect(undirected)
    probs = np.concatenate([link_probs, link_probs])
    return UncertainGraph.from_edge_arrays(node_count, sources, targets, probs)


def _make_dblp_builder(mu: float) -> Builder:
    """DBLP collaboration network; P = 1 - exp(-c/mu), c = #collaborations."""

    def build(node_count: int, rng: np.random.Generator) -> UncertainGraph:
        undirected = generators.powerlaw_cluster(node_count, 3, 0.6, rng)
        counts = generators.collaboration_counts(len(undirected), 2.5, rng)
        link_probs = probability_models.exponential_cdf(counts, mu)
        sources, targets = _bidirect(undirected)
        probs = np.concatenate([link_probs, link_probs])
        return UncertainGraph.from_edge_arrays(node_count, sources, targets, probs)

    return build


def _build_biomine(node_count: int, rng: np.random.Generator) -> UncertainGraph:
    """Integrated biological database; P = relevance x info x confidence."""
    directed = generators.heterogeneous_hub_graph(node_count, 6.4, rng=rng)
    array = np.asarray(directed, dtype=np.int64)
    sources, targets = array[:, 0], array[:, 1]
    degree = np.bincount(sources, minlength=node_count) + np.bincount(
        targets, minlength=node_count
    )
    endpoint_degrees = degree[sources] + degree[targets]
    probs = probability_models.biomine_composite(
        len(sources), endpoint_degrees, rng=rng
    )
    return UncertainGraph.from_edge_arrays(node_count, sources, targets, probs)


# ----------------------------------------------------------------------
# The suite registry
# ----------------------------------------------------------------------

DATASETS: Dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in (
        DatasetSpec(
            key="lastfm",
            title="LastFM",
            description="Musical social network, bi-directed communication edges",
            paper_nodes=6_899,
            paper_edges=23_696,
            paper_probability_summary="0.29 +/- 0.25, {0.13, 0.20, 0.33}",
            nodes_by_scale={"tiny": 120, "small": 1_200, "medium": 4_000},
            builder=_build_lastfm,
        ),
        DatasetSpec(
            key="nethept",
            title="NetHEPT",
            description="HEP-theory co-authorship, uniform {0.1, 0.01, 0.001}",
            paper_nodes=15_233,
            paper_edges=62_774,
            paper_probability_summary="0.04 +/- 0.04, {0.001, 0.01, 0.10}",
            nodes_by_scale={"tiny": 140, "small": 1_600, "medium": 5_000},
            builder=_build_nethept,
        ),
        DatasetSpec(
            key="as_topology",
            title="AS Topology",
            description="Autonomous-systems graph, snapshot-ratio probabilities",
            paper_nodes=45_535,
            paper_edges=172_294,
            paper_probability_summary="0.23 +/- 0.20, {0.08, 0.21, 0.31}",
            nodes_by_scale={"tiny": 150, "small": 2_000, "medium": 6_500},
            builder=_build_as_topology,
        ),
        DatasetSpec(
            key="dblp02",
            title="DBLP 0.2",
            description="Co-authorship, P = 1 - exp(-c/5)",
            paper_nodes=1_291_298,
            paper_edges=7_123_632,
            paper_probability_summary="0.33 +/- 0.18, {0.18, 0.33, 0.45}",
            nodes_by_scale={"tiny": 150, "small": 2_200, "medium": 7_000},
            builder=_make_dblp_builder(5.0),
            seed_family="dblp",
        ),
        DatasetSpec(
            key="dblp005",
            title="DBLP 0.05",
            description="Co-authorship, P = 1 - exp(-c/20)",
            paper_nodes=1_291_298,
            paper_edges=7_123_632,
            paper_probability_summary="0.11 +/- 0.09, {0.05, 0.10, 0.14}",
            nodes_by_scale={"tiny": 150, "small": 2_200, "medium": 7_000},
            builder=_make_dblp_builder(20.0),
            seed_family="dblp",
        ),
        DatasetSpec(
            key="biomine",
            title="BioMine",
            description="Integrated biological database, composite probabilities",
            paper_nodes=1_045_414,
            paper_edges=6_742_939,
            paper_probability_summary="0.27 +/- 0.21, {0.12, 0.22, 0.36}",
            nodes_by_scale={"tiny": 150, "small": 2_400, "medium": 7_500},
            builder=_build_biomine,
        ),
    )
}

#: Keys in the paper's presentation order (Table 2).
DATASET_KEYS: List[str] = [
    "lastfm",
    "nethept",
    "as_topology",
    "dblp02",
    "dblp005",
    "biomine",
]

_CACHE_LOCK = threading.Lock()
_CACHE: Dict[Tuple[str, str, int], Dataset] = {}  # guarded-by: _CACHE_LOCK


def load_dataset(key: str, scale: str = "small", seed: int = 0) -> Dataset:
    """Materialise (and memoise) one dataset of the suite.

    Deterministic in ``(key, scale, seed)``; repeated calls within a process
    return the cached instance so benchmarks share one graph.
    """
    if key not in DATASETS:
        raise KeyError(
            f"unknown dataset {key!r}; known: {', '.join(DATASET_KEYS)}"
        )
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
    cache_key = (key, scale, seed)
    # Build under the lock: two threads racing the same key would each
    # generate the graph and one instance would silently win, breaking
    # the "benchmarks share one graph" memoisation contract.  Builds are
    # deterministic, so holding the lock costs only the losing thread.
    with _CACHE_LOCK:
        if cache_key not in _CACHE:
            spec = DATASETS[key]
            node_count = spec.nodes_by_scale[scale]
            # zlib.crc32 is stable across processes (unlike hash()),
            # keeping dataset generation deterministic in (key, scale,
            # seed).
            family = spec.seed_family or key
            key_digest = zlib.crc32(family.encode("utf-8")) & 0xFFFF
            rng = ensure_generator(np.random.SeedSequence((seed, key_digest)))
            graph = spec.builder(node_count, rng)
            _CACHE[cache_key] = Dataset(
                spec=spec, scale=scale, seed=seed, graph=graph
            )
        return _CACHE[cache_key]


def dataset_table(scale: str = "small", seed: int = 0) -> List[Dict[str, str]]:
    """Rows of Table 2: per-dataset size and probability statistics."""
    rows = []
    for key in DATASET_KEYS:
        dataset = load_dataset(key, scale, seed)
        stats = dataset.graph.edge_statistics()
        rows.append(
            {
                "dataset": dataset.title,
                "nodes": str(dataset.graph.node_count),
                "edges": str(dataset.graph.edge_count),
                "edge_probabilities": str(stats),
                "paper_nodes": str(dataset.spec.paper_nodes),
                "paper_edges": str(dataset.spec.paper_edges),
                "paper_probabilities": dataset.spec.paper_probability_summary,
            }
        )
    return rows


__all__ = [
    "SCALES",
    "DATASETS",
    "DATASET_KEYS",
    "DatasetSpec",
    "Dataset",
    "load_dataset",
    "dataset_table",
]
