"""Dataset suite, probability models, and query workloads."""

from repro.datasets.suite import (
    DATASET_KEYS,
    DATASETS,
    SCALES,
    Dataset,
    DatasetSpec,
    dataset_table,
    load_dataset,
)
from repro.datasets.queries import (
    QueryWorkload,
    WorkloadError,
    generate_workload,
)

__all__ = [
    "DATASET_KEYS",
    "DATASETS",
    "SCALES",
    "Dataset",
    "DatasetSpec",
    "dataset_table",
    "load_dataset",
    "QueryWorkload",
    "WorkloadError",
    "generate_workload",
]
