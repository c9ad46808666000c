"""Workload generation for the join experiments."""

from repro.workload.distributions import (
    DISTRIBUTIONS,
    DistributionError,
    clustered_pointers,
    distribution_arg_names,
    partition_hot_pointers,
    permutation_pointers,
    sampler,
    uniform_pointers,
    validate_distribution_args,
    zipf_pointers,
)
from repro.workload.generator import (
    RColumns,
    Workload,
    WorkloadSpec,
    generate_workload,
)
from repro.workload.io import WorkloadIOError, load_workload, save_workload

__all__ = [
    "DISTRIBUTIONS",
    "DistributionError",
    "RColumns",
    "Workload",
    "WorkloadIOError",
    "WorkloadSpec",
    "clustered_pointers",
    "distribution_arg_names",
    "generate_workload",
    "load_workload",
    "save_workload",
    "partition_hot_pointers",
    "permutation_pointers",
    "sampler",
    "uniform_pointers",
    "validate_distribution_args",
    "zipf_pointers",
]
