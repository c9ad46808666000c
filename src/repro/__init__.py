"""repro — Parallel Pointer-Based Join Algorithms in Memory-Mapped Environments.

A reproduction of Buhr, Goel, Nishimura & Ragde (ICDE 1996): the validated
analytical cost model, the three parallel pointer-based join algorithms
(nested loops, sort-merge, Grace) executing on a simulated memory-mapped
multiprocessor, a real ``mmap``-backed single-level store, and the harness
that regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import (
        WorkloadSpec, generate_workload, MemoryParameters,
        JoinEnvironment, make_algorithm, verify_pairs,
    )

    workload = generate_workload(WorkloadSpec.paper_validation(scale=0.05), disks=4)
    memory = MemoryParameters.from_fractions(workload.relation_parameters(), 0.05)
    result = make_algorithm("grace").run(JoinEnvironment(workload, memory))
    verify_pairs(workload, result.pairs)
    print(result.describe())

On the real backend (``repro.parallel.run_real_join``) ``result.pairs`` is a
columnar sequence of ``JoinedPair``; its ``.columns`` is the (n, 4) u64 array.
"""

from repro.harness import (
    all_figures,
    calibrated_machine_parameters,
    figure_1a,
    figure_1b,
    figure_5a,
    figure_5b,
    figure_5c,
    run_memory_sweep,
)
from repro.joins import (
    ALGORITHMS,
    JoinEnvironment,
    JoinRunResult,
    ParallelGraceJoin,
    ParallelNestedLoopsJoin,
    ParallelSortMergeJoin,
    make_algorithm,
    reference_join,
    verify_pairs,
)
from repro.model import (
    JoinCostReport,
    MachineParameters,
    MemoryParameters,
    RelationParameters,
    grace_cost,
    nested_loops_cost,
    sort_merge_cost,
)
from repro.sim import SimConfig, SimMachine
from repro.workload import Workload, WorkloadSpec, generate_workload

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "JoinCostReport",
    "JoinEnvironment",
    "JoinRunResult",
    "MachineParameters",
    "MemoryParameters",
    "ParallelGraceJoin",
    "ParallelNestedLoopsJoin",
    "ParallelSortMergeJoin",
    "RelationParameters",
    "SimConfig",
    "SimMachine",
    "Workload",
    "WorkloadSpec",
    "all_figures",
    "calibrated_machine_parameters",
    "figure_1a",
    "figure_1b",
    "figure_5a",
    "figure_5b",
    "figure_5c",
    "generate_workload",
    "grace_cost",
    "make_algorithm",
    "nested_loops_cost",
    "reference_join",
    "run_memory_sweep",
    "sort_merge_cost",
    "verify_pairs",
]
