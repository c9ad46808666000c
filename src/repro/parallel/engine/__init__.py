"""Pass-pipeline execution engine for the real-mmap backend.

Algorithms are declarative :class:`PassPlan` DAGs of typed stages; one
generic executor (:mod:`repro.parallel.engine.executor`) runs them all.
This package deliberately does *not* import the executor here — the
governor imports plans/stages for footprint prediction, and pulling the
executor (multiprocessing, storage) along with them would re-create the
import cycles the split exists to avoid.
"""

from repro.parallel.engine.stages import (
    ConservationRule,
    MergeStage,
    PartitionStage,
    PassPlan,
    PassPlanError,
    ProbeStage,
    ScanJoinStage,
    SortRunStage,
    Stage,
    algorithms,
    plan_for,
    register_plan,
)
from repro.parallel.engine import plans  # noqa: F401  (registers built-ins)
from repro.parallel.engine.task import (
    BATCH_RECORDS,
    CHECKSUM_MOD,
    PairResult,
    PairSink,
    StageOutput,
    TaskSpec,
    bucket_spill_name,
    bucket_spill_paths,
    pairs_name,
    register_kernel,
    resolve_kernel,
    run_name,
    run_paths,
    run_task,
)

__all__ = [
    "BATCH_RECORDS",
    "CHECKSUM_MOD",
    "ConservationRule",
    "MergeStage",
    "PairResult",
    "PairSink",
    "PartitionStage",
    "PassPlan",
    "PassPlanError",
    "ProbeStage",
    "ScanJoinStage",
    "SortRunStage",
    "Stage",
    "StageOutput",
    "TaskSpec",
    "algorithms",
    "bucket_spill_name",
    "bucket_spill_paths",
    "pairs_name",
    "plan_for",
    "register_kernel",
    "register_plan",
    "resolve_kernel",
    "run_name",
    "run_paths",
    "run_task",
]
