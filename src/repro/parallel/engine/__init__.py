"""Pass-pipeline execution engine for the real-mmap backend.

Algorithms are declarative :class:`PassPlan` chains of typed stages,
one entry each in the :data:`PLANS` table; one driver
(:func:`repro.parallel.run_real_join`) runs them all.  The driver lives
outside this package on purpose — the governor imports plans/stages for
footprint prediction, and pulling the driver (multiprocessing, storage)
along with them would re-create the import cycles the split avoids.
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
)
from repro.parallel.engine.plans import PLANS, algorithms, plan_for
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
    run_task,
)

__all__ = [
    "BATCH_RECORDS",
    "CHECKSUM_MOD",
    "ConservationRule",
    "MergeStage",
    "PLANS",
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
    "resolve_kernel",
    "run_name",
    "run_task",
]
