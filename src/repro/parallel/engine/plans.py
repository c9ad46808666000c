"""The built-in pass plans: each real join algorithm, declaratively.

One :func:`~repro.parallel.engine.stages.register_plan` call per
algorithm is the entire cost of adding it to the backend: the executor,
the governor's footprint model and degradation ladder, the fault plan
coordinates, the CLI choices and the stats schema all derive from the
plan.  Hybrid hash is the proof: it is the grace plan with the partition
stage swapped for the resident-joining kernel — no new orchestration, no
new probe code.

Stages carry no knobs: every kernel reads what it needs from the
:class:`~repro.governor.predict.JoinPlan` inside its task spec, so a
degraded re-plan changes worker behaviour with no stage rewiring.
"""

from __future__ import annotations

from repro.parallel.engine.stages import (
    ConservationRule,
    MergeStage,
    PartitionStage,
    PassPlan,
    ProbeStage,
    ScanJoinStage,
    SortRunStage,
    register_plan,
)

NESTED_LOOPS = register_plan(PassPlan(
    algorithm="nested-loops",
    stages=(
        ScanJoinStage(
            label="pass0",
            kernel="nested_loops_pass0",
            emits="pairs",
            spills=True,
        ),
        ScanJoinStage(
            label="pass1",
            kernel="nested_loops_pass1",
            emits="pairs",
        ),
    ),
    conservation=(
        ConservationRule(
            "pass0+pass1 pairs",
            (("pass0", "pairs"), ("pass1", "pairs")),
        ),
    ),
))

SORT_MERGE = register_plan(PassPlan(
    algorithm="sort-merge",
    stages=(
        PartitionStage(
            label="partition",
            kernel="sort_merge_partition",
            emits="moved",
        ),
        SortRunStage(
            label="sort-runs",
            kernel="sort_merge_runs",
            emits="moved",
        ),
        MergeStage(
            label="merge-join",
            kernel="sort_merge_merge_join",
            emits="pairs",
        ),
    ),
    conservation=(
        ConservationRule(
            "partitioned records", (("partition", "moved"),), "input"
        ),
        ConservationRule(
            "sorted records",
            (("sort-runs", "moved"),), ("partition", "moved"),
        ),
        ConservationRule(
            "joined records",
            (("merge-join", "pairs"),), ("sort-runs", "moved"),
        ),
    ),
))

GRACE = register_plan(PassPlan(
    algorithm="grace",
    stages=(
        PartitionStage(
            label="partition",
            kernel="grace_partition",
            emits="moved",
            buffered=True,
        ),
        ProbeStage(
            label="probe",
            kernel="grace_probe",
            emits="pairs",
        ),
    ),
    conservation=(
        ConservationRule(
            "partitioned records", (("partition", "moved"),), "input"
        ),
        ConservationRule(
            "probed records", (("probe", "pairs"),), ("partition", "moved")
        ),
    ),
))

HYBRID_HASH = register_plan(PassPlan(
    algorithm="hybrid-hash",
    stages=(
        PartitionStage(
            label="partition",
            kernel="hybrid_hash_partition",
            emits="both",
            buffered=True,
            resident_join=True,
        ),
        ProbeStage(
            label="probe",
            kernel="grace_probe",
            emits="pairs",
        ),
    ),
    conservation=(
        # Every scanned record either joined at home or spilled.
        ConservationRule(
            "partitioned records", (("partition", "total"),), "input"
        ),
        ConservationRule(
            "probed records", (("probe", "pairs"),), ("partition", "moved")
        ),
    ),
))
