"""The plan table: each real join algorithm, declaratively.

One :class:`~repro.parallel.engine.stages.PassPlan` entry in
:data:`PLANS` is the entire cost of adding an algorithm to the backend:
the driver, the governor's footprint model and degradation ladder, the
CLI choices and the stats schema all derive from the plan (the fault
plan's static ``ALGORITHM_TASKS`` is pinned to it by a test).  Hybrid
hash is the proof: it is the grace plan with the partition stage swapped
for the resident-joining kernel — no new orchestration, no new probe
code.

Stages carry no knobs: every kernel reads what it needs from the
:class:`~repro.governor.predict.JoinPlan` inside its task spec, so a
degraded re-plan changes worker behaviour with no stage rewiring.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.parallel.engine.stages import (
    ConservationRule,
    MergeStage,
    PartitionStage,
    PassPlan,
    ProbeStage,
    ScanJoinStage,
    SortRunStage,
)

#: Every real algorithm's plan, keyed by name, in presentation order.
PLANS: Dict[str, PassPlan] = {plan.algorithm: plan for plan in (
    PassPlan(
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
    ),
    PassPlan(
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
    ),
    PassPlan(
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
    ),
    PassPlan(
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
    ),
)}


def plan_for(algorithm: str) -> Optional[PassPlan]:
    """The plan for ``algorithm``, or None."""
    return PLANS.get(algorithm)


def algorithms() -> Tuple[str, ...]:
    """Every real algorithm, in table order."""
    return tuple(PLANS)
