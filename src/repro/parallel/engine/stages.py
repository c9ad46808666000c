"""Typed stages and declarative pass plans.

A join algorithm on the real-mmap backend is a :class:`PassPlan`: a short
DAG (here, a linear chain — the paper's algorithms are all pass-barriered)
of typed stages, each naming the worker *kernel* that executes one
partition's share of that stage.  The stage types mirror the paper's
physical operators:

* :class:`ScanJoinStage` — scan R_i, join local references on the fly
  (nested loops' two passes);
* :class:`PartitionStage` — redistribute R by pointer target (sort-merge's
  range partition, Grace/hybrid's hash partition; hybrid additionally
  joins its resident buckets during the scan, so the stage can emit both
  moved records *and* pairs);
* :class:`SortRunStage` — cut a partition's inbound into sorted runs;
* :class:`MergeStage` — multi-way merge runs and join against S;
* :class:`ProbeStage` — per-bucket hash-table probe against S.

The driver (:mod:`repro.parallel.runner`) never looks at the
algorithm name: it walks the stages, hands each worker one
:class:`~repro.parallel.engine.task.TaskSpec` naming the stage's kernel,
and enforces the plan's :class:`ConservationRule` set.  The governor's footprint model
(:mod:`repro.governor.predict`) walks the same stages, so prediction and
the degradation ladder extend to a new algorithm automatically when its
plan joins the table in :mod:`repro.parallel.engine.plans`.

This module and the plan table are import-light on purpose — dataclasses
only, no storage or multiprocessing — so the governor can import plans
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple, Union

#: How a stage's per-partition worker return value is interpreted.
#: ``"moved"`` — an int count of redistributed records; ``"pairs"`` — a
#: PairResult; ``"both"`` — a (moved, PairResult) StageOutput.
EMIT_KINDS = ("moved", "pairs", "both")


class PassPlanError(ValueError):
    """Raised for malformed pass plans or stage wiring."""


@dataclass(frozen=True)
class Stage:
    """One pass of a join plan, executed once per partition.

    ``kernel`` names a worker function registered with
    :func:`repro.parallel.engine.task.register_kernel`; it receives one
    :class:`~repro.parallel.engine.task.TaskSpec` and reads the knobs it
    needs from the spec's plan by name.
    """

    kind: ClassVar[str] = "stage"

    label: str
    kernel: str
    emits: str
    #: The kernel retains hash-bucket groups in memory across its scan
    #: (Grace/hybrid partitioning), so the governor's ``spill_threshold``
    #: knob applies.
    buffered: bool = False
    #: The kernel joins the plan's resident buckets during its scan
    #: (hybrid hash): the stage emits pairs as well as moved records and
    #: the ``resident_buckets`` knob applies.
    resident_join: bool = False

    def __post_init__(self) -> None:
        if self.emits not in EMIT_KINDS:
            raise PassPlanError(
                f"stage {self.label!r} emits {self.emits!r}; "
                f"choices: {EMIT_KINDS}"
            )


@dataclass(frozen=True)
class ScanJoinStage(Stage):
    """Scan a base-R partition, joining pointer-local references on the fly.

    ``spills`` marks the pass that also writes RP spill files for remote
    references (nested loops pass 0); the footprint model charges the
    spill reservation only there.
    """

    kind: ClassVar[str] = "scan-join"

    spills: bool = False


@dataclass(frozen=True)
class PartitionStage(Stage):
    """Redistribute R records to their pointer-target partitions.

    Unbuffered (sort-merge) it is a pure range partition; ``buffered``
    (Grace/hybrid) it also scatters each target's records into the
    order-preserving hash buckets of the paper's section 7.1.
    """

    kind: ClassVar[str] = "partition"


@dataclass(frozen=True)
class SortRunStage(Stage):
    """Cut one partition's inbound records into sorted runs on disk."""

    kind: ClassVar[str] = "sort-run"


@dataclass(frozen=True)
class MergeStage(Stage):
    """Multi-way merge sorted runs and join against sequential S."""

    kind: ClassVar[str] = "merge"


@dataclass(frozen=True)
class ProbeStage(Stage):
    """Per-bucket hash-table probe of spilled R against S."""

    kind: ClassVar[str] = "probe"


@dataclass(frozen=True)
class ConservationRule:
    """Records in must equal records out across one or more stages.

    ``produced`` sums the named fields of the named stages' outcomes
    (field ``"moved"``, ``"pairs"`` or ``"total"`` = moved + pairs);
    ``expected`` is either the literal ``"input"`` (the workload's total R
    objects) or another ``(label, field)`` reference.  The driver checks
    a rule as soon as every stage it references has completed, so a
    corrupted redistribution fails before the next pass wastes work on it.
    """

    what: str
    produced: Tuple[Tuple[str, str], ...]
    expected: Union[str, Tuple[str, str]] = "input"


@dataclass(frozen=True)
class PassPlan:
    """One algorithm, declaratively: its stages and conservation laws."""

    algorithm: str
    stages: Tuple[Stage, ...]
    conservation: Tuple[ConservationRule, ...] = ()

    def __post_init__(self) -> None:
        if not self.stages:
            raise PassPlanError(f"{self.algorithm}: a plan needs stages")
        labels = [stage.label for stage in self.stages]
        if len(set(labels)) != len(labels):
            raise PassPlanError(
                f"{self.algorithm}: duplicate stage labels {labels}"
            )
        known = set(labels)
        for rule in self.conservation:
            refs = list(rule.produced)
            if isinstance(rule.expected, tuple):
                refs.append(rule.expected)
            for label, fld in refs:
                if label not in known:
                    raise PassPlanError(
                        f"{self.algorithm}: conservation rule {rule.what!r} "
                        f"references unknown stage {label!r}"
                    )
                if fld not in ("moved", "pairs", "total"):
                    raise PassPlanError(
                        f"{self.algorithm}: conservation rule {rule.what!r} "
                        f"references unknown field {fld!r}"
                    )

    def stage(self, label: str) -> Stage:
        for stage in self.stages:
            if stage.label == label:
                return stage
        raise PassPlanError(f"{self.algorithm}: no stage {label!r}")

    def has_kind(self, kind: str) -> bool:
        return any(stage.kind == kind for stage in self.stages)

    def tasks(self) -> Tuple[str, ...]:
        """Kernel names in pass order (the fault plan's coordinates)."""
        return tuple(stage.kernel for stage in self.stages)

