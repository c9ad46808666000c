"""Typed stages, declarative pass plans, and the algorithm registry.

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

The executor (:mod:`repro.parallel.engine.executor`) never looks at the
algorithm name: it walks the stages, hands each worker one
:class:`~repro.parallel.engine.task.TaskSpec` naming the stage's kernel,
and enforces the plan's :class:`ConservationRule` set.  The governor's footprint model
(:mod:`repro.governor.predict`) walks the same stages, so prediction and
the degradation ladder extend to a new algorithm automatically when its
plan is registered.

This module is import-light on purpose — dataclasses and the registry
only, no storage or multiprocessing — so the governor can import plans
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple, Union

#: How a stage's per-partition worker return value is interpreted.
#: ``"moved"`` — an int count of redistributed records; ``"pairs"`` — a
#: PairResult; ``"both"`` — a (moved, PairResult) StageOutput.
EMIT_KINDS = ("moved", "pairs", "both")

#: Axes the executor's rebalancer can split a stage's work along.
#: ``"records"`` — positional record ranges over the stage's inbound
#: files; ``"keys"`` — sorted-pointer key ranges (equal-depth over a
#: sampled key CDF); ``"buckets"`` — contiguous hash-bucket ranges
#: (equal-depth over the exact per-bucket histogram).
REBALANCE_AXES = ("records", "keys", "buckets")


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
    #: The axis the executor may split this stage's per-partition work
    #: along when the inbound sizes are skewed (None — not splittable;
    #: the stage's kernel must understand the attached
    #: :class:`~repro.parallel.engine.task.Shard` for its axis).
    rebalance: Optional[str] = None
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
        if self.rebalance is not None and self.rebalance not in REBALANCE_AXES:
            raise PassPlanError(
                f"stage {self.label!r} rebalances along "
                f"{self.rebalance!r}; choices: {REBALANCE_AXES}"
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
    """Cut one partition's inbound records into sorted runs on disk.

    Its kernel returns a :class:`~repro.parallel.engine.task.RunCut`:
    the ``moved`` count plus each run's key samples, which the executor
    keeps for the merge stage's key-range planning.
    """

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
    objects) or another ``(label, field)`` reference.  The executor checks
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


# ------------------------------------------------------------- the registry

_PLANS: Dict[str, PassPlan] = {}


def register_plan(plan: PassPlan) -> PassPlan:
    """Register one algorithm's plan; the single point of extension."""
    if plan.algorithm in _PLANS:
        raise PassPlanError(f"algorithm {plan.algorithm!r} already registered")
    _PLANS[plan.algorithm] = plan
    return plan


def plan_for(algorithm: str) -> Optional[PassPlan]:
    """The registered plan for ``algorithm``, or None."""
    _ensure_builtin_plans()
    return _PLANS.get(algorithm)


def algorithms() -> Tuple[str, ...]:
    """Every registered algorithm, in registration order."""
    _ensure_builtin_plans()
    return tuple(_PLANS)


def _ensure_builtin_plans() -> None:
    # Self-healing registry: importing this module alone (e.g. from the
    # governor) must still see the built-in plans.
    if not _PLANS:
        from repro.parallel.engine import plans  # noqa: F401  (registers)
