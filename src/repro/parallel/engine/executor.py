"""The generic pass-plan executor for the real-mmap backend.

One function, :func:`execute_plan`, runs *any* registered
:class:`~repro.parallel.engine.stages.PassPlan` and owns everything the
old per-algorithm runner duplicated per pass:

* store lifecycle — orphan sweep, workload materialization, final
  orphan sweep/destroy;
* task fan-out — one :class:`~repro.parallel.engine.task.TaskSpec` per
  partition per stage carrying the whole of the task's run state (plan,
  budgets, metrics flag, the attempt's fault),
  dispatched to a shared :class:`multiprocessing.Pool` (or inline),
  futures drained with an optional timeout;
* recovery — a retry budget with exponential backoff, inline fallback
  when the pool is unrecoverable, and dirty-pool termination;
* governance — classified :class:`ResourceExhausted` failures end the
  round (drained, never retried) and descend one rung of the plan's
  degradation ladder before the round re-executes from clean temps;
* observability — per-stage spans, driver counters, the worker registry
  snapshots each task returns, disk high-water sampling;
* invariants — the plan's :class:`ConservationRule` set, each rule
  checked the moment every stage it references has completed.

Dispatch is recovery-aware.  Each stage submits one future per partition
(``apply_async``) and collects it with an optional ``task_timeout``; a
partition whose worker dies, raises, or fails to report in time is
retried — with exponential backoff — up to a configurable budget.
Retries are safe because every kernel's outputs are published atomically
(tmp-write / rename in the storage layer) and re-created with
``overwrite=True``, so a half-finished dead attempt leaves nothing a
retry can observe.  When the pool itself is unrecoverable (hung
workers), the still-failing partitions are run inline in the parent as a
last resort, and a pool that may still harbor abandoned tasks is
terminated rather than joined.

Resource exhaustion is governed, not retried: a classified
:class:`~repro.governor.errors.ResourceExhausted` out of a worker is
deterministic under the same plan, so the dispatcher lets it surface
immediately; under ``on_pressure="degrade"`` the executor descends one
rung (:meth:`~repro.governor.predict.JoinPlan.degraded`), resets the
round (temps cleared; stages are idempotent), and re-executes.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.records import JoinedPairs
from repro.governor.budget import store_usage_bytes
from repro.governor.errors import ResourceExhausted
from repro.governor import predict
from repro.governor.predict import FootprintEstimate, JoinPlan
from repro.governor.watchdog import (
    MemoryMeter,
    activate_meter,
    deactivate_meter,
)
from repro.obs.registry import MetricsRegistry, activate, active, deactivate
from repro.obs.spans import span
from repro.parallel.engine.checkpoint import (
    CheckpointWriter,
    discard_manifest,
    load_manifest,
    validate_manifest,
    workload_signature,
)
from repro.parallel.engine.rebalance import (
    RunKeys,
    gather_run_keys,
    plan_stage_rebalance,
)
from repro.parallel.engine.stages import PassPlan, Stage
from repro.parallel.engine.task import (
    CHECKSUM_MOD,
    PairResult,
    StageOutput,
    TaskSpec,
    run_paths,
    run_task,
)
from repro.parallel.faults import FaultPlan, InjectedHang, RetryPolicy
from repro.storage.relation import read_pair_block
from repro.storage.store import Store
from repro.workload.generator import Workload, WorkloadSpec

#: Backoff between retry rounds never sleeps longer than this.
_BACKOFF_CAP_S = 2.0


class RealJoinError(RuntimeError):
    """Raised when the real backend cannot run a join."""


@dataclass
class ExecutionOutcome:
    """Everything one :func:`execute_plan` run produced and endured."""

    plan: JoinPlan
    pair_count: int = 0
    checksum: int = 0
    pairs: Optional[JoinedPairs] = None
    pass_wall_ms: Dict[str, float] = field(default_factory=dict)
    pass_counts: Dict[str, int] = field(default_factory=dict)
    pass_checksums: Dict[str, int] = field(default_factory=dict)
    pass_kinds: Dict[str, str] = field(default_factory=dict)
    worker_metrics: Dict[str, Dict[object, dict]] = field(default_factory=dict)
    driver_metrics: Optional[dict] = None
    recovery: Dict[str, object] = field(default_factory=dict)
    #: Per-stage rebalance decisions (axis, splits, moved records,
    #: pre/post max-partition ratio) for the run's *final* round.
    rebalance: Dict[str, dict] = field(default_factory=dict)
    runtime_degradations: int = 0
    #: One ``totals.governor.rungs`` record per runtime degradation this
    #: driver took, and the footprint predicted for the plan the last of
    #: them left (``None`` when the admitted plan ran to the end).
    rungs: List[dict] = field(default_factory=list)
    predicted: Optional[FootprintEstimate] = None
    resource_errors: Dict[str, int] = field(default_factory=dict)
    disk_peak_bytes: int = 0
    #: Resume accounting (stats ``totals.resume``): whether a checkpoint
    #: manifest was replayed, how many completed passes it skipped, and
    #: how old it was; ``reason`` explains a declined resume.
    resume: Dict[str, object] = field(default_factory=dict)
    #: Integrity accounting (stats ``totals.integrity``): segments fully
    #: scrubbed (resume validation) and scrub failures encountered.
    integrity: Dict[str, int] = field(default_factory=dict)
    #: The published PAIRS segments (count, checksum, path per worker).
    #: Paths are only live while the store is (``keep_store=True``) — the
    #: join-service daemon streams them to clients straight from the
    #: mapped segments instead of materializing ``pairs``.
    pair_files: List[PairResult] = field(default_factory=list)


def plan_stage_units(
    store: Store,
    spec: WorkloadSpec,
    stage: Stage,
    plan: JoinPlan,
    outcome: "ExecutionOutcome",
    *,
    worker_mem_budget: Optional[int] = None,
    disk_budget: Optional[int] = None,
    metrics: bool = False,
    run_keys: Optional[List[RunKeys]] = None,
) -> List[TaskSpec]:
    """One :class:`TaskSpec` per task of ``stage`` — the only place built.

    The default is one unit per partition.  For a rebalance-capable
    stage under a plan whose ``rebalance`` mode allows it, the inbound
    sizes are measured (header/directory reads of the previous barrier's
    published artifacts, or — for the merge — ``run_keys``, what the
    sort-run tasks returned) and oversized partitions split into shard
    units along the stage's axis; the decision lands in
    ``outcome.rebalance[stage.label]``.
    """
    disks = store.disks
    decision = plan_stage_rebalance(
        store, stage, disks, plan.rebalance, plan.buckets, run_keys=run_keys
    )
    units: List[TaskSpec] = []
    for partition in range(disks):
        unit = TaskSpec(
            store_root=str(store.root),
            disks=disks,
            partition=partition,
            s_objects=spec.s_objects,
            r_bytes=spec.r_bytes,
            kernel=stage.kernel,
            plan=plan,
            worker_mem_budget=worker_mem_budget,
            disk_budget=disk_budget,
            metrics=metrics,
        )
        shards = decision.shards[partition] if decision is not None else None
        if not shards:
            units.append(unit)
            continue
        if stage.kind == "sort-run":
            # Sharded run cutters must not sweep stale runs themselves —
            # a late-starting shard would delete a sibling's freshly
            # published run.  The driver clears the partition's stale
            # runs once, before any shard is dispatched.
            for stale in run_paths(store, partition):
                stale.unlink(missing_ok=True)
        units.extend(replace(unit, shard=shard) for shard in shards)
    if decision is not None:
        outcome.rebalance[stage.label] = decision.report()
    return units


def execute_plan(
    pass_plan: PassPlan,
    workload: Workload,
    store_root: str,
    plan: JoinPlan,
    *,
    use_processes: bool = True,
    pool: Optional[multiprocessing.pool.Pool] = None,
    collect_metrics: bool = True,
    collect_pairs: bool = True,
    keep_store: bool = False,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    on_pressure: str = "degrade",
    max_degradations: int = 8,
    governed: bool = False,
    worker_mem_budget: Optional[int] = None,
    disk_budget: Optional[int] = None,
    materialize: bool = True,
    resume: bool = False,
) -> ExecutionOutcome:
    """Run every stage of ``pass_plan`` across all partitions.

    The caller (the runner) owns admission: ``plan`` arrives already
    fitted to its budget.  This function owns everything from "touch the
    store" to "the store is swept" — including descending the ladder
    further when a runtime :class:`ResourceExhausted` proves the
    admission estimate optimistic.

    ``materialize=False`` promises the store already holds this exact
    workload's R/S partitions (a *warm* store kept by a previous
    ``keep_store=True`` run) and skips rewriting them — the join-service
    daemon's per-request saving.  Stale temps from the previous run are
    cleared so glob-driven consumers (run files, spill chunks) never see
    another plan's artifacts.
    """
    policy = policy or RetryPolicy()
    algorithm = pass_plan.algorithm
    disks = workload.disks
    # clean_orphans: this is the driver, the one place where no sibling
    # writer can be mid-publish, so stale *.seg.tmp from a previous dead
    # run are safe to sweep (live tmps are flock-protected regardless).
    store = Store(store_root, disks, clean_orphans=True)

    # ---------------------------------------------------------- checkpoint
    # Resolve the resume request against the store's manifest before
    # anything is (re)materialized: a valid manifest proves the store
    # warm and hands back the completed stages; anything less falls
    # back to a fresh run — resume is an optimization, never a risk.
    signature = workload_signature(workload)
    resume_state = None
    resume_problem: Optional[str] = None
    scrub_failures = 0
    if resume:
        manifest = load_manifest(store_root)
        if manifest is None:
            resume_problem = "no checkpoint manifest in the store"
        else:
            resume_state, resume_problem, scrub_failures = validate_manifest(
                manifest, store, algorithm, signature,
                [stage.label for stage in pass_plan.stages],
            )
    if resume_state is None:
        # Fresh run (or declined resume): a stale manifest must not
        # describe the new run's artifacts.
        discard_manifest(store_root)
    else:
        # The recorded stages ran under the manifest's (possibly
        # degraded) plan; resuming under the caller's knobs instead
        # would break bit-identity with the uninterrupted run.
        plan = resume_state.plan
    outcome = ExecutionOutcome(plan=plan)
    outcome.integrity = {
        "segments_scrubbed": (
            resume_state.segments_scrubbed if resume_state is not None else 0
        ),
        "scrub_failures": scrub_failures,
    }
    outcome.resume = {
        "requested": resume,
        "resumed": resume_state is not None,
        "passes_skipped": (
            len(resume_state.records) if resume_state is not None else 0
        ),
        "manifest_age_s": (
            resume_state.manifest_age_s if resume_state is not None else None
        ),
        "reason": resume_problem,
    }
    if resume_state is not None:
        outcome.runtime_degradations = resume_state.runtime_degradations
    checkpoint = CheckpointWriter(
        store_root, algorithm, signature,
        replayed=resume_state.records if resume_state is not None else None,
    )

    recovery: Dict[str, object] = {
        "retries": 0, "timeouts": 0, "inline_fallbacks": 0,
        "pool_dirty": False,
    }
    outcome.recovery = recovery
    driver_registry: Optional[MetricsRegistry] = None
    driver_meter: Optional[MemoryMeter] = None
    owns_pool = False
    pair_results: List[PairResult] = []
    # Per-round stage outcomes feeding the conservation rules:
    # label -> {"moved": int, "pairs": int, "total": int}.
    stage_totals: Dict[str, Dict[str, int]] = {}
    checked_rules: set = set()
    # Stage labels replayed from the checkpoint manifest this round.
    replayed: set = set()
    # What the sort-run tasks returned for the merge's key-range planning.
    run_keys: List[RunKeys] = []
    # Dispatches so far per (kernel, partition) — the fault plan's attempt
    # coordinate.  Deliberately outlives reset_round: a one-shot injected
    # fault must not re-fire in the degraded round.
    attempts: Dict[tuple, int] = {}

    def arm(unit: TaskSpec) -> TaskSpec:
        """Stamp one dispatch with its attempt number and matching fault.

        When the rebalancer split a partition, only shard 0 counts and
        carries the fault: coordinates are ``(task, partition, attempt)``
        and must fire exactly once per attempt however the work was
        sliced.
        """
        if unit.shard is not None and unit.shard.index:
            return unit
        key = (unit.kernel, unit.partition)
        attempt = attempts.get(key, 0)
        attempts[key] = attempt + 1
        fault = (
            fault_plan.spec_for(unit.kernel, unit.partition, attempt)
            if fault_plan is not None
            else None
        )
        return replace(unit, attempt=attempt, fault=fault)

    def sample_disk() -> None:
        if governed:
            outcome.disk_peak_bytes = max(
                outcome.disk_peak_bytes, store_usage_bytes(store_root)
            )

    def conserved(ref) -> int:
        label, fld = ref
        return stage_totals[label][fld]

    def check_conservation() -> None:
        """Fire every rule whose referenced stages have all completed."""
        for rule in pass_plan.conservation:
            if rule.what in checked_rules:
                continue
            refs = list(rule.produced)
            if isinstance(rule.expected, tuple):
                refs.append(rule.expected)
            if any(label not in stage_totals for label, _ in refs):
                continue
            produced = sum(conserved(ref) for ref in rule.produced)
            expected = (
                workload.r_objects_total
                if rule.expected == "input"
                else conserved(rule.expected)
            )
            checked_rules.add(rule.what)
            if produced != expected:
                raise RealJoinError(
                    f"{algorithm}: {rule.what} not conserved "
                    f"({produced} produced, {expected} expected)"
                )

    def run_stage(stage: Stage, current: JoinPlan) -> None:
        # The last barrier is followed only by the manifest's deletion,
        # so it is not checkpointed: no snapshot, no artifact reads.
        checkpointed = stage is not pass_plan.stages[-1]
        if checkpointed:
            checkpoint.begin_stage(store)
        units = plan_stage_units(
            store, workload.spec, stage, current, outcome,
            worker_mem_budget=worker_mem_budget,
            disk_budget=disk_budget,
            metrics=collect_metrics,
            run_keys=run_keys,
        )
        with span("stage", algo=algorithm, label=stage.label, kind=stage.kind):
            returned = _dispatch_stage(
                pool, stage, units, arm, outcome.pass_wall_ms,
                policy, algorithm, recovery,
            )
        results = [result for result, _snapshot in returned]
        if stage.kind == "sort-run":
            run_keys[:] = gather_run_keys(
                [unit.partition for unit in units], results, disks
            )
            results = [cut.moved for cut in results]
        if collect_metrics:
            outcome.worker_metrics[stage.label] = {
                unit.slot: snapshot
                for unit, (_result, snapshot) in zip(units, returned)
            }
        sample_disk()
        moved = 0
        stage_pairs: List[PairResult] = []
        if stage.emits == "moved":
            moved = sum(results)
        elif stage.emits == "pairs":
            stage_pairs = list(results)
        else:  # both
            outputs = [StageOutput(*result) for result in results]
            moved = sum(output.moved for output in outputs)
            stage_pairs = [output.pairs for output in outputs]
        pairs_count = sum(result.count for result in stage_pairs)
        stage_totals[stage.label] = {
            "moved": moved,
            "pairs": pairs_count,
            "total": moved + pairs_count,
        }
        outcome.pass_kinds[stage.label] = stage.kind
        if stage.emits == "moved":
            outcome.pass_counts[stage.label] = moved
        elif stage.emits == "pairs":
            outcome.pass_counts[stage.label] = pairs_count
        else:
            outcome.pass_counts[stage.label] = moved + pairs_count
        if stage_pairs:
            outcome.pass_checksums[stage.label] = (
                sum(result.checksum for result in stage_pairs) % CHECKSUM_MOD
            )
            pair_results.extend(stage_pairs)
        check_conservation()
        if not checkpointed:
            return
        # The stage barrier held and its invariants passed: checkpoint
        # the published artifacts so a crash from here on costs only the
        # passes that have not run yet.
        checkpoint.record_stage(
            store,
            label=stage.label,
            kind=stage.kind,
            wall_ms=outcome.pass_wall_ms[stage.label],
            count=outcome.pass_counts[stage.label],
            checksum=outcome.pass_checksums.get(stage.label),
            totals=stage_totals[stage.label],
            pair_files=stage_pairs,
            rebalance=outcome.rebalance.get(stage.label),
            plan=current.as_dict(),
            runtime_degradations=outcome.runtime_degradations,
            run_keys=list(run_keys) if stage.kind == "sort-run" else None,
        )

    def reset_round() -> None:
        """Wipe one failed round's partial state so the next is pristine.

        Temps (spills, runs, chunks, pairs) are re-created from R/S, so
        clearing them keeps a re-planned round from double-counting stale
        files written under the previous plan's knobs.
        """
        outcome.pass_wall_ms.clear()
        outcome.pass_counts.clear()
        outcome.pass_checksums.clear()
        outcome.pass_kinds.clear()
        outcome.worker_metrics.clear()
        outcome.rebalance.clear()
        pair_results.clear()
        stage_totals.clear()
        checked_rules.clear()
        replayed.clear()
        run_keys.clear()
        # The manifest describes temps this reset is about to delete; a
        # crash between here and the next barrier must find no manifest.
        checkpoint.reset()
        store.cleanup_temps()
        store.cleanup_orphans()

    try:
        if collect_metrics:
            driver_registry = activate(MetricsRegistry())
        if disk_budget is not None:
            # The driver creates segments too (materialize); the meter is
            # what disk_preflight consults, so arm one for this thread.
            driver_meter = activate_meter(
                MemoryMeter(None, disk_budget, store_root)
            )
        if resume_state is not None:
            # The manifest's scrub already proved R/S and every recorded
            # artifact byte-good; replay the completed stages' outcomes
            # and clear only the temps the manifest does *not* record —
            # partial outputs of the incomplete stage a glob-driven
            # consumer would otherwise double-count.
            for disk in range(disks):
                for path in store.temp_paths(disk):
                    rel = str(path.relative_to(store.root))
                    if rel not in resume_state.recorded_paths:
                        path.unlink(missing_ok=True)
            for record in resume_state.records:
                label = record["label"]
                replayed.add(label)
                outcome.pass_wall_ms[label] = float(record["wall_ms"])
                outcome.pass_counts[label] = int(record["count"])
                outcome.pass_kinds[label] = record["kind"]
                if record.get("checksum") is not None:
                    outcome.pass_checksums[label] = int(record["checksum"])
                if record.get("rebalance"):
                    outcome.rebalance[label] = record["rebalance"]
                if record.get("run_keys") is not None:
                    run_keys[:] = [
                        RunKeys(int(records), [int(key) for key in samples])
                        for records, samples in record["run_keys"]
                    ]
                stage_totals[label] = {
                    key: int(value)
                    for key, value in record["totals"].items()
                }
                pair_results.extend(
                    PairResult(
                        int(entry["count"]),
                        int(entry["checksum"]),
                        str(store.root / entry["path"]),
                    )
                    for entry in record["pair_files"]
                )
            check_conservation()
        elif materialize or resume:
            if resume:
                # A declined resume leaves a store nothing proved good —
                # possibly the very corruption that declined it.  Rebuild
                # R/S and start from zero temps; recomputation is the
                # price of not serving a rotten byte.
                store.cleanup_temps()
                for disk in range(disks):
                    for name in ("R", "S"):
                        store.path(disk, name).unlink(missing_ok=True)
            store.materialize(workload)
        else:
            for disk in range(disks):
                for name in ("R", "S"):
                    if not store.path(disk, name).exists():
                        raise RealJoinError(
                            f"materialize=False but {store.path(disk, name)} "
                            "is missing — the store is not warm"
                        )
            store.cleanup_temps()
        sample_disk()
        if pool is None and use_processes and disks > 1:
            owns_pool = True
            pool = multiprocessing.Pool(processes=disks)
        elif not use_processes:
            pool = None

        current = plan
        while True:
            try:
                for stage in pass_plan.stages:
                    if stage.label in replayed:
                        continue
                    run_stage(stage, current)
                break
            except ResourceExhausted as error:
                outcome.resource_errors[error.resource] = (
                    outcome.resource_errors.get(error.resource, 0) + 1
                )
                active().count(
                    "runner.resource_errors_total", 1,
                    algo=algorithm, resource=error.resource,
                )
                if (
                    on_pressure != "degrade"
                    or outcome.runtime_degradations >= max_degradations
                ):
                    raise
                # The stage that ran out is the one to shrink: whatever
                # the model predicted, it is the stage that binds.
                step = predict.descend(
                    algorithm, workload, current, worker_mem_budget,
                    (stage.label,), error.resource,
                )
                if step is None:
                    raise
                current, outcome.predicted, rung = step
                outcome.rungs.append(rung)
                outcome.runtime_degradations += 1
                active().count(
                    "runner.degradations_total", 1, algo=algorithm
                )
                reset_round()
        outcome.plan = current
        # A completed run needs no resume; a surviving manifest on a
        # warm store would wrongly skip the *next* join's passes.
        discard_manifest(store_root)

        if collect_pairs:
            # Stored form, file order: each PAIRS segment's packed block is
            # copied into its slice of the one whole-output allocation.
            block = np.empty(
                (sum(result.count for result in pair_results), 4), dtype="<u8"
            )
            filled = 0
            for result in pair_results:
                part = read_pair_block(result.path)
                if len(part) != result.count:
                    raise RealJoinError(
                        f"{result.path} holds {len(part)} pairs; its worker "
                        f"reported {result.count}"
                    )
                block[filled : filled + len(part)] = part
                filled += len(part)
            outcome.pairs = JoinedPairs(block)
    finally:
        if driver_meter is not None:
            deactivate_meter()
        if driver_registry is not None:
            deactivate()
        if owns_pool and pool is not None:
            if recovery["pool_dirty"]:
                # Abandoned (hung or crashed mid-task) workers would block
                # close()+join() forever; this pool is ours, so kill it.
                pool.terminate()
            else:
                pool.close()
            pool.join()
        # Only after the pool is gone is no worker left that could still
        # be writing a .tmp; whatever remains unpublished is an orphan.
        store.cleanup_orphans()
        if not keep_store:
            store.destroy()

    outcome.pair_count = sum(result.count for result in pair_results)
    outcome.checksum = (
        sum(result.checksum for result in pair_results) % CHECKSUM_MOD
    )
    outcome.pair_files = list(pair_results)
    outcome.driver_metrics = (
        driver_registry.snapshot() if driver_registry is not None else None
    )
    return outcome


def _dispatch_stage(
    pool,
    stage: Stage,
    units: Sequence[TaskSpec],
    arm: Callable[[TaskSpec], TaskSpec],
    pass_wall: Dict[str, float],
    policy: RetryPolicy,
    algorithm: str,
    recovery: dict,
) -> list:
    """Dispatch one stage's units (tasks), retrying failed ones.

    ``units`` is the spec list from :func:`plan_stage_units` — one per
    partition, or one per shard where the rebalancer split a partition;
    ``arm`` stamps each dispatch of a unit with its attempt number and
    fault.  Returns each unit's ``(kernel_result, registry_snapshot)``
    from the attempt that finished.  Every task gets ``1 +
    policy.retries`` attempts (plus one optional inline-fallback attempt
    in the parent).  Between rounds the dispatcher backs off
    exponentially.  Retrying is safe because kernel outputs are only
    published by atomic rename and re-created with overwrite, so a
    failed attempt's partial work is invisible to its retry.

    Classified :class:`ResourceExhausted` failures are *not* retried —
    under the same plan the same budget trips deterministically — they
    propagate to the executor's degradation loop instead.
    """
    started = time.perf_counter()
    results: list = [None] * len(units)
    pending = list(range(len(units)))
    errors: List[BaseException] = []
    labels = {"algo": algorithm, "pass": stage.label}
    for attempt in range(policy.retries + 1):
        if not pending:
            break
        if attempt:
            recovery["retries"] += len(pending)
            active().count("runner.retries_total", len(pending), **labels)
            time.sleep(
                min(policy.backoff_s * (2 ** (attempt - 1)), _BACKOFF_CAP_S)
            )
        pending = _run_round(
            pool, units, arm, pending, results,
            policy, recovery, errors, labels,
        )
    if pending and pool is not None and policy.fallback_inline:
        # Graceful degradation: the pool could not finish these tasks
        # within budget (it may be unrecoverable); run them in-process.
        recovery["inline_fallbacks"] += len(pending)
        active().count("runner.inline_fallbacks_total", len(pending), **labels)
        pending = _run_round(
            None, units, arm, pending, results,
            policy, recovery, errors, labels,
        )
    if pending:
        slots = [units[idx].slot for idx in pending]
        raise RealJoinError(
            f"{algorithm} {stage.label}: tasks {slots} failed "
            f"{stage.kernel} after {policy.retries + 1} attempt(s)"
        ) from (errors[-1] if errors else None)
    pass_wall[stage.label] = (time.perf_counter() - started) * 1000.0
    return results


def _run_round(
    pool,
    units: Sequence[TaskSpec],
    arm: Callable[[TaskSpec], TaskSpec],
    indices: List[int],
    results: list,
    policy: RetryPolicy,
    recovery: dict,
    errors: List[BaseException],
    labels: Dict[str, str],
) -> List[int]:
    """Run one attempt for each pending task; return the still-failing set.

    A :class:`ResourceExhausted` ends the round: inline it raises at once;
    in pool mode the remaining futures are *drained first* (so no sibling
    task of this round is still running when the executor re-plans and
    re-dispatches — an abandoned attempt publishing over its replacement
    would corrupt the degraded round) and the first classified error is
    then raised.
    """
    still: List[int] = []
    if pool is not None:
        futures = [
            (idx, pool.apply_async(run_task, (arm(units[idx]),)))
            for idx in indices
        ]
        resource_error: Optional[ResourceExhausted] = None
        for idx, future in futures:
            try:
                results[idx] = future.get(policy.task_timeout)
            except multiprocessing.TimeoutError:
                # The worker died mid-task (its result will never arrive)
                # or is hung; either way the pool now holds an abandoned
                # task, so it can no longer be join()ed safely.
                recovery["timeouts"] += 1
                recovery["pool_dirty"] = True
                active().count("runner.timeouts_total", 1, **labels)
                errors.append(
                    TimeoutError(
                        f"{units[idx].kernel} task {units[idx].slot} exceeded "
                        f"{policy.task_timeout}s"
                    )
                )
                still.append(idx)
            except ResourceExhausted as error:
                if resource_error is None:
                    resource_error = error
            except Exception as error:
                active().count("runner.worker_failures_total", 1, **labels)
                errors.append(error)
                still.append(idx)
        if resource_error is not None:
            raise resource_error
    else:
        for idx in indices:
            try:
                results[idx] = run_task(arm(units[idx]))
            except ResourceExhausted:
                raise
            except InjectedHang as error:
                # Inline stand-in for a task timeout: counted as one, so
                # the timeout/retry path is testable without processes.
                recovery["timeouts"] += 1
                active().count("runner.timeouts_total", 1, **labels)
                errors.append(error)
                still.append(idx)
            except Exception as error:
                active().count("runner.worker_failures_total", 1, **labels)
                errors.append(error)
                still.append(idx)
    return still
