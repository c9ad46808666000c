"""The one driver of the real-mmap parallel joins.

:func:`run_real_join` validates the request, takes the algorithm's
declarative :class:`~repro.parallel.engine.stages.PassPlan` from the
plan table, and performs *admission* — the analytical model predicts
the footprint (:func:`~repro.governor.predict.predict_footprint`), an
over-budget plan is pre-degraded to fit
(:func:`~repro.governor.predict.fit_plan`) or rejected, and an optional
shared :class:`~repro.governor.ResourceGovernor` bounds how many joins
run at once.  It then runs the admitted plan as one :class:`_JoinRun`,
which owns everything from "touch the store" to "the store is swept"
for **every** algorithm through the same path:

* store lifecycle — orphan sweep, checkpoint resume or workload
  materialization, final orphan sweep/destroy;
* task fan-out — the paper's Rproc_i model: one
  :class:`~repro.parallel.engine.task.TaskSpec` per partition per stage,
  carrying the whole of the task's run state (plan, budgets, metrics
  flag, the attempt's fault), dispatched to a
  :class:`multiprocessing.Pool` (or inline), with a barrier after each
  stage;
* recovery — each partition's task gets ``1 + retries`` attempts with
  exponential backoff, then, in a pool, one inline run in the parent.
  Retries are safe because every kernel publishes its outputs
  atomically (tmp-write / rename) and re-creates them with
  ``overwrite=True``.  A task that misses its ``task_timeout`` leaves an
  abandoned worker behind, so a pool the run owns is then terminated
  rather than joined;
* governance — a classified :class:`ResourceExhausted` out of a worker
  is deterministic under the same plan, so it is never retried: the
  round is drained, and under ``on_pressure="degrade"`` the run descends
  one rung of the plan's ladder, clears the round's temps (stages are
  idempotent) and re-executes;
* observability — per-stage spans, driver counters, the registry
  snapshot each task returns, disk high-water sampling;
* invariants — the plan's :class:`ConservationRule` set, each rule
  checked the moment every stage it references has completed.

The run fills one :class:`RealJoinResult` in place.  Every governance
decision lands in ``RealJoinResult.governor`` (the stats document's
``totals.governor`` section), and :meth:`RealJoinResult.stats_document`
renders the run as the versioned JSON stats document of
``docs/metrics_schema.md``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.records import JoinedPairs
from repro.governor import predict
from repro.governor.budget import ON_PRESSURE_MODES, store_usage_bytes
from repro.governor.errors import DiskExhausted, MemoryExhausted, ResourceExhausted
from repro.governor.governor import ResourceGovernor
from repro.governor.predict import (
    FootprintEstimate,
    JoinPlan,
    fit_plan,
    predict_footprint,
)
from repro.governor.watchdog import MemoryMeter, activate_meter, deactivate_meter
from repro.obs.export import build_real_stats_document
from repro.obs.registry import MetricsRegistry, activate, active, deactivate
from repro.obs.spans import span
from repro.parallel.engine import task as engine_task
from repro.parallel.engine.checkpoint import (
    CheckpointWriter,
    described_signature,
    discard_manifest,
    load_manifest,
    publish_descriptor,
    validate_manifest,
    workload_signature,
)
from repro.parallel.engine.plans import PLANS, algorithms
from repro.parallel.engine.stages import PassPlan, Stage
from repro.parallel.engine.task import (
    CHECKSUM_MOD,
    PairResult,
    StageOutput,
    TaskSpec,
    run_task,
)
from repro.parallel.faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedHang,
)
from repro.storage.relation import read_pair_block
from repro.storage.store import Store
from repro.workload.generator import Workload

#: Read from the plan table: adding a PassPlan there is the single step
#: that adds an algorithm here, to the CLI, and to the tests.
REAL_ALGORITHMS = algorithms()

#: Backoff before retry round ``k`` sleeps ``_BACKOFF_S * 2**(k-1)``
#: seconds, never longer than ``_BACKOFF_CAP_S``.
_BACKOFF_S = 0.05
_BACKOFF_CAP_S = 2.0

#: Runtime ladder descents a degrading run may take before the round's
#: classified error surfaces.
MAX_DEGRADATIONS = 8


class RealJoinError(RuntimeError):
    """Raised when the real backend cannot run a join."""


@dataclass
class RealJoinResult:
    """Outcome of one real-mmap join."""

    algorithm: str
    pair_count: int
    checksum: int
    wall_ms: float
    #: The whole output, columnar; None under ``collect_pairs=False``.
    pairs: Optional[JoinedPairs] = None
    #: The published PAIRS segments as (count, checksum, path) tuples.
    #: Paths outlive the run only under ``keep_store=True``; the join
    #: service streams client deliveries straight from these mapped
    #: segments instead of asking for ``pairs``.
    pair_files: List[PairResult] = field(default_factory=list)
    pass_wall_ms: Dict[str, float] = field(default_factory=dict)
    pass_counts: Dict[str, int] = field(default_factory=dict)
    pass_checksums: Dict[str, int] = field(default_factory=dict)
    #: Stage kind per pass label (the engine's stage taxonomy).
    pass_kinds: Dict[str, str] = field(default_factory=dict)
    used_processes: bool = True
    # Registry snapshots: per pass -> per partition, plus the parent's own.
    worker_metrics: Dict[str, Dict[int, dict]] = field(default_factory=dict)
    driver_metrics: Optional[dict] = None
    metrics_enabled: bool = False
    # Recovery totals: how hard the dispatcher had to work for this result.
    retries_total: int = 0
    timeouts_total: int = 0
    inline_fallbacks: int = 0
    # Governance totals: how far the plan had to shrink to fit its budget
    # (admission-time fit steps + runtime degradation rounds), and the
    # governor's full decision record (None on ungoverned runs).
    degradations_total: int = 0
    governor: Optional[dict] = None
    #: Always "vector"; kept only because bench/rigs.py and bench/run.py read it.
    kernel_mode: str = "vector"
    #: The stats document's ``meta.partitioner``: ``"hash"`` (the
    #: order-preserving bucket function) when the plan's partition stage
    #: buckets, None otherwise.
    partitioner: Optional[str] = None
    #: Checkpoint-resume accounting (stats ``totals.resume``): whether a
    #: manifest was replayed, passes skipped, manifest age, and the
    #: reason a requested resume was declined.
    resume: Dict[str, object] = field(default_factory=dict)
    #: Integrity accounting (stats ``totals.integrity``): segments fully
    #: scrubbed and scrub failures during resume validation.
    integrity: Dict[str, int] = field(default_factory=dict)
    #: The fault plan's specs no dispatch matched (stats
    #: ``totals.unfired_faults``): each injected nothing.
    unfired_faults: List[FaultSpec] = field(default_factory=list)

    def stats_document(self, workload: Optional[Workload] = None) -> dict:
        """Render this run as the versioned JSON stats document."""
        return build_real_stats_document(self, workload)


def run_real_join(
    algorithm: str,
    workload: Workload,
    store_root: str,
    use_processes: bool = True,
    buckets: int = 16,
    tsize: int = 64,
    irun: int = 4096,
    keep_store: bool = False,
    collect_pairs: bool = True,
    pool: Optional[multiprocessing.pool.Pool] = None,
    collect_metrics: bool = True,
    retries: int = 2,
    task_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    mem_budget: Optional[int] = None,
    disk_budget: Optional[int] = None,
    on_pressure: str = "degrade",
    governor: Optional[ResourceGovernor] = None,
    deadline_s: Optional[float] = None,
    batch_records: Optional[int] = None,
    resident_buckets: int = 4,
    reuse_store: bool = False,
    tenant: Optional[str] = None,
    priority: int = 0,
    resume: bool = False,
) -> RealJoinResult:
    """Execute one pointer-based join on real mmap-backed files.

    ``pool`` lets a caller running several joins share one worker pool
    across them (workers are stateless — they open stores by path per
    task); a shared pool is left open for the caller to close, and is
    never terminated even when a fault leaves it with abandoned tasks.

    ``collect_pairs`` hands the output back as ``RealJoinResult.pairs``, a
    :class:`~repro.core.records.JoinedPairs`: the published PAIRS segments'
    packed blocks (CRC-verified) copied in file order into one ``(n, 4)``
    u64 array, ``.columns`` — a sequence of ``JoinedPair`` that boxes a pair
    only when one is indexed or iterated.

    Each partition's task gets ``1 + retries`` attempts, with an
    exponential backoff between rounds; a pool task that exceeds
    ``task_timeout`` seconds is declared dead and retried, and partitions
    that exhaust their pool attempts run once more in the parent process.
    A crashed pool worker never delivers its result, so crash *detection*
    in pool mode requires a ``task_timeout``.

    ``fault_plan`` is a deterministic
    :class:`~repro.parallel.faults.FaultPlan`: the driver attaches the
    matching spec to the task it dispatches at each chosen ``(task,
    partition, attempt)`` coordinate, which then crashes, hangs, tears
    its output, or hits resource pressure on cue.

    ``mem_budget`` (total, split evenly across the ``disks`` workers) and
    ``disk_budget`` (whole store) arm the governor; ``on_pressure``
    decides what an over-budget prediction or a runtime
    :class:`~repro.governor.errors.ResourceExhausted` does — ``degrade``
    re-plans down the ladder (up to ``MAX_DEGRADATIONS`` rounds),
    ``queue``/``fail`` raise the classified error.

    ``resident_buckets`` (hybrid hash only) is how many buckets stay
    home — joined during the partition scan instead of spilled; the
    partition stage's deepest memory rung shrinks it to zero, at which
    point hybrid degenerates to grace.

    ``reuse_store`` promises ``store_root`` already holds this exact
    workload (a warm store a previous ``keep_store=True`` run left
    behind) and skips re-materializing R/S — the join-service daemon's
    per-request saving.  ``tenant`` / ``priority`` flow to the shared
    ``governor``'s admission queue (higher priority wins a freed slot)
    and into its per-tenant accounting; both are inert without a
    governor.

    ``resume`` validates the store's checkpoint manifest (full payload
    scrub of every recorded artifact) and replays the completed passes a
    dead driver left behind, restarting from the first incomplete stage;
    an invalid or missing manifest silently falls back to a fresh run.
    The resumed run is bit-identical to an uninterrupted one.
    ``RealJoinResult.resume`` records what happened.
    """
    if algorithm not in PLANS:
        raise RealJoinError(
            f"unknown algorithm {algorithm!r}; choices: {sorted(PLANS)}"
        )
    if on_pressure not in ON_PRESSURE_MODES:
        raise RealJoinError(
            f"unknown on_pressure mode {on_pressure!r}; "
            f"choices: {sorted(ON_PRESSURE_MODES)}"
        )
    if retries < 0:
        raise RealJoinError(f"retries cannot be negative: {retries}")
    if task_timeout is not None and not task_timeout > 0:
        raise RealJoinError(f"task_timeout must be positive: {task_timeout}")
    if mem_budget is not None and mem_budget <= 0:
        raise RealJoinError(f"mem_budget must be positive: {mem_budget}")
    if disk_budget is not None and disk_budget <= 0:
        raise RealJoinError(f"disk_budget must be positive: {disk_budget}")
    if fault_plan is not None:
        try:
            fault_plan.check(algorithm, workload.disks)
        except FaultPlanError as error:
            raise RealJoinError(f"fault plan cannot fire: {error}") from None
    if algorithm == "hybrid-hash" and not 0 <= resident_buckets < buckets:
        raise RealJoinError(
            f"resident_buckets must satisfy 0 <= resident < buckets: "
            f"{resident_buckets} vs {buckets} buckets"
        )
    plan = JoinPlan(
        batch_records=(
            batch_records
            if batch_records is not None
            else engine_task.BATCH_RECORDS
        ),
        irun=irun,
        buckets=buckets,
        tsize=tsize,
        resident_buckets=resident_buckets,
    )
    governed = (
        mem_budget is not None or disk_budget is not None or governor is not None
    )
    worker_budget = mem_budget // workload.disks if mem_budget is not None else None

    # ------------------------------------------------------------ admission
    # The model speaks first: predict the plan's footprint, shrink it to
    # fit (degrade) or refuse it (queue/fail) *before* creating anything.
    admission = "admitted"
    admission_degradations = 0
    rungs: List[dict] = []
    predicted = None
    if governed:
        if worker_budget is not None and on_pressure == "degrade":
            # fit_plan prices every plan it visits, the admitted one last.
            plan, admission_degradations, predicted = fit_plan(
                algorithm, workload, plan, worker_budget, rungs
            )
            if admission_degradations:
                admission = "degraded"
        else:
            predicted = predict_footprint(
                algorithm, workload, plan, worker_budget
            )
            if (
                worker_budget is not None
                and predicted.mem_high_water_bytes > worker_budget
            ):
                raise MemoryExhausted(
                    f"{algorithm}: predicted per-worker high-water mark "
                    "exceeds the memory budget",
                    requested=int(predicted.mem_high_water_bytes),
                    limit=worker_budget,
                )
        if disk_budget is not None and predicted.disk_bytes > disk_budget:
            # Disk has no useful ladder: spill capacities are workload-
            # determined, so a plan predicted not to fit never will.
            raise DiskExhausted(
                f"{algorithm}: predicted disk footprint exceeds the budget",
                requested=int(predicted.disk_bytes),
                limit=disk_budget,
            )

    ticket = None
    if governor is not None:
        ticket = governor.admit(
            on_pressure, deadline_s, tenant=tenant, priority=priority
        )
        if ticket.decision == "queued":
            admission = "queued"

    run = _JoinRun(
        pass_plan=PLANS[algorithm],
        workload=workload,
        store_root=store_root,
        plan=plan,
        use_processes=use_processes,
        pool=pool,
        collect_metrics=collect_metrics,
        collect_pairs=collect_pairs,
        keep_store=keep_store,
        retries=retries,
        task_timeout=task_timeout,
        fault_plan=fault_plan,
        on_pressure=on_pressure,
        governed=governed,
        worker_mem_budget=worker_budget,
        disk_budget=disk_budget,
        materialize=not reuse_store,
        resume=resume,
        rungs=rungs,
        predicted=predicted,
    )
    started = time.perf_counter()
    try:
        run.execute()
    finally:
        if ticket is not None:
            ticket.release()
    result = run.result
    result.wall_ms = (time.perf_counter() - started) * 1000.0
    result.degradations_total = (
        admission_degradations + run.runtime_degradations
    )
    if governed:
        result.governor = {
            "admission": admission,
            "on_pressure": on_pressure,
            "queued_ms": ticket.queued_ms if ticket is not None else 0.0,
            "admission_degradations": admission_degradations,
            "runtime_degradations": run.runtime_degradations,
            "degradations_total": result.degradations_total,
            "rungs": run.rungs,
            "resource_errors": run.resource_errors,
            "budgets": {
                "mem_budget_bytes": mem_budget,
                "worker_mem_budget_bytes": worker_budget,
                "disk_budget_bytes": disk_budget,
            },
            "plan": run.plan.as_dict(),
            # The prediction for the plan that produced the result; a
            # resumed run inherits its manifest's degraded plan unpriced.
            "predicted": (
                run.predicted
                or predict_footprint(algorithm, workload, run.plan, worker_budget)
            ).as_dict(),
            "observed": {
                **{
                    f"worker_{gauge}_bytes": _max_worker_gauge(
                        result.worker_metrics, f"worker.{gauge}_bytes"
                    )
                    for gauge in ("mem_high_water", "mapped_peak", "rss_max")
                },
                "disk_peak_bytes": run.disk_peak_bytes,
            },
        }
    return result


@dataclass(eq=False)
class _JoinRun:
    """One admitted join: every stage of ``pass_plan``, across all
    partitions, from "touch the store" to "the store is swept".

    ``plan`` arrives already fitted to its budget; the run descends the
    ladder further only when a runtime :class:`ResourceExhausted` proves
    the admission estimate optimistic.  ``rungs`` and ``predicted`` are
    admission's: runtime rungs are appended to the one list, and each
    descent replaces the prediction.

    ``materialize=False`` promises the store already holds this exact
    workload's R/S partitions (a *warm* store kept by a previous
    ``keep_store=True`` run) and skips rewriting them.  Stale temps from
    the previous run are cleared so glob-driven consumers (run files,
    spill chunks) never see another plan's artifacts.
    """

    pass_plan: PassPlan
    workload: Workload
    store_root: str
    plan: JoinPlan
    use_processes: bool
    pool: Optional[multiprocessing.pool.Pool]
    collect_metrics: bool
    collect_pairs: bool
    keep_store: bool
    retries: int
    task_timeout: Optional[float]
    fault_plan: Optional[FaultPlan]
    on_pressure: str
    governed: bool
    worker_mem_budget: Optional[int]
    disk_budget: Optional[int]
    materialize: bool
    resume: bool
    rungs: List[dict]
    predicted: Optional[FootprintEstimate]
    runtime_degradations: int = 0
    resource_errors: Dict[str, int] = field(default_factory=dict)
    disk_peak_bytes: int = 0
    owns_pool: bool = False
    pool_dirty: bool = False
    # Per-round stage outcomes feeding the conservation rules:
    # label -> {"moved": int, "pairs": int, "total": int}.
    stage_totals: Dict[str, Dict[str, int]] = field(default_factory=dict)
    checked_rules: set = field(default_factory=set)
    # Stage labels replayed from the checkpoint manifest this round.
    replayed: set = field(default_factory=set)
    # Dispatches so far per (kernel, partition) — the fault plan's
    # attempt coordinate.  Deliberately outlives reset_round: a one-shot
    # injected fault must not re-fire in the degraded round.
    attempts: Dict[tuple, int] = field(default_factory=dict)
    # The fault plan's specs some dispatch carried.
    fired: set = field(default_factory=set)

    def __post_init__(self) -> None:
        self.algorithm = self.pass_plan.algorithm
        self.result = RealJoinResult(
            algorithm=self.algorithm,
            pair_count=0,
            checksum=0,
            wall_ms=0.0,
            used_processes=self.use_processes,
            metrics_enabled=self.collect_metrics,
            partitioner=(
                "hash"
                if any(stage.buffered for stage in self.pass_plan.stages)
                else None
            ),
        )

    def execute(self) -> None:
        """Run the plan to completion and fill ``self.result``."""
        workload, result = self.workload, self.result
        # clean_orphans: this is the driver, the one place where no
        # sibling writer can be mid-publish, so stale *.seg.tmp from a
        # previous dead run are safe to sweep (live tmps are
        # flock-protected regardless).
        self.store = store = Store(
            self.store_root, workload.disks, clean_orphans=True
        )
        resume_state = self.resolve_resume()
        driver_registry: Optional[MetricsRegistry] = None
        driver_meter: Optional[MemoryMeter] = None
        try:
            if self.collect_metrics:
                driver_registry = activate(MetricsRegistry())
            if self.disk_budget is not None:
                # The driver creates segments too (materialize); the meter
                # is what disk_preflight consults, so arm one for this thread.
                driver_meter = activate_meter(
                    MemoryMeter(None, self.disk_budget, self.store_root)
                )
            if resume_state is not None:
                self.replay(resume_state)
            else:
                self.prepare_store()
            self.sample_disk()
            if self.pool is None and self.use_processes and workload.disks > 1:
                self.owns_pool = True
                self.pool = multiprocessing.Pool(processes=workload.disks)
            elif not self.use_processes:
                self.pool = None
            self.run_rounds()
            # A completed run needs no resume; a surviving manifest on a
            # warm store would wrongly skip the *next* join's passes.
            discard_manifest(self.store_root)
            if self.collect_pairs:
                result.pairs = self.read_pairs()
        finally:
            if driver_meter is not None:
                deactivate_meter()
            if driver_registry is not None:
                deactivate()
            if self.owns_pool and self.pool is not None:
                if self.pool_dirty:
                    # Abandoned (hung or crashed mid-task) workers would
                    # block close()+join() forever; this pool is ours.
                    self.pool.terminate()
                else:
                    self.pool.close()
                self.pool.join()
            # Only after the pool is gone is no worker left that could
            # still be writing a .tmp; whatever remains unpublished is an
            # orphan.
            store.cleanup_orphans()
            if not self.keep_store:
                store.destroy()
        if self.fault_plan is not None:
            # Which attempts a run dispatches depends on retries, the
            # inline fallback and degradation rounds, so a spec the plan
            # check let through may still never match: report it.
            result.unfired_faults = [
                spec for spec in self.fault_plan.faults
                if spec not in self.fired
            ]
        result.pair_count = sum(pairs.count for pairs in result.pair_files)
        result.checksum = (
            sum(pairs.checksum for pairs in result.pair_files) % CHECKSUM_MOD
        )
        result.driver_metrics = (
            driver_registry.snapshot() if driver_registry is not None else None
        )

    # ------------------------------------------------------------ phases

    def resolve_resume(self):
        """Resolve a resume request against the store's manifest.

        Runs before anything is (re)materialized: a valid manifest proves
        the store warm and hands back the completed stages; anything less
        falls back to a fresh run — resume is an optimization, never a
        risk.  Returns the validated state, or None for a fresh run.
        """
        signature = workload_signature(self.workload)
        state = None
        problem: Optional[str] = None
        scrub_failures = 0
        if self.resume:
            manifest = load_manifest(self.store_root)
            if manifest is None:
                problem = "no checkpoint manifest in the store"
            else:
                state, problem, scrub_failures = validate_manifest(
                    manifest, self.store, self.algorithm, signature,
                    [stage.label for stage in self.pass_plan.stages],
                )
        if state is None:
            # Fresh run (or declined resume): a stale manifest must not
            # describe the new run's artifacts.
            discard_manifest(self.store_root)
        else:
            # The recorded stages ran under the manifest's (possibly
            # degraded) plan; resuming under the caller's knobs instead
            # would break bit-identity with the uninterrupted run.
            self.plan = state.plan
            self.runtime_degradations = state.runtime_degradations
            if state.runtime_degradations:
                self.predicted = None
        resumed = state is not None
        self.result.integrity = {
            "segments_scrubbed": state.segments_scrubbed if resumed else 0,
            "scrub_failures": scrub_failures,
        }
        self.result.resume = {
            "requested": self.resume,
            "resumed": resumed,
            "passes_skipped": len(state.records) if resumed else 0,
            "manifest_age_s": state.manifest_age_s if resumed else None,
            "reason": problem,
        }
        self.checkpoint = CheckpointWriter(
            self.store_root, self.algorithm, signature,
            replayed=state.records if resumed else None,
        )
        return state

    def replay(self, state) -> None:
        """Take the completed stages' outcomes from the manifest.

        The manifest's scrub already proved R/S and every recorded
        artifact byte-good; only the temps it does *not* record are
        cleared — partial outputs of the incomplete stage a glob-driven
        consumer would otherwise double-count.
        """
        store, result = self.store, self.result
        for disk in range(store.disks):
            for path in store.temp_paths(disk):
                rel = str(path.relative_to(store.root))
                if rel not in state.recorded_paths:
                    path.unlink(missing_ok=True)
        for record in state.records:
            label = record["label"]
            self.replayed.add(label)
            result.pass_wall_ms[label] = float(record["wall_ms"])
            result.pass_counts[label] = int(record["count"])
            result.pass_kinds[label] = record["kind"]
            if record.get("checksum") is not None:
                result.pass_checksums[label] = int(record["checksum"])
            self.stage_totals[label] = {
                key: int(value) for key, value in record["totals"].items()
            }
            result.pair_files.extend(
                PairResult(
                    int(entry["count"]),
                    int(entry["checksum"]),
                    str(store.root / entry["path"]),
                )
                for entry in record["pair_files"]
            )
        self.check_conservation()

    def prepare_store(self) -> None:
        """Materialize R/S, or prove a promised warm store holds them.

        A fresh materialize publishes the store's descriptor once R/S are
        written; a reused store whose descriptor names another workload is
        refused (one without a descriptor, from an older build, is not).
        """
        store = self.store
        signature = workload_signature(self.workload)
        if self.materialize or self.resume:
            if self.resume:
                # A declined resume leaves a store nothing proved good —
                # possibly the very corruption that declined it.  Rebuild
                # R/S and start from zero temps; recomputation is the
                # price of not serving a rotten byte.
                store.cleanup_temps()
                for disk in range(store.disks):
                    for name in ("R", "S"):
                        store.path(disk, name).unlink(missing_ok=True)
            store.materialize(self.workload)
            publish_descriptor(store.root, signature)
            return
        for disk in range(store.disks):
            for name in ("R", "S"):
                if not store.path(disk, name).exists():
                    raise RealJoinError(
                        f"reuse_store=True but {store.path(disk, name)} "
                        "is missing — the store is not warm"
                    )
        described = described_signature(store.root)
        if described not in (None, signature):
            raise RealJoinError(
                f"reuse_store=True but {store.root} holds another "
                f"workload (descriptor {described or 'unreadable'}, "
                f"this workload {signature})"
            )
        store.cleanup_temps()

    def run_rounds(self) -> None:
        """Run every stage, descending one rung per governed failure."""
        while True:
            try:
                for stage in self.pass_plan.stages:
                    if stage.label not in self.replayed:
                        self.run_stage(stage)
                return
            except ResourceExhausted as error:
                self.resource_errors[error.resource] = (
                    self.resource_errors.get(error.resource, 0) + 1
                )
                active().count(
                    "runner.resource_errors_total", 1,
                    algo=self.algorithm, resource=error.resource,
                )
                if (
                    self.on_pressure != "degrade"
                    or self.runtime_degradations >= MAX_DEGRADATIONS
                ):
                    raise
                # The stage that ran out is the one to shrink: whatever
                # the model predicted, it is the stage that binds.
                step = predict.descend(
                    self.algorithm, self.workload, self.plan,
                    self.worker_mem_budget, (stage.label,), error.resource,
                )
                if step is None:
                    raise
                self.plan, self.predicted, rung = step
                self.rungs.append(rung)
                self.runtime_degradations += 1
                active().count(
                    "runner.degradations_total", 1, algo=self.algorithm
                )
                self.reset_round()

    def read_pairs(self) -> JoinedPairs:
        """Stored form, file order: each PAIRS segment's packed block is
        copied into its slice of the one whole-output allocation."""
        pair_files = self.result.pair_files
        block = np.empty(
            (sum(pairs.count for pairs in pair_files), 4), dtype="<u8"
        )
        filled = 0
        for pairs in pair_files:
            part = read_pair_block(pairs.path)
            if len(part) != pairs.count:
                raise RealJoinError(
                    f"{pairs.path} holds {len(part)} pairs; its worker "
                    f"reported {pairs.count}"
                )
            block[filled : filled + len(part)] = part
            filled += len(part)
        return JoinedPairs(block)

    # ------------------------------------------------------------ stages

    def arm(self, unit: TaskSpec) -> TaskSpec:
        """Stamp one dispatch with its attempt number and matching fault."""
        key = (unit.kernel, unit.partition)
        attempt = self.attempts.get(key, 0)
        self.attempts[key] = attempt + 1
        fault = (
            self.fault_plan.spec_for(unit.kernel, unit.partition, attempt)
            if self.fault_plan is not None
            else None
        )
        if fault is not None:
            self.fired.add(fault)
        return replace(unit, attempt=attempt, fault=fault)

    def sample_disk(self) -> None:
        if self.governed:
            self.disk_peak_bytes = max(
                self.disk_peak_bytes, store_usage_bytes(self.store_root)
            )

    def conserved(self, ref) -> int:
        label, fld = ref
        return self.stage_totals[label][fld]

    def check_conservation(self) -> None:
        """Fire every rule whose referenced stages have all completed."""
        for rule in self.pass_plan.conservation:
            if rule.what in self.checked_rules:
                continue
            refs = list(rule.produced)
            if isinstance(rule.expected, tuple):
                refs.append(rule.expected)
            if any(label not in self.stage_totals for label, _ in refs):
                continue
            produced = sum(self.conserved(ref) for ref in rule.produced)
            expected = (
                self.workload.r_objects_total
                if rule.expected == "input"
                else self.conserved(rule.expected)
            )
            self.checked_rules.add(rule.what)
            if produced != expected:
                raise RealJoinError(
                    f"{self.algorithm}: {rule.what} not conserved "
                    f"({produced} produced, {expected} expected)"
                )

    def plan_stage_units(self, stage: Stage) -> List[TaskSpec]:
        """One :class:`TaskSpec` per partition of ``stage`` — the only
        place one is built.  As in the paper's Rproc_i model, the
        most-skewed partition's task gates the pass."""
        store, spec = self.store, self.workload.spec
        return [
            TaskSpec(
                store_root=str(store.root),
                disks=store.disks,
                partition=partition,
                s_objects=spec.s_objects,
                r_bytes=spec.r_bytes,
                kernel=stage.kernel,
                plan=self.plan,
                worker_mem_budget=self.worker_mem_budget,
                disk_budget=self.disk_budget,
                metrics=self.collect_metrics,
            )
            for partition in range(store.disks)
        ]

    def run_stage(self, stage: Stage) -> None:
        result = self.result
        # The last barrier is followed only by the manifest's deletion,
        # so it is not checkpointed: no snapshot, no artifact reads.
        checkpointed = stage is not self.pass_plan.stages[-1]
        if checkpointed:
            self.checkpoint.begin_stage(self.store)
        units = self.plan_stage_units(stage)
        with span(
            "stage", algo=self.algorithm, label=stage.label, kind=stage.kind
        ):
            returned = self.dispatch_stage(stage, units)
        results = [outcome for outcome, _snapshot in returned]
        if self.collect_metrics:
            result.worker_metrics[stage.label] = {
                unit.partition: snapshot
                for unit, (_outcome, snapshot) in zip(units, returned)
            }
        self.sample_disk()
        if stage.emits == "both":
            outputs = [StageOutput(*outcome) for outcome in results]
            moved = sum(output.moved for output in outputs)
            stage_pairs = [output.pairs for output in outputs]
        else:
            moved = sum(results) if stage.emits == "moved" else 0
            stage_pairs = list(results) if stage.emits == "pairs" else []
        pairs_count = sum(pairs.count for pairs in stage_pairs)
        totals = self.stage_totals[stage.label] = {
            "moved": moved,
            "pairs": pairs_count,
            "total": moved + pairs_count,
        }
        result.pass_kinds[stage.label] = stage.kind
        result.pass_counts[stage.label] = totals[
            "total" if stage.emits == "both" else stage.emits
        ]
        if stage_pairs:
            result.pass_checksums[stage.label] = (
                sum(pairs.checksum for pairs in stage_pairs) % CHECKSUM_MOD
            )
            result.pair_files.extend(stage_pairs)
        self.check_conservation()
        if not checkpointed:
            return
        # The stage barrier held and its invariants passed: checkpoint
        # the published artifacts so a crash from here on costs only the
        # passes that have not run yet.
        self.checkpoint.record_stage(
            self.store,
            label=stage.label,
            kind=stage.kind,
            wall_ms=result.pass_wall_ms[stage.label],
            count=result.pass_counts[stage.label],
            checksum=result.pass_checksums.get(stage.label),
            totals=totals,
            pair_files=stage_pairs,
            plan=self.plan.as_dict(),
            runtime_degradations=self.runtime_degradations,
        )

    def reset_round(self) -> None:
        """Wipe one failed round's partial state so the next is pristine.

        Temps (spills, runs, chunks, pairs) are re-created from R/S, so
        clearing them keeps a re-planned round from double-counting stale
        files written under the previous plan's knobs.
        """
        result = self.result
        result.pass_wall_ms.clear()
        result.pass_counts.clear()
        result.pass_checksums.clear()
        result.pass_kinds.clear()
        result.worker_metrics.clear()
        result.pair_files.clear()
        self.stage_totals.clear()
        self.checked_rules.clear()
        self.replayed.clear()
        # The manifest describes temps this reset is about to delete; a
        # crash between here and the next barrier must find no manifest.
        self.checkpoint.reset()
        self.store.cleanup_temps()
        self.store.cleanup_orphans()

    # ---------------------------------------------------------- dispatch

    def dispatch_stage(self, stage: Stage, units: Sequence[TaskSpec]) -> list:
        """Dispatch one stage's units (tasks), retrying failed ones.

        Returns each unit's ``(kernel_result, registry_snapshot)`` from
        the attempt that finished.  Every task gets ``1 + retries``
        attempts (plus, in a pool, one inline-fallback attempt in the
        parent), with exponential backoff between rounds.

        Classified :class:`ResourceExhausted` failures are *not* retried
        — under the same plan the same budget trips deterministically —
        they propagate to :meth:`run_rounds` instead.
        """
        result = self.result
        started = time.perf_counter()
        outcomes: list = [None] * len(units)
        pending = list(range(len(units)))
        errors: List[BaseException] = []
        labels = {"algo": self.algorithm, "pass": stage.label}
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt:
                result.retries_total += len(pending)
                active().count("runner.retries_total", len(pending), **labels)
                time.sleep(
                    min(_BACKOFF_S * (2 ** (attempt - 1)), _BACKOFF_CAP_S)
                )
            pending = self.run_round(
                self.pool, units, pending, outcomes, errors, labels
            )
        if pending and self.pool is not None:
            # Graceful degradation: the pool could not finish these tasks
            # within budget (it may be unrecoverable); run them in-process.
            result.inline_fallbacks += len(pending)
            active().count(
                "runner.inline_fallbacks_total", len(pending), **labels
            )
            pending = self.run_round(
                None, units, pending, outcomes, errors, labels
            )
        if pending:
            partitions = [units[idx].partition for idx in pending]
            raise RealJoinError(
                f"{self.algorithm} {stage.label}: tasks {partitions} failed "
                f"{stage.kernel} after {self.retries + 1} attempt(s)"
            ) from (errors[-1] if errors else None)
        result.pass_wall_ms[stage.label] = (
            time.perf_counter() - started
        ) * 1000.0
        return outcomes

    def run_round(
        self,
        pool,
        units: Sequence[TaskSpec],
        indices: List[int],
        outcomes: list,
        errors: List[BaseException],
        labels: Dict[str, str],
    ) -> List[int]:
        """Run one attempt for each pending task; return the still-failing set.

        A :class:`ResourceExhausted` ends the round: inline it raises at
        once; in pool mode the remaining futures are *drained first* (so
        no sibling task of this round is still running when the run
        re-plans and re-dispatches — an abandoned attempt publishing over
        its replacement would corrupt the degraded round) and the first
        classified error is then raised.
        """
        result = self.result
        still: List[int] = []
        resource_error: Optional[ResourceExhausted] = None
        futures = {
            idx: pool.apply_async(run_task, (self.arm(units[idx]),))
            for idx in indices
        } if pool is not None else {}
        for idx in indices:
            try:
                if pool is None:
                    outcomes[idx] = run_task(self.arm(units[idx]))
                else:
                    outcomes[idx] = futures[idx].get(self.task_timeout)
                continue
            except multiprocessing.TimeoutError:
                # The worker died mid-task (its result will never arrive)
                # or is hung; either way the pool now holds an abandoned
                # task, so it can no longer be join()ed safely.
                self.pool_dirty = timed_out = True
                failure: BaseException = TimeoutError(
                    f"{units[idx].kernel} task {units[idx].partition} "
                    f"exceeded {self.task_timeout}s"
                )
            except ResourceExhausted as error:
                if pool is None:
                    raise
                resource_error = resource_error or error
                continue
            except Exception as error:
                # Inline, an injected hang stands in for a task timeout,
                # so the timeout/retry path is testable without processes.
                timed_out = pool is None and isinstance(error, InjectedHang)
                failure = error
            if timed_out:
                result.timeouts_total += 1
                active().count("runner.timeouts_total", 1, **labels)
            else:
                active().count("runner.worker_failures_total", 1, **labels)
            errors.append(failure)
            still.append(idx)
        if resource_error is not None:
            raise resource_error
        return still


def _max_worker_gauge(
    worker_metrics: Dict[str, Dict[int, dict]], name: str
) -> Optional[float]:
    """The maximum of one gauge across every worker snapshot, or None."""
    prefix = name + "{"
    best: Optional[float] = None
    for snapshots in worker_metrics.values():
        for snapshot in snapshots.values():
            for key, value in snapshot.get("gauges", {}).items():
                if key == name or key.startswith(prefix):
                    best = value if best is None else max(best, value)
    return best
