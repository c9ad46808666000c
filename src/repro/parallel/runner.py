"""Driver for the real-mmap parallel joins.

:func:`run_real_join` is a thin facade over the pass-pipeline engine:
it validates the request, resolves the algorithm's declarative
:class:`~repro.parallel.engine.stages.PassPlan` from the engine
registry, performs *admission* — the analytical model predicts the
footprint (:func:`~repro.governor.predict.predict_footprint`), an
over-budget plan is pre-degraded to fit
(:func:`~repro.governor.predict.fit_plan`) or rejected, and an optional
shared :class:`~repro.governor.ResourceGovernor` bounds how many joins
run at once — then hands the admitted plan to one generic executor
(:func:`~repro.parallel.engine.executor.execute_plan`), which owns task
fan-out, retry/backoff/inline-fallback recovery, runtime degradation,
metrics harvest, conservation checks, pair collection and artifact
sweeping for **every** algorithm through the same path.

Every governance decision lands in ``RealJoinResult.governor`` (the
stats document's ``totals.governor`` section), and
:meth:`RealJoinResult.stats_document` renders the run as the versioned
JSON stats document of ``docs/metrics_schema.md``.
"""

from __future__ import annotations

import multiprocessing.pool
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.records import JoinedPairs
from repro.governor.errors import DiskExhausted, MemoryExhausted
from repro.governor.governor import ResourceGovernor
from repro.governor.predict import JoinPlan, fit_plan, predict_footprint
from repro.obs.export import build_real_stats_document
from repro.parallel.engine import task as engine_task
from repro.parallel.engine.executor import (
    RealJoinError,
    execute_plan,
)
from repro.parallel.engine.rebalance import validate_rebalance_mode
from repro.parallel.engine.stages import algorithms as registered_algorithms
from repro.parallel.engine.stages import plan_for
from repro.parallel.faults import FaultPlan, RetryPolicy
from repro.workload.generator import Workload

#: Derived from the engine's plan registry: registering a PassPlan is the
#: single step that adds an algorithm here, to the CLI, and to the tests.
REAL_ALGORITHMS = registered_algorithms()

ON_PRESSURE_MODES = ("degrade", "queue", "fail")


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
    pair_files: List = field(default_factory=list)
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
    #: Per-stage rebalance decisions from the executor's final round:
    #: stage label -> {axis, splits, tasks, moved_records, pre_ratio,
    #: post_ratio}.  Empty when the plan ran with ``rebalance="off"`` or
    #: no stage is rebalance-capable.
    rebalance: Dict[str, dict] = field(default_factory=dict)
    #: Checkpoint-resume accounting (stats ``totals.resume``): whether a
    #: manifest was replayed, passes skipped, manifest age, and the
    #: reason a requested resume was declined.
    resume: Dict[str, object] = field(default_factory=dict)
    #: Integrity accounting (stats ``totals.integrity``): segments fully
    #: scrubbed and scrub failures during resume validation.
    integrity: Dict[str, int] = field(default_factory=dict)

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
    backoff_s: float = 0.05,
    fallback_inline: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    mem_budget: Optional[int] = None,
    disk_budget: Optional[int] = None,
    on_pressure: str = "degrade",
    governor: Optional[ResourceGovernor] = None,
    deadline_s: Optional[float] = None,
    max_degradations: int = 8,
    batch_records: Optional[int] = None,
    resident_buckets: int = 4,
    reuse_store: bool = False,
    tenant: Optional[str] = None,
    priority: int = 0,
    rebalance: str = "auto",
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

    ``retries`` / ``task_timeout`` / ``backoff_s`` / ``fallback_inline``
    configure the :class:`~repro.parallel.faults.RetryPolicy`: each
    partition's task gets ``1 + retries`` pool attempts, a task that
    exceeds ``task_timeout`` seconds is declared dead and retried, and —
    if pool attempts are exhausted and ``fallback_inline`` is set — the
    failing partitions run once more in the parent process.  A crashed
    pool worker never delivers its result, so crash *detection* in pool
    mode requires a ``task_timeout``.

    ``fault_plan`` is a deterministic
    :class:`~repro.parallel.faults.FaultPlan`: the executor attaches the
    matching spec to the task it dispatches at each chosen ``(task,
    partition, attempt)`` coordinate, which then crashes, hangs, tears
    its output, or hits resource pressure on cue.

    ``mem_budget`` (total, split evenly across the ``disks`` workers) and
    ``disk_budget`` (whole store) arm the governor; ``on_pressure``
    decides what an over-budget prediction or a runtime
    :class:`~repro.governor.errors.ResourceExhausted` does — ``degrade``
    re-plans down the ladder (up to ``max_degradations`` rounds),
    ``queue``/``fail`` raise the classified error.

    ``resident_buckets`` (hybrid hash only) is how many buckets stay
    home — joined during the partition scan instead of spilled; the
    partition stage's deepest memory rung shrinks it to zero, at which
    point hybrid degenerates to grace.

    ``rebalance`` selects per-partition size rebalancing in the executor:
    ``"auto"`` (the default) shards a stage's oversized partitions into
    parallel sub-tasks only when the partition-size ratio crosses the
    executor's threshold, ``"on"`` force-shards every non-empty partition
    of the shardable stages, ``"off"`` never shards.  Join output is
    bit-identical in every mode.

    ``reuse_store`` promises ``store_root`` already holds this exact
    workload (a warm store a previous ``keep_store=True`` run left
    behind) and skips re-materializing R/S — the join-service daemon's
    per-request saving.  ``tenant`` / ``priority`` flow to the shared
    ``governor``'s admission queue (higher priority wins a freed slot)
    and into its per-tenant accounting; both are inert without a
    governor.

    ``resume`` asks the executor to validate the store's checkpoint
    manifest (full payload scrub of every recorded artifact) and replay
    the completed passes a dead driver left behind, restarting from the
    first incomplete stage; an invalid or missing manifest silently
    falls back to a fresh run.  The resumed run is bit-identical to an
    uninterrupted one.  ``RealJoinResult.resume`` records what happened.
    """
    if algorithm not in REAL_ALGORITHMS:
        raise RealJoinError(
            f"unknown algorithm {algorithm!r}; choices: {sorted(REAL_ALGORITHMS)}"
        )
    if on_pressure not in ON_PRESSURE_MODES:
        raise RealJoinError(
            f"unknown on_pressure mode {on_pressure!r}; "
            f"choices: {sorted(ON_PRESSURE_MODES)}"
        )
    if mem_budget is not None and mem_budget <= 0:
        raise RealJoinError(f"mem_budget must be positive: {mem_budget}")
    if disk_budget is not None and disk_budget <= 0:
        raise RealJoinError(f"disk_budget must be positive: {disk_budget}")
    if algorithm == "hybrid-hash" and not 0 <= resident_buckets < buckets:
        raise RealJoinError(
            f"resident_buckets must satisfy 0 <= resident < buckets: "
            f"{resident_buckets} vs {buckets} buckets"
        )
    validate_rebalance_mode(rebalance)
    pass_plan = plan_for(algorithm)
    policy = RetryPolicy(
        retries=retries,
        task_timeout=task_timeout,
        backoff_s=backoff_s,
        fallback_inline=fallback_inline,
    )
    disks = workload.disks
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
        rebalance=rebalance,
    )
    governed = (
        mem_budget is not None or disk_budget is not None or governor is not None
    )
    worker_budget = mem_budget // disks if mem_budget is not None else None

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

    started = time.perf_counter()
    try:
        outcome = execute_plan(
            pass_plan,
            workload,
            store_root,
            plan,
            use_processes=use_processes,
            pool=pool,
            collect_metrics=collect_metrics,
            collect_pairs=collect_pairs,
            keep_store=keep_store,
            policy=policy,
            fault_plan=fault_plan,
            on_pressure=on_pressure,
            max_degradations=max_degradations,
            governed=governed,
            worker_mem_budget=worker_budget,
            disk_budget=disk_budget,
            materialize=not reuse_store,
            resume=resume,
        )
    finally:
        if ticket is not None:
            ticket.release()
    wall_ms = (time.perf_counter() - started) * 1000.0

    governor_doc: Optional[dict] = None
    if governed:
        # Report the prediction for the plan that actually produced the
        # result: the executor priced it if the plan changed mid-run, and
        # a resumed run inherits its manifest's degraded plan unpriced.
        if outcome.predicted is not None:
            predicted = outcome.predicted
        elif outcome.runtime_degradations:
            predicted = predict_footprint(
                algorithm, workload, outcome.plan, worker_budget
            )
        governor_doc = {
            "admission": admission,
            "on_pressure": on_pressure,
            "queued_ms": ticket.queued_ms if ticket is not None else 0.0,
            "admission_degradations": admission_degradations,
            "runtime_degradations": outcome.runtime_degradations,
            "degradations_total": (
                admission_degradations + outcome.runtime_degradations
            ),
            "rungs": rungs + outcome.rungs,
            "resource_errors": dict(outcome.resource_errors),
            "budgets": {
                "mem_budget_bytes": mem_budget,
                "worker_mem_budget_bytes": worker_budget,
                "disk_budget_bytes": disk_budget,
            },
            "plan": outcome.plan.as_dict(),
            "predicted": predicted.as_dict(),
            "observed": {
                "worker_mem_high_water_bytes": _max_worker_gauge(
                    outcome.worker_metrics, "worker.mem_high_water_bytes"
                ),
                "worker_mapped_peak_bytes": _max_worker_gauge(
                    outcome.worker_metrics, "worker.mapped_peak_bytes"
                ),
                "worker_rss_max_bytes": _max_worker_gauge(
                    outcome.worker_metrics, "worker.rss_max_bytes"
                ),
                "disk_peak_bytes": outcome.disk_peak_bytes,
            },
        }

    return RealJoinResult(
        algorithm=algorithm,
        pair_count=outcome.pair_count,
        checksum=outcome.checksum,
        wall_ms=wall_ms,
        pairs=outcome.pairs,
        pair_files=outcome.pair_files,
        pass_wall_ms=outcome.pass_wall_ms,
        pass_counts=outcome.pass_counts,
        pass_checksums=outcome.pass_checksums,
        pass_kinds=outcome.pass_kinds,
        used_processes=use_processes,
        worker_metrics=outcome.worker_metrics,
        driver_metrics=outcome.driver_metrics,
        metrics_enabled=collect_metrics,
        retries_total=outcome.recovery["retries"],
        timeouts_total=outcome.recovery["timeouts"],
        inline_fallbacks=outcome.recovery["inline_fallbacks"],
        degradations_total=(
            admission_degradations + outcome.runtime_degradations
        ),
        governor=governor_doc,
        partitioner=(
            "hash"
            if any(stage.buffered for stage in pass_plan.stages)
            else None
        ),
        rebalance=dict(outcome.rebalance),
        resume=dict(outcome.resume),
        integrity=dict(outcome.integrity),
    )


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
