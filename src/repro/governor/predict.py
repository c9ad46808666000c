"""Model-driven footprint prediction and the degradation ladder.

Admission control is only as good as its estimate, and this repo already
*has* the estimate: the paper's analytical model.  This module turns the
model's machinery — partition geometry (:mod:`repro.model.geometry`), the
Mackert–Lohman ``Ylru`` buffer model (:mod:`repro.model.buffer`) and the
Johnson–Kotz urn model of Grace bucket thrashing (:mod:`repro.model.urn`)
— into the two numbers the governor needs *before* a join runs:

* the per-worker **memory high-water mark**, in the same record-byte unit
  the runtime :class:`~repro.governor.watchdog.MemoryMeter` charges, so
  predicted-vs-observed is a direct comparison (a test asserts the
  tolerance); and
* the **disk footprint** — base relations plus every spill and pairs
  segment at its full creation capacity, which is exactly the reservation
  ``MappedSegment.create`` claims via truncate.

Both numbers are functions of the algorithm's declarative pass plan, not
of the algorithm's name: :func:`predict_footprint` walks the registered
:class:`~repro.parallel.engine.stages.PassPlan` and prices each stage by
its *kind* (scan-join, partition, sort-run, merge, probe), and
:meth:`JoinPlan.degraded` picks ladder rungs by which stage kinds the
plan contains.  Registering a new plan therefore gives the governor its
admission model and degradation ladder for free — hybrid hash added a
resident-join flag and one ladder rung, nothing else.

A :class:`JoinPlan` is the knob set the prediction is a function of, and
:meth:`JoinPlan.degraded` is one rung of the degradation ladder — the
knob that shrinks the *binding* stage (the one whose footprint is the
high-water mark): smaller batches for scans and merges, a smaller sort
heap only while run cutting binds, a spill threshold for the partition
buffer, finer buckets for the probe tables.  :func:`fit_plan` walks the
ladder until the predicted high-water mark fits the budget and stops at
the first plan that does — the "re-plan instead of thrash" admission
decision.  The sort-merge merge stage is priced the way the paper draws
Fig. 5(b): a fan-in bounded by memory (:func:`merge_fanin`) and
``ceil(log_F(runs))`` passes (:func:`merge_passes`), so less memory buys
more passes, not a different algorithm.

Deliberately import-light at module level: only :mod:`repro.model`
(itself pure math); the engine's plan registry is imported lazily at
call time so the storage layer can depend on this package without
cycles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.buffer import ylru
from repro.model.geometry import nested_loops_geometry, synchronized_geometry
from repro.model.parameters import MachineParameters
from repro.model.urn import grace_thrashing_estimate

#: Mirrors of storage-layer constants (not imported, to stay cycle-free;
#: pinned by tests against the real values).
PAGE_SIZE = 4096
PAIR_RECORD_BYTES = 32  # struct <QQQQ>: rid, sid, r_payload, s_value

#: Ladder floors/ceilings.  Batches and runs below 64 records spend more
#: time in dispatch than in work; the bucket ceiling keeps the
#: BucketedRFile per-bucket directory inside the header page's spare room.
MIN_BATCH_RECORDS = 64
MIN_IRUN = 64
MAX_BUCKETS = 248

#: fit_plan aims below the budget by this margin: the prediction is a
#: model, and landing exactly on the limit would turn every small
#: mis-estimate into a runtime degradation round.
FIT_MARGIN = 0.75

#: A rung earns its place by lowering the predicted high-water mark by at
#: least this share.  Stages within this share of the mark are all
#: *binding*: shrinking one of them alone cannot pay.
RUNG_MIN_GAIN = 0.10

#: Mirror of :data:`repro.parallel.engine.rebalance.REBALANCE_RATIO`
#: (not imported — that module pulls in the storage layer).  With
#: rebalancing active the executor splits any partition whose share
#: exceeds this multiple of the mean into proportional shards, so the
#: worst *task* the shardable stage kinds run is capped near
#: ``mean x ratio`` no matter how skewed the partition-level split is.
REBALANCE_SKEW_CAP = 1.5


def _pass_plan(algorithm: str):
    """The registered PassPlan for ``algorithm`` (lazy, cycle-free)."""
    from repro.parallel.engine.stages import plan_for

    plan = plan_for(algorithm)
    if plan is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}: no registered pass plan"
        )
    return plan


@dataclass(frozen=True)
class JoinPlan:
    """The tunable knobs one real join runs with."""

    batch_records: int = 4096
    irun: int = 4096
    buckets: int = 16
    tsize: int = 64
    #: Bucketed plans only: flush bucket groups into their laid-out spill
    #: files whenever this many objects are retained (a count scan of R
    #: sizes the files first).  ``None`` = single flush at end of scan.
    #: The spill files are byte-identical either way.
    spill_threshold: Optional[int] = None
    #: Hybrid hash only: buckets joined in place during the partition
    #: scan instead of spilled.  Clamped to ``buckets - 1`` so at least
    #: one bucket always flows through the probe pass.
    resident_buckets: int = 4
    #: Per-partition size rebalancing in the executor: ``"off"`` (never
    #: shard), ``"auto"`` (shard when the partition-size ratio crosses
    #: the executor's threshold), ``"on"`` (force-shard every non-empty
    #: partition of the shardable stages — the bit-identity proof mode).
    rebalance: str = "auto"

    def effective_resident_buckets(self) -> int:
        return max(0, min(self.resident_buckets, self.buckets - 1))

    def as_dict(self) -> dict:
        return {
            "batch_records": self.batch_records,
            "irun": self.irun,
            "buckets": self.buckets,
            "tsize": self.tsize,
            "spill_threshold": self.spill_threshold,
            "resident_buckets": self.resident_buckets,
            "rebalance": self.rebalance,
        }

    def degraded(
        self,
        algorithm: str,
        resource: str = "memory",
        binding: Sequence[str] = (),
    ) -> "JoinPlan":
        """One rung down the ladder; returns ``self`` when exhausted.

        A memory rung shrinks one stage of the algorithm's pass plan.
        ``binding`` holds the labels of the stages to shrink first — those
        whose footprint sets the predicted high-water mark
        (:func:`fit_plan`) or whose worker just ran out of memory (the
        executor) — so a rung is only taken where it lowers the mark;
        when several stages bind at once, the rung is the one knob they
        share, ``batch_records``.  Without a binding stage, or once it
        sits at its floor, stages are tried in plan order, so repeated
        calls walk every knob to the ladder's floor.

        Disk pressure has no plan-level remedy beyond throttling batch
        sizes (spill capacities are workload-determined), so every
        algorithm degrades the same way for ``resource="disk"``.
        """
        if resource != "memory":
            if self.batch_records > MIN_BATCH_RECORDS:
                return self._with_batch(self.batch_records // 2)
            return self
        pass_plan = _pass_plan(algorithm)
        if self.rebalance == "off" and any(
            stage.rebalance is not None for stage in pass_plan.stages
        ):
            # Free rung: splitting a skew-bloated partition into shards
            # caps the worst task's inbound (and so its retained buffer)
            # without shrinking any knob.  Never fires for default plans,
            # which already start at "auto".
            return replace(self, rebalance="auto")
        if len(binding) > 1 and self.batch_records > MIN_BATCH_RECORDS:
            return self._with_batch(self.batch_records // 2)
        for stage in sorted(
            pass_plan.stages, key=lambda stage: stage.label not in binding
        ):
            lowered = self._shrunk(stage)
            if lowered is not None:
                return lowered
        return self

    def _shrunk(self, stage) -> Optional["JoinPlan"]:
        """The rung that lowers ``stage``'s footprint; None at its floor.

        Each branch mirrors the stage's price in :func:`predict_footprint`
        and moves the knob the larger term hangs on, cheapest loss first.
        """
        batch = self.batch_records
        halved_batch = (
            self._with_batch(batch // 2) if batch > MIN_BATCH_RECORDS else None
        )
        if stage.kind == "sort-run":
            # The cutter holds irun + one trailing batch.  Batches shrink
            # the other stages too, so they go first; the sort heap only
            # once it is the larger term (more, smaller runs cost the
            # merge stage extra passes).
            if self.irun > MIN_IRUN and (
                self.irun > batch or halved_batch is None
            ):
                return replace(self, irun=max(MIN_IRUN, self.irun // 2))
            return halved_batch
        if stage.kind == "partition" and stage.buffered:
            # Retains spill_threshold + one batch: bound the buffer
            # (a spill threshold), shrink it down to the batch size, then
            # shrink both; a hybrid plan finally evicts resident buckets.
            if self.spill_threshold is None:
                return replace(
                    self, spill_threshold=max(MIN_BATCH_RECORDS, 4 * batch)
                )
            if self.spill_threshold > batch:
                return replace(
                    self, spill_threshold=max(batch, self.spill_threshold // 2)
                )
            if halved_batch is not None:
                return halved_batch
            if stage.resident_join and self.effective_resident_buckets() > 0:
                return replace(
                    self,
                    resident_buckets=self.effective_resident_buckets() // 2,
                )
            return None
        if stage.kind == "probe":
            # One bucket's table plus a dereference chunk carved from it:
            # finer buckets shrink both, batches only the chunk.  The
            # resident count scales along (inert without a resident
            # join), so a hybrid plan keeps the same key range — and the
            # same pairs — in its partition pass.
            if self.buckets < MAX_BUCKETS:
                buckets = min(MAX_BUCKETS, self.buckets * 2)
                return replace(
                    self,
                    buckets=buckets,
                    resident_buckets=(
                        self.resident_buckets * buckets // self.buckets
                    ),
                )
        # Scan-join, unbuffered partition and merge stages — and a probe
        # at its finest buckets — hang on the batch alone.
        return halved_batch

    def _with_batch(self, batch_records: int) -> "JoinPlan":
        batch_records = max(MIN_BATCH_RECORDS, batch_records)
        threshold = self.spill_threshold
        if threshold is not None:
            threshold = max(batch_records, min(threshold, 4 * batch_records))
        return replace(
            self, batch_records=batch_records, spill_threshold=threshold
        )


@dataclass(frozen=True)
class FootprintEstimate:
    """What the model expects one join to cost in memory and disk."""

    #: Per-worker retained-object high-water mark, per pass (bytes),
    #: keyed by the pass plan's stage labels.
    per_pass_mem_bytes: Dict[str, float] = field(default_factory=dict)
    #: Max of the above — the number a worker budget is checked against.
    mem_high_water_bytes: float = 0.0
    #: All workers together (disks x per-worker high water).
    total_mem_bytes: float = 0.0
    #: Full on-disk reservation: base relations + spills + pairs.
    disk_bytes: float = 0.0
    #: The spill (temporary redistribution) share of ``disk_bytes``.
    spill_bytes: float = 0.0
    #: Model diagnostics (Ylru faults, urn premature replacements, ...).
    details: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "mem_high_water_bytes": int(self.mem_high_water_bytes),
            "total_mem_bytes": int(self.total_mem_bytes),
            "disk_bytes": int(self.disk_bytes),
            "spill_bytes": int(self.spill_bytes),
            "per_pass_mem_bytes": {
                label: int(value)
                for label, value in self.per_pass_mem_bytes.items()
            },
            "details": dict(self.details),
        }


def _segment_bytes(capacity: float, record_bytes: int) -> float:
    """On-disk reservation of one segment: header page + page-rounded data."""
    records = max(1, math.ceil(capacity))
    data = records * record_bytes
    return PAGE_SIZE + math.ceil(data / PAGE_SIZE) * PAGE_SIZE


@functools.lru_cache(maxsize=256)
def _premature_replacements(
    hashed_objects: int,
    buckets: int,
    frames: int,
    disks: int,
    objects_per_block: int,
) -> float:
    """The urn model's Grace estimate, memoised on its five integers.

    A ladder walk re-prices the plan at every rung, but these inputs move
    only when a rung doubles ``buckets``.
    """
    try:
        return grace_thrashing_estimate(
            hashed_objects=hashed_objects,
            buckets=buckets,
            frames=frames,
            disks=disks,
            objects_per_block=objects_per_block,
        ).premature_replacements
    except ValueError:
        return 0.0


def merge_fanin(
    worker_mem_budget_bytes: Optional[int],
    batch_records: int,
    r_bytes: int,
    s_bytes: int,
) -> Optional[int]:
    """How many sorted runs the merge holds open at once.

    The merge buffers one ``batch_records`` chunk per open run on top of
    one joined output batch, so the fan-in is whatever the fit target
    (``FIT_MARGIN`` x budget) leaves after that batch — never below two,
    or the merge could not make progress.  ``None`` (no budget) means
    unbounded: every run in one pass.  The kernel and the footprint model
    both call this, so the merge that runs is the merge that was priced.
    """
    if worker_mem_budget_bytes is None:
        return None
    spare = FIT_MARGIN * worker_mem_budget_bytes - batch_records * (
        r_bytes + s_bytes
    )
    return max(2, int(spare // (batch_records * r_bytes)))


def merge_passes(n_runs: int, fanin: Optional[int]) -> int:
    """Passes over the data to merge ``n_runs`` at ``fanin`` runs a time.

    ``ceil(log_fanin(n_runs))``, counted the way the kernel merges:
    groups of ``fanin`` consecutive runs become one run each until a
    single group is left for the final, joining pass.
    """
    passes = 1
    while fanin is not None and n_runs > fanin:
        n_runs = math.ceil(n_runs / fanin)
        passes += 1
    return passes


def predict_footprint(
    algorithm: str,
    workload,
    plan: JoinPlan,
    worker_mem_budget_bytes: Optional[int] = None,
) -> FootprintEstimate:
    """The model's memory/disk footprint for ``algorithm`` under ``plan``.

    ``workload`` is duck-typed: ``disks``, ``spec.s_bytes`` and
    ``relation_parameters()`` (which carries the *measured* skew, so a
    skewed pointer distribution inflates the worst partition exactly the
    way the paper's analyses do).  The estimate is assembled stage by
    stage from the algorithm's registered pass plan, so its ``per_pass``
    labels match the executor's.
    """
    pass_plan = _pass_plan(algorithm)
    relations = workload.relation_parameters()
    disks = workload.disks
    machine = MachineParameters(disks=disks)
    r = relations.r_bytes
    s = relations.s_bytes
    # Scan-join plans interleave probes with the scan; everything else
    # runs synchronized redistribution passes behind barriers.
    synchronized = not pass_plan.has_kind("scan-join")
    geometry = (
        synchronized_geometry(machine, relations)
        if synchronized
        else nested_loops_geometry(machine, relations)
    )
    r_i = geometry.r_i
    # Worst-partition inbound for the redistribution algorithms: the
    # barrier makes the most-skewed partition gate every pass.
    inbound = max(1.0, geometry.rs_i * relations.skew)
    # With rebalancing active the executor shards any partition whose
    # inbound exceeds REBALANCE_SKEW_CAP x the mean, so the worst *task*
    # of the shardable record/key stages sees a capped share.  Disk
    # totals and run counts are unchanged — sharding moves work, not
    # bytes.  Probe stages keep the raw skew: bucket shards bound task
    # *counts*, but the single worst bucket's table is indivisible.
    skew_eff = (
        min(relations.skew, REBALANCE_SKEW_CAP)
        if plan.rebalance != "off"
        else relations.skew
    )
    inbound_balanced = max(1.0, geometry.rs_i * skew_eff)
    batch = max(1, min(plan.batch_records, math.ceil(r_i)))
    irun_eff = max(1, min(plan.irun, math.ceil(inbound)))
    per_pass: Dict[str, float] = {}
    details: Dict[str, float] = {}
    spill_bytes = 0.0
    pairs_segments = 0

    base_bytes = disks * (
        _segment_bytes(r_i, r) + _segment_bytes(geometry.s_i, s)
    )
    frames = (
        worker_mem_budget_bytes / machine.page_size
        if worker_mem_budget_bytes
        else geometry.pages_r_i + geometry.pages_s_i
    )

    for stage in pass_plan.stages:
        if stage.emits in ("pairs", "both"):
            pairs_segments += 1
        if stage.kind == "scan-join":
            # Each batch retains its decoded R objects plus the
            # dereferenced S objects; worst case every pointer resolves
            # locally.
            per_pass[stage.label] = batch * r + batch * s
            if stage.spills:
                spill_bytes += disks * (disks - 1) * _segment_bytes(r_i, r)
            if "ylru_fault_pages" not in details:
                try:
                    details["ylru_fault_pages"] = ylru(
                        n_tuples=int(geometry.s_i) or 1,
                        t_pages=math.ceil(geometry.pages_s_i) or 1,
                        i_keys=int(geometry.s_i) or 1,
                        b_frames=max(1.0, frames),
                        x_lookups=geometry.r_ii,
                    )
                except ValueError:
                    details["ylru_fault_pages"] = 0.0
        elif stage.kind == "partition":
            if not stage.buffered:
                per_pass[stage.label] = batch * r
                spill_bytes += disks * disks * _segment_bytes(r_i, r)
                continue
            if plan.spill_threshold is None:
                retained = r_i
            else:
                retained = min(r_i, plan.spill_threshold + batch)
            estimate = max(retained, batch) * r
            if stage.resident_join and plan.effective_resident_buckets() > 0:
                # Resident buckets dereference their S partners during
                # the scan: one chunk of S objects rides on top of the
                # retained R buffer.
                estimate += batch * s
            per_pass[stage.label] = estimate
            # One laid-out file per (target, contributor), whatever the
            # spill threshold: flushes fill it in place.
            per_contributor = r_i / disks  # one contributor's share/target
            spill_bytes += disks * disks * _segment_bytes(per_contributor, r)
        elif stage.kind == "sort-run":
            n_runs = max(1, math.ceil(inbound / irun_eff))
            # Run building holds at most irun + one trailing batch before
            # a flush.
            per_pass[stage.label] = min(inbound_balanced, irun_eff + batch) * r
            spill_bytes += disks * (
                _segment_bytes(inbound, r) + (n_runs - 1) * PAGE_SIZE
            )
            details["merge_runs"] = float(n_runs)
        elif stage.kind == "merge":
            # Merging streams run batches lazily and retains only the
            # re-batched output plus its dereferenced S objects.  The
            # merged stream re-batches against *inbound* (which skew can
            # push past r_i), so its batch clamp must use inbound.
            merge_batch = max(
                1, min(plan.batch_records, math.ceil(inbound_balanced))
            )
            per_pass[stage.label] = merge_batch * (r + s)
            n_runs = int(details.get("merge_runs", 1.0))
            # Without a budget to bound it, every run is open at once.
            fanin = (
                merge_fanin(worker_mem_budget_bytes, plan.batch_records, r, s)
                or n_runs
            )
            passes = merge_passes(n_runs, fanin)
            details["merge_fanin"] = float(fanin)
            details["merge_passes"] = float(passes)
            if n_runs > 1:
                # The merge buffers one chunk per open run — ties
                # included, since a tie group streams through one run's
                # chunk.  A chunk never exceeds its run, and only
                # intermediate (merged) runs outgrow irun.
                chunk = merge_batch if passes > 1 else min(merge_batch, irun_eff)
                per_pass[stage.label] += min(n_runs, fanin) * chunk * r
            # Every extra pass rewrites the partition's inbound as
            # intermediate runs; a level is deleted once merged, so at
            # most two are on disk together.
            spill_bytes += disks * min(passes - 1, 2) * _segment_bytes(inbound, r)
        elif stage.kind == "probe":
            # Range bucketing splits near-evenly; allow 3 sigma of
            # multinomial wobble over the mean bucket population.  The
            # mean holds for hybrid too: the spilled fraction of inbound
            # spreads over the non-resident fraction of the buckets.
            bucket_mean = inbound / plan.buckets
            bucket_high = min(
                inbound, bucket_mean + 3.0 * math.sqrt(bucket_mean) + 1
            )
            # Dereference chunks are carved from one bucket, so they are
            # bounded by the bucket population as well as the batch knob.
            probe_chunk = max(
                1, min(plan.batch_records, math.ceil(bucket_high))
            )
            per_pass[stage.label] = bucket_high * r + probe_chunk * s
            if "grace_premature_replacements" not in details:
                details["grace_premature_replacements"] = (
                    _premature_replacements(
                        int(geometry.r_ii) or 1,
                        plan.buckets,
                        max(1, int(frames)),
                        disks,
                        max(1, machine.page_size // r),
                    )
                )
        else:  # pragma: no cover - registry validates stage kinds
            raise ValueError(f"no footprint model for stage kind {stage.kind!r}")

    pairs_bytes = pairs_segments * (
        disks * PAGE_SIZE
        + _segment_bytes(relations.r_objects, PAIR_RECORD_BYTES)
    )

    mem_high_water = max(per_pass.values())
    return FootprintEstimate(
        per_pass_mem_bytes=per_pass,
        mem_high_water_bytes=mem_high_water,
        total_mem_bytes=disks * mem_high_water,
        disk_bytes=base_bytes + spill_bytes + pairs_bytes,
        spill_bytes=spill_bytes,
        details=details,
    )


def descend(
    algorithm: str,
    workload,
    plan: JoinPlan,
    worker_mem_budget_bytes: Optional[int],
    binding: Sequence[str],
    resource: str = "memory",
) -> Optional[Tuple[JoinPlan, FootprintEstimate, dict]]:
    """Take one ladder rung: ``(lowered, its estimate, rung record)``.

    ``None`` at the ladder's floor.  The record is the
    ``totals.governor.rungs`` entry: which knob moved, from what to what,
    and the predicted high-water mark after it.  Admission
    (:func:`fit_plan`) and the executor's runtime degradation both
    descend through here, so every plan a run visits is priced once.
    """
    lowered = plan.degraded(algorithm, resource, binding)
    if lowered == plan:
        return None
    estimate = predict_footprint(
        algorithm, workload, lowered, worker_mem_budget_bytes
    )
    before = plan.as_dict()
    knob, after = next(
        (knob, value)
        for knob, value in lowered.as_dict().items()
        if value != before[knob]
    )
    record = {
        "knob": knob,
        "from": before[knob],
        "to": after,
        "predicted_high_water_bytes": int(estimate.mem_high_water_bytes),
    }
    return lowered, estimate, record


def fit_plan(
    algorithm: str,
    workload,
    plan: JoinPlan,
    worker_mem_budget_bytes: int,
    rungs: Optional[List[dict]] = None,
) -> Tuple[JoinPlan, int, FootprintEstimate]:
    """Walk the ladder until the predicted high-water mark fits the budget.

    Each rung shrinks the stage that currently sets the high-water mark,
    and the walk stops at the first plan that fits.  Returns ``(plan,
    rungs_descended, estimate)``; the rung records are appended to
    ``rungs`` when a list is passed.  If even the ladder's floor does not
    fit, the floored plan is returned — the runtime meter will then catch
    any true overrun and the runner decides whether to keep degrading or
    raise.
    """
    target = FIT_MARGIN * worker_mem_budget_bytes
    steps = 0
    estimate = predict_footprint(
        algorithm, workload, plan, worker_mem_budget_bytes
    )
    while estimate.mem_high_water_bytes > target:
        binding = [
            label
            for label, footprint in estimate.per_pass_mem_bytes.items()
            if footprint > (1 - RUNG_MIN_GAIN) * estimate.mem_high_water_bytes
        ]
        step = descend(
            algorithm, workload, plan, worker_mem_budget_bytes, binding
        )
        if step is None:
            break
        plan, estimate, record = step
        steps += 1
        if rungs is not None:
            rungs.append(record)
    return plan, steps, estimate
