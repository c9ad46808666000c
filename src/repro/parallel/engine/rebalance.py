"""Per-partition size rebalancing for the pass-plan executor.

The paper's cost model makes *skew* — the largest partition relative to
the mean — the gating term of every synchronized algorithm: a pass ends
when its slowest task does.  This module is the executor's answer.  Just
before a rebalance-capable stage is dispatched, the inbound sizes every
partition is about to process are *measured* from the previous barrier
(RS spill and bucket files sized by a header-page read, sorted runs by
what their sort-run tasks returned — never a data scan), and oversized
partitions are split into
:class:`~repro.parallel.engine.task.Shard` tasks along the stage's
declared axis:

* ``"records"`` — positional ranges over the inbound record stream
  (sort-merge's run-formation pass, nested loops' spill-join pass);
* ``"keys"`` — sorted-pointer key ranges, equal-depth over a cheap CDF
  fitted to keys sampled from the partition's sorted runs (quantiles
  of a key sample are the range boundaries that make every shard the
  same depth).  Each cutter samples its own runs as it writes them and
  returns the keys with its result, so the driver opens no run;
* ``"buckets"`` — contiguous hash-bucket ranges, equal-depth over the
  *exact* per-bucket histogram read from the bucket directories (small
  "dustbin" buckets coalesce into shared ranges; hot buckets isolate).

Splitting never rewrites a file: shards read disjoint slices of the same
published inputs and publish disjoint outputs (``_s<k>``-suffixed PAIRS
and RUN segments), so the union of shard outputs is
record-identical to the unsharded task's — the order-independent pair
checksum makes bit-identity checkable per pass.

The decision is a pure function of measured sizes and the plan's
``rebalance`` mode, so a retried or degraded round re-plans from the
same artifacts and lands on the same shards (a resumed one from the key
samples its checkpoint recorded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.parallel.engine.stages import Stage
from repro.parallel.engine.task import (
    RunCut,
    Shard,
    bucket_spill_paths,
    nl_spill_name,
    rs_name,
)
from repro.storage.relation import BucketedRFile
from repro.storage.segment import MappedSegment
from repro.storage.store import Store

#: The per-plan rebalance knob's legal values: ``"off"`` never shards,
#: ``"auto"`` shards only when the measured imbalance crosses
#: :data:`REBALANCE_RATIO`, ``"on"`` force-shards every non-empty
#: partition (the bit-identity proof mode).
REBALANCE_MODES = ("off", "auto", "on")

#: ``max(sizes) / mean(sizes)`` at or above which ``"auto"`` rebalances.
REBALANCE_RATIO = 1.5

#: Upper bound on shards per partition — more tasks than pool workers
#: buys nothing past small multiples.
REBALANCE_MAX_SHARDS = 8

#: Key-CDF sampling budget: at most this many runs per partition...
KEY_SAMPLE_RUNS = 8
#: ...and this many keys per sampled run.
KEY_SAMPLES_PER_RUN = 64

#: Open upper bound for the last key-range shard (sptrs are S indices,
#: always far below this).
KEY_SENTINEL = 1 << 63


def key_sample_positions(n: int) -> List[int]:
    """Where a sorted run of ``n`` records is sampled: evenly spaced ranks.

    Positionally-even samples of a sorted run are a stratified sample of
    its key distribution.  Cutters read the keys at these ranks out of
    each run they write and return them in their :class:`RunCut`.
    """
    take = min(KEY_SAMPLES_PER_RUN, n)
    return [j * n // take for j in range(take)]


class RunKeys(NamedTuple):
    """One partition's sorted runs as the ``keys`` axis sees them."""

    #: Records across the partition's runs — its merge stage's size.
    records: int
    #: The pooled, sorted key sample the equal-depth cuts are taken from.
    samples: List[int]


def gather_run_keys(
    partitions: Sequence[int], cuts: Sequence[RunCut], disks: int
) -> List[RunKeys]:
    """Each partition's :class:`RunKeys` from its sort-run tasks' results.

    ``cuts[k]`` came from a task of ``partitions[k]``; a partition's tasks
    arrive in shard order, so its runs line up in inbound order.  At most
    :data:`KEY_SAMPLE_RUNS` evenly spaced runs are pooled.
    """
    records = [0] * disks
    runs: List[List[List[int]]] = [[] for _ in range(disks)]
    for partition, cut in zip(partitions, cuts):
        records[partition] += cut.moved
        runs[partition].extend(cut.samples)
    keys = []
    for partition in range(disks):
        step = max(1, len(runs[partition]) // KEY_SAMPLE_RUNS)
        pooled = [
            key
            for run in runs[partition][::step][:KEY_SAMPLE_RUNS]
            for key in run
        ]
        keys.append(RunKeys(records[partition], sorted(pooled)))
    return keys


class RebalanceError(ValueError):
    """Raised for an unknown rebalance mode or malformed stage wiring."""


def validate_rebalance_mode(mode: str) -> str:
    if mode not in REBALANCE_MODES:
        raise RebalanceError(
            f"unknown rebalance mode {mode!r}; choices: {REBALANCE_MODES}"
        )
    return mode


@dataclass
class StageRebalance:
    """One stage's rebalance decision plus the numbers behind it."""

    axis: str
    #: Measured inbound record count per partition.
    sizes: List[int]
    #: Per partition: the shard list (len >= 2) or None (run unsharded).
    shards: List[Optional[List[Shard]]]
    #: Estimated per-task record counts after sharding (unsharded
    #: partitions contribute their whole size).
    task_sizes: List[int]

    @property
    def splits(self) -> int:
        return sum(1 for s in self.shards if s)

    @property
    def sharded(self) -> bool:
        return self.splits > 0

    #: Records assigned to shards other than each split partition's
    #: first — the work "moved off" the task that used to gate the pass.
    moved_records: int = 0

    def report(self) -> dict:
        """The stats document's per-pass ``rebalance`` block."""
        total = sum(self.sizes)
        mean = total / max(1, len(self.sizes))
        pre_ratio = (max(self.sizes) / mean) if total else 1.0
        tasks = len(self.task_sizes)
        task_mean = total / max(1, tasks)
        post_ratio = (
            (max(self.task_sizes) / task_mean) if total and tasks else 1.0
        )
        return {
            "axis": self.axis,
            "splits": self.splits,
            "tasks": tasks,
            "moved_records": self.moved_records,
            "pre_ratio": round(pre_ratio, 4),
            "post_ratio": round(post_ratio, 4),
        }


def _shard_counts(
    sizes: List[int], mode: str, max_shards: int
) -> List[int]:
    """How many shards each partition should split into.

    ``auto`` splits proportionally to each partition's excess over the
    mean; ``on`` forces at least two shards per non-empty partition and
    doubles the proportional count, so even mild imbalance exercises the
    shard paths (and per-task sizes land near ``mean / 2``).
    """
    total = sum(sizes)
    if not total:
        return [1] * len(sizes)
    mean = total / len(sizes)
    counts = []
    for size in sizes:
        if not size:
            counts.append(1)
        elif mode == "on":
            counts.append(max(2, min(max_shards, round(2 * size / mean))))
        else:
            counts.append(max(1, min(max_shards, round(size / mean))))
    return counts


def plan_stage_rebalance(
    store: Store,
    stage: Stage,
    disks: int,
    mode: str,
    buckets: int,
    max_shards: int = REBALANCE_MAX_SHARDS,
    *,
    run_keys: Optional[Sequence[RunKeys]] = None,
) -> Optional[StageRebalance]:
    """Measure a stage's inbound sizes and decide its shards.

    Returns None when the stage is not rebalance-capable or the mode is
    ``"off"``; otherwise a :class:`StageRebalance` (possibly with zero
    splits — the stats document still records the measured ratio).  A
    ``keys``-axis stage plans from ``run_keys``, what the sort-run tasks
    before it returned (:func:`gather_run_keys`).
    """
    axis = stage.rebalance
    if axis is None or mode == "off":
        return None
    validate_rebalance_mode(mode)
    if axis == "records":
        sizes = _record_inbound_sizes(store, stage.kernel, disks)
        histograms = None
    elif axis == "keys":
        if run_keys is None:
            raise RebalanceError(
                f"stage {stage.label!r} splits by keys but no sort-run "
                "key samples were gathered"
            )
        sizes = [keys.records for keys in run_keys]
        histograms = None
    else:  # buckets
        histograms = [
            _bucket_histogram(store, i, disks, buckets) for i in range(disks)
        ]
        sizes = [sum(h) for h in histograms]

    total = sum(sizes)
    decision = StageRebalance(
        axis=axis, sizes=sizes, shards=[None] * disks, task_sizes=list(sizes)
    )
    if not total:
        return decision
    mean = total / disks
    if mode == "auto" and max(sizes) / mean < REBALANCE_RATIO:
        return decision

    counts = _shard_counts(sizes, mode, max_shards)
    shards: List[Optional[List[Shard]]] = []
    task_sizes: List[int] = []
    moved = 0
    for i in range(disks):
        part: Optional[List[Shard]] = None
        if counts[i] >= 2:
            if axis == "records":
                part = _record_shards(sizes[i], counts[i])
            elif axis == "keys":
                part = _key_shards(run_keys[i].samples, counts[i])
            else:
                part = _bucket_shards(histograms[i], counts[i])
            if not part or len(part) < 2:
                part = None
        shards.append(part)
        if part is None:
            task_sizes.append(sizes[i])
            continue
        if axis == "records":
            per_shard = [s.hi - s.lo for s in part]
        elif axis == "keys":
            # Equal-depth by construction; the exact counts are only
            # known after the shards run.
            per_shard = [sizes[i] // len(part)] * len(part)
        else:
            per_shard = [sum(histograms[i][s.lo:s.hi]) for s in part]
        task_sizes.extend(per_shard)
        moved += sizes[i] - per_shard[0]
    decision.shards = shards
    decision.task_sizes = task_sizes
    decision.moved_records = moved
    return decision


# ----------------------------------------------------------- measurement

def _record_inbound_sizes(store: Store, kernel: str, disks: int) -> List[int]:
    """Per-partition inbound record counts for a record-axis stage.

    The input files are the previous barrier's published spills; which
    ones feed which kernel is part of the artifact naming scheme
    (:mod:`repro.parallel.engine.task`), mirrored here.
    """
    sizes = []
    for i in range(disks):
        if kernel == "sort_merge_runs":
            paths = [
                store.path(i, rs_name(i, contributor))
                for contributor in range(disks)
            ]
        elif kernel == "nested_loops_pass1":
            paths = [
                store.path(i, nl_spill_name(i, (i + t) % disks))
                for t in range(1, disks)
            ]
        else:
            raise RebalanceError(
                f"no record-axis input enumeration for kernel {kernel!r}"
            )
        sizes.append(
            sum(
                MappedSegment.record_count(path)
                for path in paths
                if path.exists()
            )
        )
    return sizes


def _bucket_histogram(
    store: Store, partition: int, disks: int, buckets: int
) -> List[int]:
    """Exact per-bucket inbound counts from the bucket directories.

    Header-page reads only: the probe tasks verify the payloads they
    map, so a driver-side CRC of every spill here would be a second,
    serial pass over bytes no worker shares a verified-file memo for.
    """
    histogram = [0] * buckets
    for contributor in range(disks):
        for path in bucket_spill_paths(store, partition, contributor):
            counts = BucketedRFile.bucket_counts(path)
            for bucket, count in enumerate(counts[:buckets]):
                histogram[bucket] += count
    return histogram


# -------------------------------------------------------- shard geometry

def cdf_quantiles(sorted_samples: Sequence[int], count: int) -> List[int]:
    """``count - 1`` equal-depth boundaries over a sorted sample.

    Boundary ``k`` is the sample at rank ``k·n // count`` — an empirical
    CDF inverse at the equal-depth quantiles.  Duplicate boundaries are
    *kept*: a value spanning several quantiles encodes a heavy hitter
    (:func:`_key_shards` dedupes the returned list itself, since record
    ranges cannot share a boundary).
    """
    if count <= 1 or not sorted_samples:
        return []
    n = len(sorted_samples)
    return [sorted_samples[min(n - 1, k * n // count)] for k in range(1, count)]


def equal_depth_cuts(weights: Sequence[int], count: int) -> List[int]:
    """Cut positions splitting ``weights`` into ≤ ``count`` equal-depth ranges.

    Returns ``[0, ..., len(weights)]`` — contiguous half-open ranges over
    the weight indices, cutting after index ``i`` once the cumulative
    weight crosses the next ``k/count`` fraction of the total.  A single
    index heavy enough to cross several fractions is never split (a
    bucket is atomic); the walk just swallows the crossed fractions and
    keeps cutting for the remainder, so a hot bucket costs one wide
    range rather than starving the tail.
    """
    total = sum(weights)
    if count <= 1 or total <= 0 or len(weights) < 2:
        return [0, len(weights)]
    cuts = [0]
    cum = 0
    k = 1
    for index, weight in enumerate(weights[:-1]):
        cum += weight
        crossed = False
        while k < count and cum * count >= k * total:
            k += 1
            crossed = True
        if crossed and index + 1 > cuts[-1]:
            cuts.append(index + 1)
        if k >= count:
            break
    cuts.append(len(weights))
    return cuts


def _record_shards(size: int, count: int) -> List[Shard]:
    """Equal positional slices of ``size`` records."""
    bounds = [size * k // count for k in range(count + 1)]
    shards = [
        (bounds[k], bounds[k + 1])
        for k in range(count)
        if bounds[k] < bounds[k + 1]
    ]
    return [
        Shard(index=k, count=len(shards), lo=lo, hi=hi)
        for k, (lo, hi) in enumerate(shards)
    ]


def _key_shards(samples: Sequence[int], count: int) -> List[Shard]:
    """Equal-depth key ranges from a sorted, pooled run-key sample.

    The pooled sample's quantiles are the equal-depth boundaries.
    Duplicate boundaries (a single hot key spanning a quantile) collapse
    into fewer, wider shards rather than empty ones.
    """
    if not samples:
        return []
    boundaries = [0]
    for boundary in cdf_quantiles(samples, count):
        if boundary > boundaries[-1]:
            boundaries.append(boundary)
    boundaries.append(KEY_SENTINEL)
    return [
        Shard(
            index=k,
            count=len(boundaries) - 1,
            lo=boundaries[k],
            hi=boundaries[k + 1],
        )
        for k in range(len(boundaries) - 1)
    ]


def _bucket_shards(histogram: List[int], count: int) -> List[Shard]:
    """Equal-depth contiguous bucket ranges over the exact histogram.

    Cut placement is the global-CDF walk of :func:`equal_depth_cuts`.
    Trailing empty buckets ride along with the final range; dustbin
    buckets (far below target depth) naturally coalesce into one shard.
    """
    total = sum(histogram)
    if not total or len(histogram) < 2:
        return []
    cuts = equal_depth_cuts(histogram, count)
    ranges: List[Tuple[int, int]] = list(zip(cuts, cuts[1:]))
    if len(ranges) < 2:
        return []
    return [
        Shard(index=k, count=len(ranges), lo=a, hi=b)
        for k, (a, b) in enumerate(ranges)
    ]
