"""The partitioner layer: pluggable bucket assignment for bucketed plans.

Grace and hybrid hash stand or fall on how R records are scattered to
their pointer-target partitions, yet that decision used to be smeared
across four layers — the scalar ``order_preserving_bucket`` in
:mod:`repro.joins.grace`, the scatter loops in
:mod:`repro.parallel.workers`, the argsort twins in
:mod:`repro.parallel.vectorized`, and a second equal-depth CDF in
:mod:`repro.parallel.engine.rebalance`.  This module is the single
abstraction they all call through: a :class:`Partitioner` maps a located
reference ``(target, offset)`` to a bucket, both one record at a time
(``bucket_of``) and over whole column batches (``bucket_array``), and
supplies the bucket-contiguous permutation (``order``) the vectorized
flush path groups with.

Three strategies are registered:

``hash``
    The paper's order-preserving range hash — a thin wrapper around
    ``order_preserving_bucket``, byte-identical to the pre-refactor
    output (same integer math scalar-side, same u64 expression and
    stable argsort vector-side).

``radix``
    A DPG-style cache-efficient scatter: buckets are the top bits of the
    local offset (still monotone in the offset, so the probe's
    sequential-S property holds), and the vectorized grouping runs as
    multiple stable passes over :data:`RADIX_BITS`-bit digits — each
    pass touches at most :data:`RADIX_FANOUT` output streams, a
    software-managed stand-in for keeping the scatter's working set
    inside one cache/TLB budget.

``learned``
    A monotone empirical-CDF model fit from sampled pointer keys before
    the partition pass runs.  Each record's offset is mapped to its
    interpolated *rank* in the sample and the rank to a bucket, so every
    bucket covers an equal-depth rank range — neutralizing zipf /
    partition_hot skew at partition time instead of post-hoc via
    rebalance shards.  A hot key owns a wide rank span; its records are
    spread uniformly across that span by ``mix(rid) % span`` — record
    ids are stable across retries and kernel modes, and pair correctness
    never depends on bucket assignment (every bucket's records are
    probed against the same S partition).

The learned model is *state*: the driver fits it once per round
(:func:`fit_learned_state`) and attaches it to every partition-stage
task it dispatches, so pool workers that forked before the run began,
and retried tasks after a fault, all see the identical model.

Module-level imports stay light (stdlib + numpy + stages), so
the governor can price partitioner scratch without dragging in storage.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import ClassVar, Dict, List, Optional, Sequence, Type

import numpy as _np

from repro.parallel.engine.stages import PARTITIONER_NAMES

#: Digit width of one vectorized radix pass; 2**RADIX_BITS output
#: streams per pass is the software-managed cache/TLB budget (64
#: streams ≈ one page-table walk set per pass, per the DPG framing).
RADIX_BITS = 6
RADIX_FANOUT = 1 << RADIX_BITS

#: Per-R-partition cap on pointer keys sampled when fitting the learned
#: CDF model (stride-sampled, so the sample spans the whole partition).
LEARNED_SAMPLES_PER_PARTITION = 2048


class PartitionerError(ValueError):
    """Raised for unknown partitioners or missing/mismatched fit state."""


# ---------------------------------------------------------- CDF helpers
#
# The equal-depth splitting primitives the rebalancer's key- and
# bucket-shard planners both delegate to (rebalance.py used to carry
# two private reimplementations with different tail rounding); they
# live here because they are the same empirical-CDF trick the learned
# partitioner builds on.


def cdf_quantiles(sorted_samples: Sequence[int], count: int) -> List[int]:
    """``count - 1`` equal-depth boundaries over a sorted sample.

    Boundary ``k`` is the sample at rank ``k·n // count`` — an empirical
    CDF inverse at the equal-depth quantiles.  Duplicate boundaries are
    *kept*: a value spanning several quantiles encodes a heavy hitter.
    (The rebalancer's key-shard planner dedupes the returned list
    itself, since record ranges cannot share a boundary.)
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


# --------------------------------------------------------- radix passes


def radix_shift(part_size: int, buckets: int) -> int:
    """Smallest right shift mapping ``[0, part_size)`` into ``< buckets``."""
    shift = 0
    top = max(0, part_size - 1)
    while (top >> shift) >= buckets:
        shift += 1
    return shift


def radix_order(bucket, buckets: int):
    """Stable bucket-contiguous permutation via LSD counting passes.

    Each pass stable-sorts one :data:`RADIX_BITS`-bit digit of the bucket
    id, so no pass ever scatters into more than :data:`RADIX_FANOUT`
    output streams; composing the passes least-significant-first yields
    exactly a stable sort by bucket.  For ``buckets <= RADIX_FANOUT``
    (the governor's default geometry) this is a single pass whose
    permutation is identical to ``np.argsort(bucket, kind="stable")``.
    """
    n = len(bucket)
    order = _np.arange(n, dtype=_np.int64)
    if n == 0 or buckets <= 1:
        return order
    keys = bucket.astype(_np.uint64, copy=False)
    mask = _np.uint64(RADIX_FANOUT - 1)
    top = buckets - 1
    shift = 0
    while True:
        digit = (keys[order] >> _np.uint64(shift)) & mask
        order = order[_np.argsort(digit, kind="stable")]
        shift += RADIX_BITS
        if (top >> shift) == 0:
            return order


# ----------------------------------------------------- the partitioners


class Partitioner:
    """Maps located references ``(target, offset)`` to bucket ids.

    ``part_sizes[target]`` is the S-partition size the offsets index
    into; ``buckets`` the fan-out.  Implementations must keep the scalar
    and vectorized paths element-wise identical — a property test pins
    this for every registered strategy.
    """

    name: ClassVar[str] = ""
    #: Whether :func:`resolve_partitioner` requires fitted state.
    requires_fit: ClassVar[bool] = False

    def __init__(
        self,
        part_sizes: Sequence[int],
        buckets: int,
        state: Optional[dict] = None,
    ) -> None:
        if buckets <= 0:
            raise PartitionerError(f"{self.name}: buckets must be positive")
        self.part_sizes = list(part_sizes)
        self.buckets = buckets
        self.state = state

    def bucket_of(self, target: int, offset: int, rid: int) -> int:
        raise NotImplementedError

    def bucket_array(self, parts, offs, rids):
        """u64 bucket ids for whole located-column batches."""
        raise NotImplementedError

    def order(self, bucket):
        """Stable bucket-contiguous permutation over a bucket column."""
        return radix_order(bucket, self.buckets)

    @classmethod
    def fit(cls, samples_by_target: Sequence[Sequence[int]], buckets: int) -> dict:
        """Fit run-scoped state from sampled offsets (stateless: ``{}``)."""
        return {"name": cls.name, "buckets": buckets}


class HashPartitioner(Partitioner):
    """The paper's order-preserving range hash (the pre-refactor path)."""

    name: ClassVar[str] = "hash"

    def __init__(self, part_sizes, buckets, state=None):
        super().__init__(part_sizes, buckets, state)
        # Late import: joins.grace pulls the sim-side error types; the
        # governor imports this module for pricing only and never
        # instantiates, so keep the module graph light.
        from repro.joins.grace import order_preserving_bucket

        self._bucket = order_preserving_bucket

    def bucket_of(self, target: int, offset: int, rid: int) -> int:
        return self._bucket(offset, self.part_sizes[target], self.buckets)

    def bucket_array(self, parts, offs, rids):
        sizes = _np.asarray(self.part_sizes, dtype=_np.uint64)[parts]
        return _np.minimum(
            offs * _np.uint64(self.buckets) // sizes,
            _np.uint64(self.buckets - 1),
        )

    def order(self, bucket):
        # Byte-identity contract: the exact permutation the pre-refactor
        # flush path used.
        return _np.argsort(bucket, kind="stable")


class RadixPartitioner(Partitioner):
    """Top-bits-of-offset buckets, grouped by cache-budgeted radix passes.

    ``offset >> shift`` with the per-target minimal shift is monotone in
    the offset — the order-preserving property Grace's probe chain
    relies on — while making bucket extraction a single shift and the
    vectorized grouping a sequence of bounded-fan-out passes.
    """

    name: ClassVar[str] = "radix"

    def __init__(self, part_sizes, buckets, state=None):
        super().__init__(part_sizes, buckets, state)
        self._shifts = [radix_shift(size, buckets) for size in self.part_sizes]

    def bucket_of(self, target: int, offset: int, rid: int) -> int:
        return min(offset >> self._shifts[target], self.buckets - 1)

    def bucket_array(self, parts, offs, rids):
        shifts = _np.asarray(self._shifts, dtype=_np.uint64)[parts]
        return _np.minimum(offs >> shifts, _np.uint64(self.buckets - 1))


class LearnedPartitioner(Partitioner):
    """Equal-depth buckets from a monotone empirical-CDF over sampled keys.

    ``state["model"][target]`` holds ``{"values", "cdf"}`` for that S
    partition's sample: the sorted *unique* offsets and the cumulative
    rank just below each (``cdf`` has one trailing entry — the sample
    size).  A record maps to the rank span its offset owns in the
    sample, a deterministic rank inside that span (``mix(rid) % span`` —
    a hot key's wide span spreads its records uniformly), and the rank
    to ``rank · buckets // total`` — so every bucket covers an
    equal-depth rank range, including through the middle of a heavy
    hitter.  Rank is monotone in the offset and the within-key spread is
    a function of the stable record id, so retries and both kernel modes
    agree record-by-record.
    """

    name: ClassVar[str] = "learned"
    requires_fit: ClassVar[bool] = True

    #: Fibonacci-hash multiplier for the within-span record spread.
    #: ``rid % span`` alone is biased: a hot key's record ids are
    #: roughly uniform over the whole scan, and when that range is not a
    #: multiple of the span the low residues are systematically heavier
    #: — mixing first makes the spread uniform to ~``span / 2**64``.
    _MIX = 0x9E3779B97F4A7C15
    _MASK = (1 << 64) - 1

    @classmethod
    def _mixed(cls, rid: int) -> int:
        h = (rid * cls._MIX) & cls._MASK
        return h ^ (h >> 32)

    def __init__(self, part_sizes, buckets, state=None):
        super().__init__(part_sizes, buckets, state)
        model = (state or {}).get("model")
        if model is None or len(model) != len(self.part_sizes):
            raise PartitionerError(
                "learned: fit state is missing the per-target CDF model"
            )
        self._values = [list(entry["values"]) for entry in model]
        self._cdf = [list(entry["cdf"]) for entry in model]
        for values, cdf in zip(self._values, self._cdf):
            if len(cdf) != len(values) + 1:
                raise PartitionerError("learned: malformed CDF model")
        self._values_np = [
            _np.asarray(v, dtype=_np.uint64) for v in self._values
        ]
        self._cdf_np = [_np.asarray(c, dtype=_np.uint64) for c in self._cdf]

    def _rank_to_bucket(self, rank: int, total: int) -> int:
        if not total:
            return 0
        return min(rank * self.buckets // total, self.buckets - 1)

    def bucket_of(self, target: int, offset: int, rid: int) -> int:
        values = self._values[target]
        cdf = self._cdf[target]
        lo = cdf[bisect_left(values, offset)]
        hi = cdf[bisect_right(values, offset)]
        rank = lo + self._mixed(rid) % max(1, hi - lo)
        return self._rank_to_bucket(rank, cdf[-1])

    def bucket_array(self, parts, offs, rids):
        out = _np.empty(len(offs), dtype=_np.uint64)
        buckets = _np.uint64(self.buckets)
        top = _np.uint64(self.buckets - 1)
        one = _np.uint64(1)
        for target in _np.unique(parts):
            mask = parts == target
            values = self._values_np[int(target)]
            cdf = self._cdf_np[int(target)]
            total = cdf[-1]
            if not total:
                out[mask] = 0
                continue
            offs_t = offs[mask]
            lo = cdf[_np.searchsorted(values, offs_t, side="left")]
            hi = cdf[_np.searchsorted(values, offs_t, side="right")]
            mixed = rids[mask].astype(_np.uint64) * _np.uint64(self._MIX)
            mixed = mixed ^ (mixed >> _np.uint64(32))
            rank = lo + mixed % _np.maximum(hi - lo, one)
            out[mask] = _np.minimum(rank * buckets // total, top)
        return out

    @classmethod
    def fit(cls, samples_by_target, buckets):
        model = []
        for samples in samples_by_target:
            ordered = sorted(samples)
            values: List[int] = []
            cdf: List[int] = []
            for rank, value in enumerate(ordered):
                if not values or value != values[-1]:
                    values.append(value)
                    cdf.append(rank)
            cdf.append(len(ordered))
            model.append({"values": values, "cdf": cdf})
        return {"name": cls.name, "buckets": buckets, "model": model}


# ------------------------------------------------------------- registry

_PARTITIONERS: Dict[str, Type[Partitioner]] = {}


def register_partitioner(cls: Type[Partitioner]) -> Type[Partitioner]:
    """Register one strategy; validates the class implements the protocol."""
    if not cls.name:
        raise PartitionerError(f"{cls.__name__}: partitioners need a name")
    if cls.name in _PARTITIONERS:
        raise PartitionerError(f"partitioner {cls.name!r} already registered")
    for method in ("bucket_of", "bucket_array", "order", "fit"):
        if not callable(getattr(cls, method, None)):
            raise PartitionerError(
                f"partitioner {cls.name!r} is missing {method}()"
            )
    _PARTITIONERS[cls.name] = cls
    return cls


register_partitioner(HashPartitioner)
register_partitioner(RadixPartitioner)
register_partitioner(LearnedPartitioner)

if tuple(_PARTITIONERS) != PARTITIONER_NAMES:  # pragma: no cover
    raise PartitionerError(
        f"registry {tuple(_PARTITIONERS)} does not match "
        f"stages.PARTITIONER_NAMES {PARTITIONER_NAMES}"
    )


def partitioner_names() -> tuple:
    """Every registered strategy, in registration order."""
    return tuple(_PARTITIONERS)


def partitioner_class(name: str) -> Type[Partitioner]:
    try:
        return _PARTITIONERS[name]
    except KeyError:
        raise PartitionerError(
            f"unknown partitioner {name!r}; choices: {tuple(_PARTITIONERS)}"
        ) from None


def resolve_partitioner(
    name: str,
    part_sizes: Sequence[int],
    buckets: int,
    state: Optional[dict] = None,
) -> Partitioner:
    """Build the named strategy for a kernel from the state it was sent.

    Kernels call this once per task; a fitted strategy whose state is
    missing or was fit for a different geometry fails loudly — silently
    falling back to another strategy would break the scalar-vs-vector
    bit-identity contract mid-run.
    """
    cls = partitioner_class(name)
    if not cls.requires_fit:
        return cls(part_sizes, buckets)
    if (
        state is None
        or state.get("name") != name
        or int(state.get("buckets", -1)) != buckets
    ):
        raise PartitionerError(
            f"partitioner {name!r} needs state fitted for buckets={buckets}; "
            f"got {state and state.get('name')!r}"
        )
    return cls(part_sizes, buckets, state)


# ------------------------------------------------------------- fitting


def fit_learned_state(store, disks: int, s_objects: int, buckets: int) -> dict:
    """Fit the learned CDF model by stride-sampling R's pointer keys.

    Driver-side, before the partition pass: up to
    :data:`LEARNED_SAMPLES_PER_PARTITION` pointers per R partition,
    stride-sampled so the sample spans the partition, located to
    ``(target, offset)`` and pooled per target.
    """
    from repro.core.pointer import PointerMap

    pmap = PointerMap(s_objects=s_objects, partitions=disks)
    samples: List[List[int]] = [[] for _ in range(disks)]
    for i in range(disks):
        with store.open_r(i) as rel:
            n = len(rel)
            if not n:
                continue
            take = min(LEARNED_SAMPLES_PER_PARTITION, n)
            sptrs = [rel.get(j * n // take).sptr for j in range(take)]
        for target, offset in pmap.locate_many(sptrs):
            samples[target].append(offset)
    return LearnedPartitioner.fit(samples, buckets)


# ----------------------------------------------------- governor pricing


def partition_scratch_bytes(
    name: str, *, disks: int, buckets: int, batch: int, retained: float
) -> float:
    """Extra scratch a strategy needs beyond the hash baseline.

    ``radix`` — the permutation index plus digit lane over the retained
    flush blob, and one per-digit histogram per pass; ``learned`` — the
    per-target CDF model (values + ranks at the sampling cap) plus the
    per-batch rank/span/bucket lanes.  ``hash`` prices at zero: it *is*
    the baseline the partition stage's footprint already charges.
    """
    if name == "radix":
        return 16.0 * max(1.0, retained) + 8.0 * RADIX_FANOUT
    if name == "learned":
        return (
            16.0 * disks * LEARNED_SAMPLES_PER_PARTITION
            + 24.0 * max(1, batch)
        )
    return 0.0
