"""Virtual-pointer arithmetic over the partitioned inner relation.

S is partitioned across the ``D`` disks into equal-sized partitions
``S1 ... SD`` (paper section 4), and "the containing partition for an
object of S can be computed, in time ``map``, from a pointer to that
object".  :class:`PointerMap` is that computation: global S index to
``(partition, offset)`` and back.

When ``|S|`` does not divide evenly, the first ``|S| mod D`` partitions
hold one extra object, keeping partition sizes within one of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as _np


class PointerError(ValueError):
    """Raised for out-of-range virtual pointers."""


@dataclass(frozen=True)
class PointerMap:
    """Maps global S indices to (partition, local offset) pairs."""

    s_objects: int
    partitions: int

    def __post_init__(self) -> None:
        if self.s_objects <= 0:
            raise PointerError("S must contain at least one object")
        if self.partitions <= 0:
            raise PointerError("there must be at least one partition")

    @property
    def _base(self) -> int:
        return self.s_objects // self.partitions

    @property
    def _remainder(self) -> int:
        return self.s_objects % self.partitions

    def partition_size(self, partition: int) -> int:
        """Number of S-objects in the given partition."""
        self._check_partition(partition)
        return self._base + (1 if partition < self._remainder else 0)

    def partition_start(self, partition: int) -> int:
        """Global index of the first S-object in the partition."""
        self._check_partition(partition)
        return self._base * partition + min(partition, self._remainder)

    def partition_of(self, sptr: int) -> int:
        """The paper's ``MAP(sptr)``: which partition holds the object."""
        self._check_pointer(sptr)
        base, rem = self._base, self._remainder
        boundary = (base + 1) * rem  # first index of the base-sized partitions
        if sptr < boundary:
            return sptr // (base + 1)
        return rem + (sptr - boundary) // base if base else rem

    def offset_of(self, sptr: int) -> int:
        """Local offset of the object within its partition."""
        return sptr - self.partition_start(self.partition_of(sptr))

    def locate(self, sptr: int) -> tuple[int, int]:
        """(partition, offset) of a global pointer."""
        partition = self.partition_of(sptr)
        return partition, sptr - self.partition_start(partition)

    # ------------------------------------------------------------- batches
    #
    # The scalar methods above pay property lookups and range checks per
    # call, which dominates the real backend's redistribution passes.  The
    # batch forms hoist the partition geometry into locals, validate the
    # whole batch with one min/max, and run the arithmetic in a single
    # comprehension.

    def locate_many(self, sptrs: Sequence[int]) -> list[tuple[int, int]]:
        """(partition, offset) for a whole batch of global pointers."""
        if not sptrs:
            return []
        if min(sptrs) < 0 or max(sptrs) >= self.s_objects:
            raise PointerError(
                f"pointer outside [0, {self.s_objects}) in batch"
            )
        base, rem = self._base, self._remainder
        boundary = (base + 1) * rem
        out: list[tuple[int, int]] = []
        append = out.append
        for sptr in sptrs:
            if sptr < boundary:
                partition = sptr // (base + 1)
                append((partition, sptr - partition * (base + 1)))
            else:
                spill = sptr - boundary
                local = spill // base if base else 0
                append((rem + local, spill - local * base))
        return out

    def offset_many(self, sptrs: Sequence[int]) -> list[int]:
        """Local offsets for a whole batch of global pointers."""
        if not sptrs:
            return []
        if min(sptrs) < 0 or max(sptrs) >= self.s_objects:
            raise PointerError(
                f"pointer outside [0, {self.s_objects}) in batch"
            )
        base, rem = self._base, self._remainder
        boundary = (base + 1) * rem
        out: list[int] = []
        append = out.append
        for sptr in sptrs:
            if sptr < boundary:
                append(sptr % (base + 1))
            else:
                spill = sptr - boundary
                append(spill % base if base else spill)
        return out

    # ------------------------------------------------------------- arrays
    #
    # The vectorized kernel path: same geometry over whole u64 arrays.  A
    # pointer's partition is the last one starting at or before it — one
    # binary search over the D partition starts per pointer.

    @cached_property
    def _starts(self):
        return _np.array(
            [self.partition_start(p) for p in range(self.partitions)],
            dtype=_np.uint64,
        )

    def locate_array(self, sptrs) -> tuple:
        """(partitions, offsets) for a u64 pointer array: intp and u64."""
        if len(sptrs) and int(sptrs.max()) >= self.s_objects:
            raise PointerError(
                f"pointer outside [0, {self.s_objects}) in batch"
            )
        parts = _np.searchsorted(self._starts, sptrs, side="right") - 1
        return parts, sptrs - self._starts[parts]

    def offset_array(self, sptrs):
        """Local offsets (u64 array) for a batch of pointers."""
        return self.locate_array(sptrs)[1]

    def global_index(self, partition: int, offset: int) -> int:
        """Inverse of :meth:`locate`."""
        if not 0 <= offset < self.partition_size(partition):
            raise PointerError(
                f"offset {offset} outside partition {partition} "
                f"(size {self.partition_size(partition)})"
            )
        return self.partition_start(partition) + offset

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.partitions:
            raise PointerError(
                f"partition {partition} outside [0, {self.partitions})"
            )

    def _check_pointer(self, sptr: int) -> None:
        if not 0 <= sptr < self.s_objects:
            raise PointerError(f"pointer {sptr} outside [0, {self.s_objects})")
