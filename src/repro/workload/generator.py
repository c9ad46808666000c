"""Workload generation: build the R and S relations of a join experiment.

The paper's validation workload is two relations of 102,400 objects of 128
bytes each, partitioned over 4 disks, with uniformly random join pointers.
:func:`generate_workload` reproduces that (and variations) deterministically
from a seed, and the resulting :class:`Workload` knows how to describe
itself to the analytical model (:meth:`Workload.relation_parameters`),
including its *measured* partition skew.

A workload is held the way the store holds it: the three u64 header fields
of every record as column arrays, so materializing, measuring skew and
computing the oracle checksum are array hand-offs.  ``RObject`` /
``SObject`` lists exist only as views the simulator asks for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core import partition as _partition
from repro.core.pointer import PointerMap
from repro.core.records import RObject, SObject
from repro.model.parameters import RelationParameters
from repro.workload.distributions import sampler
from repro.workload.draws import WordStream


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a join workload."""

    r_objects: int = 102_400
    s_objects: int = 102_400
    r_bytes: int = 128
    s_bytes: int = 128
    sptr_bytes: int = 8
    distribution: str = "uniform"
    distribution_args: Dict[str, float] = field(default_factory=dict)
    seed: int = 96

    def __post_init__(self) -> None:
        if self.r_objects <= 0 or self.s_objects <= 0:
            raise ValueError("relation cardinalities must be positive")
        if self.r_bytes <= 0 or self.s_bytes <= 0:
            raise ValueError("object sizes must be positive")

    @classmethod
    def paper_validation(cls, scale: float = 1.0, seed: int = 96) -> "WorkloadSpec":
        """The section-8 validation workload, optionally scaled down.

        ``scale = 1.0`` is the paper's full 102,400-object experiment;
        smaller scales keep the object size and distribution while shrinking
        both relations proportionally (handy for CI-speed runs).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        objects = max(64, int(102_400 * scale))
        return cls(r_objects=objects, s_objects=objects, seed=seed)


class RColumns(NamedTuple):
    """One R partition in store order: three parallel u64 arrays."""

    rid: np.ndarray
    sptr: np.ndarray
    payload: np.ndarray


@dataclass(frozen=True, eq=False)
class Workload:
    """A fully-materialized workload, partitioned for ``D`` processes.

    S is positional — ``s_value[j]`` / ``s_payload[j]`` belong to the object
    whose ``sid`` is ``j`` — and every array is read-only, so what is
    measured once about a workload (its skew) stays true.
    """

    spec: WorkloadSpec
    disks: int
    r_columns: Tuple[RColumns, ...]
    s_value: np.ndarray
    s_payload: np.ndarray
    pointer_map: PointerMap

    def __post_init__(self) -> None:
        for array in (self.s_value, self.s_payload, *sum(self.r_columns, ())):
            array.flags.writeable = False

    @property
    def r_objects_total(self) -> int:
        return sum(len(columns.rid) for columns in self.r_columns)

    @property
    def s_objects_total(self) -> int:
        return len(self.s_value)

    def r_flat(self) -> RColumns:
        """All of R as one (rid, sptr, payload) triple, in partition order."""
        return RColumns(*(np.concatenate(column) for column in zip(*self.r_columns)))

    def s_columns(self, partition: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Partition ``partition`` of S as (sid, value, payload) columns."""
        start = self.pointer_map.partition_start(partition)
        stop = start + self.pointer_map.partition_size(partition)
        return (
            np.arange(start, stop, dtype=np.uint64),
            self.s_value[start:stop],
            self.s_payload[start:stop],
        )

    # ---------------------------------------------------------- object views
    #
    # Built on first access and kept: the simulator and the scalar oracle
    # want objects; the real backend, the governor and the daemon never ask.

    @cached_property
    def s_objects(self) -> List[SObject]:
        return list(map(
            SObject._make,
            zip(range(len(self.s_value)), self.s_value.tolist(),
                self.s_payload.tolist()),
        ))

    @cached_property
    def r_partitions(self) -> List[List[RObject]]:
        return [
            list(map(RObject._make, zip(*(column.tolist() for column in columns))))
            for columns in self.r_columns
        ]

    def s_partition(self, partition: int) -> List[SObject]:
        start = self.pointer_map.partition_start(partition)
        size = self.pointer_map.partition_size(partition)
        return self.s_objects[start : start + size]

    # ------------------------------------------------------------ the model

    @cached_property
    def _skew(self) -> float:
        return _partition.column_skew(
            [columns.sptr for columns in self.r_columns], self.pointer_map
        )

    def measured_skew(self) -> float:
        """The paper's skew statistic, measured (once) on the actual pointers."""
        return self._skew

    def relation_parameters(self, measured_skew: bool = True) -> RelationParameters:
        """Describe this workload to the analytical model."""
        return RelationParameters(
            r_objects=self.r_objects_total,
            s_objects=self.s_objects_total,
            r_bytes=self.spec.r_bytes,
            s_bytes=self.spec.s_bytes,
            sptr_bytes=self.spec.sptr_bytes,
            skew=self.measured_skew() if measured_skew else 1.0,
        )

    def expected_pairs(self) -> List[tuple[int, int]]:
        """The correct join output as (rid, sid) pairs — the test oracle.

        Every R-object joins exactly the S-object its pointer names, so the
        oracle is immediate from the workload itself.
        """
        rid, sptr, _payload = self.r_flat()
        return list(zip(rid.tolist(), sptr.tolist()))


def generate_workload(spec: WorkloadSpec, disks: int) -> Workload:
    """Materialize a workload for a ``disks``-way parallel join.

    The draw order from ``random.Random(spec.seed)`` is part of the format
    (a seed names the same objects on every version): S's value then
    payload per object, the sampler's pointers, one payload per pointer,
    then the shuffle.  The draws are not made one call at a time: each
    stage reads the same Mersenne Twister words from the same
    ``random.Random`` in bulk and applies the per-call rules to them with
    numpy (:mod:`repro.workload.draws`), so the arrays are the ones the
    per-call draws made.

    Draws stream straight into their arrays and every intermediate is
    dropped as soon as its array exists, so the peak stays near the size
    of the result.  The daemon generates on a connection thread, and what
    a thread's allocator arena peaked at stays resident after the thread
    is gone — and is inherited by every pool worker forked later.
    """
    if disks <= 0:
        raise ValueError("disks must be positive")
    rng = random.Random(spec.seed)
    with WordStream(rng) as words:
        s_value, s_payload = words.alternating(1_000_000, 1 << 30, spec.s_objects)

    sample = sampler(spec.distribution)
    sptr = sample(rng, spec.r_objects, spec.s_objects, **spec.distribution_args)
    count = len(sptr)
    # Shuffle before splitting so positional partitioning is random
    # assignment, matching the paper's "randomly distributed" premise —
    # unless the sampler declares that R's order is part of the
    # distribution (clustered runs would be destroyed by a shuffle).
    # Shuffling an index array draws exactly what shuffling the objects did.
    with WordStream(rng) as words:
        payload = words.randbelow(1 << 30, count)
        if getattr(sample, "order_matters", False):
            rid = np.arange(count, dtype=np.uint64)
        else:
            order = words.shuffled(count)
            sptr, payload = sptr[order], payload[order]
            rid = order.astype(np.uint64)
            del order

    return Workload(
        spec=spec,
        disks=disks,
        r_columns=tuple(
            RColumns(*columns)
            for columns in zip(
                *(_partition.split_evenly(c, disks) for c in (rid, sptr, payload))
            )
        ),
        s_value=s_value,
        s_payload=s_payload,
        pointer_map=PointerMap(s_objects=spec.s_objects, partitions=disks),
    )
