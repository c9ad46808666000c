"""Partitioning helpers and the paper's skew measure (section 4).

``Ri,j`` is the subset of partition ``Ri`` whose join attributes point into
``Sj``.  The skew of a partitioning is
``skew = max_j |Ri,j| / (|Ri| / D)`` — how much the largest sub-partition
exceeds an even split — and it enters the cost models differently for the
synchronized and unsynchronized algorithms.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.core.pointer import PointerMap
from repro.core.records import RObject


def classify_by_target(
    r_objects: Iterable[RObject], pointer_map: PointerMap
) -> List[List[RObject]]:
    """Split one R partition into its ``Ri,j`` sub-partitions."""
    groups: List[List[RObject]] = [[] for _ in range(pointer_map.partitions)]
    for obj in r_objects:
        groups[pointer_map.partition_of(obj.sptr)].append(obj)
    return groups


def sub_partition_counts(
    r_objects: Iterable[RObject], pointer_map: PointerMap
) -> List[int]:
    """``|Ri,j|`` for each j, without materializing the groups."""
    counts = [0] * pointer_map.partitions
    for obj in r_objects:
        counts[pointer_map.partition_of(obj.sptr)] += 1
    return counts


def partition_skew(counts: Sequence[int]) -> float:
    """Skew of one partition's sub-partition counts."""
    total = sum(counts)
    if total == 0:
        return 1.0
    even_share = total / len(counts)
    return max(counts) / even_share


def workload_skew(
    r_partitions: Sequence[Sequence[RObject]], pointer_map: PointerMap
) -> float:
    """Worst-case skew across all R partitions (gates the slowest process)."""
    worst = 1.0
    for partition in r_partitions:
        counts = sub_partition_counts(partition, pointer_map)
        worst = max(worst, partition_skew(counts))
    return worst


def column_skew(sptr_columns: Sequence[np.ndarray], pointer_map: PointerMap) -> float:
    """:func:`workload_skew` over per-partition u64 pointer columns.

    One ``locate_array`` + ``bincount`` per partition instead of a Python
    call per object; the counts go through the same :func:`partition_skew`
    arithmetic, so the two agree exactly (``workload_skew`` stays as the
    simulator's scalar reference).
    """
    worst = 1.0
    for sptr in sptr_columns:
        targets = pointer_map.locate_array(sptr)[0].astype(np.int64)
        counts = np.bincount(targets, minlength=pointer_map.partitions)
        worst = max(worst, partition_skew(counts.tolist()))
    return worst


def split_evenly(objects: Sequence, partitions: int) -> List:
    """Divide R into equal-sized partitions (within one object).

    The paper assumes R "is also divided into equal-sized partitions"; the
    split is by position, which for a randomly-generated R is equivalent to
    a random assignment.  Each partition is a slice of ``objects``: a new
    list for a list, a view for a column array.
    """
    if partitions <= 0:
        raise ValueError("need at least one partition")
    base, remainder = divmod(len(objects), partitions)
    out = []
    cursor = 0
    for i in range(partitions):
        size = base + (1 if i < remainder else 0)
        out.append(objects[cursor : cursor + size])
        cursor += size
    return out
