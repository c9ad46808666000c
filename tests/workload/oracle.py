"""The reference generator: one ``random.Random`` call per draw.

This is the workload generator as it was written before it read its
Mersenne Twister words in bulk.  Its draw order *is* the workload format,
so ``repro.workload`` must produce exactly these arrays and leave ``rng``
exactly where these functions leave it.  Tests compare against it; nothing
in ``src/`` imports it.
"""

from __future__ import annotations

import math
import random
from typing import List

import numpy as np

from repro.core import partition as _partition
from repro.core.pointer import PointerMap
from repro.workload.generator import RColumns, Workload, WorkloadSpec


def uniform_pointers(rng: random.Random, count: int, s_objects: int) -> List[int]:
    return [rng.randrange(s_objects) for _ in range(count)]


def permutation_pointers(rng: random.Random, count: int, s_objects: int) -> List[int]:
    pointers: List[int] = []
    while len(pointers) < count:
        block = list(range(s_objects))
        rng.shuffle(block)
        pointers.extend(block[: count - len(pointers)])
    return pointers


def zipf_cumulative_weights(s_objects: int, theta: float) -> List[float]:
    total = 0.0
    cumulative: List[float] = []
    for rank in range(1, s_objects + 1):
        try:
            weight = 1.0 / rank**theta
        except OverflowError:
            weight = math.exp(-theta * math.log(rank))
        total += weight
        cumulative.append(total)
    return cumulative


def coprime_stride(n: int) -> int:
    stride = max(3, int(n * 0.61803) | 1)
    while math.gcd(stride, n) != 1:
        stride += 2
    return stride


def zipf_pointers(
    rng: random.Random, count: int, s_objects: int, theta: float = 1.0
) -> List[int]:
    cum_weights = zipf_cumulative_weights(s_objects, float(theta))
    ranks = rng.choices(range(s_objects), cum_weights=cum_weights, k=count)
    stride = coprime_stride(s_objects)
    return [(rank * stride + 1) % s_objects for rank in ranks]


def partition_hot_pointers(
    rng: random.Random,
    count: int,
    s_objects: int,
    hot_fraction: float = 0.5,
    hot_span: float = 0.25,
) -> List[int]:
    hot_limit = max(1, int(s_objects * hot_span))
    pointers = []
    for _ in range(count):
        if rng.random() < hot_fraction:
            pointers.append(rng.randrange(hot_limit))
        else:
            pointers.append(rng.randrange(s_objects))
    return pointers


def clustered_pointers(
    rng: random.Random, count: int, s_objects: int, run_length: int = 32
) -> List[int]:
    pointers: List[int] = []
    while len(pointers) < count:
        start = rng.randrange(s_objects)
        for step in range(min(run_length, count - len(pointers))):
            pointers.append((start + step) % s_objects)
    return pointers


SAMPLERS = {
    "uniform": uniform_pointers,
    "permutation": permutation_pointers,
    "zipf": zipf_pointers,
    "partition_hot": partition_hot_pointers,
    "clustered": clustered_pointers,
}


def generate_workload(spec: WorkloadSpec, disks: int) -> Workload:
    """The reference workload: S's value then payload per object, the
    sampler's pointers, one payload per pointer, then the shuffle (except
    for clustered, whose order is the distribution)."""
    rng = random.Random(spec.seed)
    randrange = rng.randrange
    s_fields = [
        randrange(bound)
        for _ in range(spec.s_objects)
        for bound in (1_000_000, 1 << 30)
    ]
    s_value = np.array(s_fields[0::2], dtype=np.uint64)
    s_payload = np.array(s_fields[1::2], dtype=np.uint64)

    pointers = SAMPLERS[spec.distribution](
        rng, spec.r_objects, spec.s_objects, **spec.distribution_args
    )
    count = len(pointers)
    sptr = np.array(pointers, dtype=np.uint64)
    payload = np.array([randrange(1 << 30) for _ in range(count)], dtype=np.uint64)
    if spec.distribution == "clustered":
        rid = np.arange(count, dtype=np.uint64)
    else:
        order = list(range(count))
        rng.shuffle(order)
        rid = np.array(order, dtype=np.uint64)
        sptr, payload = sptr[rid], payload[rid]

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
