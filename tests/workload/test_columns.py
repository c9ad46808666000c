"""The columnar ``Workload``: same objects as ever, held in store format.

The pins in ``data/generator_pins.json`` were recorded from the commit
before the workload became columnar (object lists, per-object packing), so
they hold the generator's draw order, the record format and the oracle
fixed across that change and any later one.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import workload_skew
from repro.core.records import JoinedPair, RObject, SObject
from repro.joins import expected_checksum, reference_join
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload

PINS = json.loads(
    (Path(__file__).parent / "data" / "generator_pins.json").read_text()
)
DISKS = 4


def pinned_spec(family: str, seed: int) -> WorkloadSpec:
    base = WorkloadSpec.paper_validation(scale=0.05, seed=seed)
    if family == "selective":  # R an eighth of S: most of S never dereferenced
        return replace(base, r_objects=max(base.r_objects // 8, 256))
    return replace(base, distribution=family)


def scalar_checksum(workload) -> int:
    """The oracle checksum the slow way: over the object views."""
    checksum = 0
    for partition in workload.r_partitions:
        for r in partition:
            s = workload.s_objects[r.sptr]
            checksum = (
                checksum + r.rid * 1_000_003 + s.sid * 7919 + s.value
            ) % (1 << 61)
    return checksum


@pytest.mark.parametrize("key", sorted(PINS))
def test_generator_pin(key, tmp_path):
    family, seed = key.rsplit("-", 1)
    workload = generate_workload(pinned_spec(family, int(seed)), DISKS)
    store = Store(tmp_path / "db", DISKS)
    store.materialize(workload)
    segments = {
        f"disk{i}/{name}.seg": hashlib.sha256(
            store.path(i, name).read_bytes()
        ).hexdigest()
        for i in range(DISKS)
        for name in ("R", "S")
    }
    pin = PINS[key]
    assert segments == pin["segments"]
    assert expected_checksum(workload) == pin["expected_checksum"]
    assert scalar_checksum(workload) == pin["expected_checksum"]
    assert workload.measured_skew().hex() == pin["skew_hex"]


def test_columns_are_read_only():
    workload = generate_workload(WorkloadSpec(r_objects=64, s_objects=64), 2)
    for array in (workload.s_value, workload.s_payload, *workload.r_columns[0]):
        assert array.dtype == np.uint64
        with pytest.raises(ValueError):
            array[0] = 1


@st.composite
def geometries(draw):
    """(spec, disks), weighted toward the shapes that break partitioning."""
    disks = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(
        ["free", "one_per_partition", "more_disks_than_objects", "one_s_page"]
    ))
    if shape == "one_per_partition":
        r_objects = s_objects = disks
    elif shape == "more_disks_than_objects":
        r_objects = draw(st.integers(1, disks))
        s_objects = draw(st.integers(1, disks))
    else:
        r_objects = draw(st.integers(1, 400))
        s_objects = draw(st.integers(1, 400))
    distribution, args = draw(st.sampled_from([
        ("uniform", {}), ("permutation", {}), ("zipf", {"theta": 1.2}),
        ("clustered", {"run_length": 8}),
        ("partition_hot", {"hot_fraction": 0.8, "hot_span": 0.1}),
    ]))
    if shape == "one_s_page":
        # Every pointer into S's first 4 KiB page (32 objects of 128 bytes).
        distribution = "partition_hot"
        args = {"hot_fraction": 1.0, "hot_span": min(1.0, 32 / s_objects)}
    return WorkloadSpec(
        r_objects=r_objects, s_objects=s_objects, distribution=distribution,
        distribution_args=args, seed=draw(st.integers(0, 2**16)),
    ), disks


@settings(max_examples=120, deadline=None)
@given(geometries())
def test_views_equal_columns(geometry):
    spec, disks = geometry
    workload = generate_workload(spec, disks)
    assert len(workload.r_partitions) == len(workload.r_columns) == disks
    for view, (rid, sptr, payload) in zip(workload.r_partitions, workload.r_columns):
        assert view == [
            RObject(int(a), int(b), int(c)) for a, b, c in zip(rid, sptr, payload)
        ]
    assert workload.s_objects == [
        SObject(j, int(value), int(payload))
        for j, (value, payload) in enumerate(
            zip(workload.s_value, workload.s_payload))
    ]
    assert [o for i in range(disks) for o in workload.s_partition(i)] \
        == workload.s_objects
    for i in range(disks):
        sid, value, payload = workload.s_columns(i)
        assert list(map(SObject._make, zip(
            sid.tolist(), value.tolist(), payload.tolist()
        ))) == workload.s_partition(i)
    assert workload.r_objects_total == spec.r_objects
    assert workload.s_objects_total == spec.s_objects
    # The vector kernels against their scalar references, exactly.
    assert workload.measured_skew() == workload_skew(
        workload.r_partitions, workload.pointer_map)
    assert expected_checksum(workload) == scalar_checksum(workload)
    assert reference_join(workload) == [
        JoinedPair(r.rid, r.sptr, r.payload, workload.s_objects[r.sptr].value)
        for partition in workload.r_partitions for r in partition
    ]
    assert workload.expected_pairs() == [
        (r.rid, r.sptr) for partition in workload.r_partitions for r in partition
    ]


def test_checksum_wraps_exactly_past_2_to_the_64():
    """u64 wrap-around must reduce to the unbounded sum modulo 2**61."""
    workload = generate_workload(WorkloadSpec(r_objects=64, s_objects=64), 2)
    huge = np.full(64, (1 << 64) - 1, dtype=np.uint64)
    stretched = replace(workload, s_value=huge, s_payload=workload.s_payload)
    assert expected_checksum(stretched) == scalar_checksum(stretched)
