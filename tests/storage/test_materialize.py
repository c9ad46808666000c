"""``Store.materialize``: columns to published segments, nothing per object."""

import tracemalloc

import pytest

from repro.joins import expected_checksum
from repro.parallel import run_real_join
from repro.storage.relation import write_r_partition, write_s_partition
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload

DISKS = 3


@pytest.mark.parametrize("record_bytes", [32, 128, 256])
def test_byte_identical_to_the_scalar_packer(record_bytes, tmp_path):
    """Whole files — header, ``pack_batch`` payload, CRC footer — match
    what the per-object writer publishes for the same tuples."""
    workload = generate_workload(
        WorkloadSpec(r_objects=1000, s_objects=700, r_bytes=record_bytes,
                     s_bytes=record_bytes, distribution="zipf", seed=5),
        DISKS,
    )
    store = Store(tmp_path / "columns", DISKS)
    store.materialize(workload)
    reference = Store(tmp_path / "objects", DISKS)
    for i in range(DISKS):
        write_r_partition(
            reference.path(i, "R"), workload.r_partitions[i], record_bytes)
        write_s_partition(
            reference.path(i, "S"), workload.s_partition(i), record_bytes)
        for name in ("R", "S"):
            assert store.path(i, name).read_bytes() \
                == reference.path(i, name).read_bytes()
    assert store.scrub()["verified"] == 2 * DISKS


def test_more_disks_than_objects(tmp_path):
    workload = generate_workload(WorkloadSpec(r_objects=2, s_objects=3), 5)
    store = Store(tmp_path / "db", 5)
    store.materialize(workload)
    assert [len(store.open_r(i)) for i in range(5)] == [1, 1, 0, 0, 0]
    assert [len(store.open_s(i)) for i in range(5)] == [1, 1, 1, 0, 0]


def test_peak_allocation_is_one_partition_not_one_object_each(tmp_path):
    """A per-object path (tuples, a Python int per field) cannot creep back
    unnoticed: it allocates several times the relation, while the column
    path holds one partition's packed records at a time."""
    workload = generate_workload(WorkloadSpec.paper_validation(scale=1.0), 4)
    partition_bytes = len(workload.r_columns[0].rid) * workload.spec.r_bytes
    store = Store(tmp_path / "db", 4)
    tracemalloc.start()
    try:
        store.materialize(workload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * partition_bytes


def test_real_backend_never_builds_the_object_views(tmp_path):
    workload = generate_workload(WorkloadSpec.paper_validation(scale=0.02), 2)
    result = run_real_join(
        "grace", workload, str(tmp_path / "db"), use_processes=False,
        mem_budget=1 << 20, on_pressure="degrade", collect_metrics=True,
    )
    result.stats_document(workload)
    assert result.checksum == expected_checksum(workload)
    assert not {"r_partitions", "s_objects"} & set(vars(workload))
