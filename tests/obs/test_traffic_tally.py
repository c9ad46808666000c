"""Storage traffic is tallied per batch and reported once per segment.

A segment counts the batches and records it reads, writes and
dereferences on itself, and hands the tally to the active registry when
it is closed or discarded.  So the registry's work per join grows with
the number of segments, not the number of batches, while the counters
sum to what per-batch counting would have reported.
"""

import pytest

from repro.obs.registry import (
    MetricsRegistry,
    activate,
    deactivate,
    parse_metric_key,
)
from repro.parallel import REAL_ALGORITHMS, run_real_join
from repro.storage.segment import MappedSegment
from repro.workload import WorkloadSpec, generate_workload

PLANS = sorted(REAL_ALGORITHMS)


@pytest.fixture(scope="module")
def workload():
    # 1,024 records per partition: 16 batches of 64, one of 4096.
    return generate_workload(
        WorkloadSpec(r_objects=2048, s_objects=2048, seed=5), disks=2
    )


def registry_calls(monkeypatch, join) -> int:
    """How many times ``join()`` calls :meth:`MetricsRegistry.count`."""
    calls = []
    real_count = MetricsRegistry.count

    def counted(self, *args, **labels):
        calls.append(args[0])
        return real_count(self, *args, **labels)

    monkeypatch.setattr(MetricsRegistry, "count", counted)
    join()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("algorithm", PLANS)
def test_registry_calls_do_not_grow_with_the_batch_count(
    algorithm, workload, tmp_path, monkeypatch
):
    def join(batch_records):
        return lambda: run_real_join(
            algorithm, workload, str(tmp_path / f"db{batch_records}"),
            use_processes=False, collect_pairs=False,
            batch_records=batch_records,
        )

    small = registry_calls(monkeypatch, join(64))
    default = registry_calls(monkeypatch, join(None))
    assert small == default


def test_a_discarded_segment_reports_its_tally_exactly_once(tmp_path):
    registry = activate(MetricsRegistry())
    try:
        segment = MappedSegment.create(tmp_path / "T0.seg", capacity=10)
        record = bytes(segment.layout.record_bytes)
        for records in (4, 3, 3):
            segment.append_batch(record * records)
        for view in segment.iter_batches(4):
            view.release()
        segment.discard()
        segment.discard()
        segment.close()
    finally:
        deactivate()
    record_bytes = segment.layout.record_bytes
    assert registry.counters == {
        "storage.map.new{kind=T}": 1,
        "storage.write.batches{kind=T}": 3,
        "storage.write.records{kind=T}": 10,
        "storage.write.bytes{kind=T}": 10 * record_bytes,
        "storage.read.batches{kind=T}": 3,
        "storage.read.records{kind=T}": 10,
        "storage.read.bytes{kind=T}": 10 * record_bytes,
    }
    assert not (tmp_path / "T0.seg").exists()


def counter_sum(counters, name, kind=None) -> int:
    total = 0
    for key, value in counters.items():
        counter, labels = parse_metric_key(key)
        if counter == name and (kind is None or labels.get("kind") == kind):
            total += value
    return total


@pytest.mark.parametrize("mem_budget", [None, 1 << 20])
@pytest.mark.parametrize("algorithm", PLANS)
def test_pair_traffic_is_conserved(algorithm, mem_budget, tmp_path):
    """Every pair is one S dereference, one PAIRS record and one
    ``worker.pairs`` count — also when the plan is degraded."""
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=0.1, seed=13), disks=2
    )
    result = run_real_join(
        algorithm, workload, str(tmp_path / "db"), use_processes=False,
        collect_pairs=False, mem_budget=mem_budget,
    )
    counters = result.stats_document(workload)["totals"]["counters"]
    assert result.pair_count == workload.r_objects_total
    assert (
        counter_sum(counters, "storage.deref.records", kind="S")
        == counter_sum(counters, "storage.write.records", kind="PAIRS")
        == counter_sum(counters, "worker.pairs")
        == result.pair_count
    )
