"""``collect_pairs=True``: the output comes back in stored form.

``RealJoinResult.pairs`` is one ``JoinedPairs`` block filled from the
published PAIRS segments — the same pairs, in the same order, that the
oracle's per-object ``read_pairs`` decodes, at 32 bytes a pair.
"""

import dataclasses
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.records import JoinedPairs
from repro.joins import verify_pairs
from repro.parallel import REAL_ALGORITHMS, run_real_join
from repro.storage import PAIR_RECORD_BYTES
from repro.workload import WorkloadSpec, generate_workload
from repro.workload.generator import RColumns
from tests.parallel.scalar_oracle import read_pairs

ALGORITHMS = sorted(REAL_ALGORITHMS)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(r_objects=1021, s_objects=700, seed=13), disks=4
    )


@pytest.mark.parametrize("kernels", ["vector", "scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_pairs_are_the_published_segments_in_file_order(
    workload, algorithm, kernels, tmp_path, scalar_kernels
):
    with scalar_kernels() if kernels == "scalar" else nullcontext():
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False,
            keep_store=True,
        )
    assert isinstance(result.pairs, JoinedPairs)
    assert len(result.pairs) == result.pair_count == 1021
    assert list(result.pairs) == [
        pair
        for pair_file in result.pair_files
        for pair in read_pairs(pair_file.path)
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_each_segment_is_read_in_one_step_whatever_the_plans_batch(
    workload, algorithm, tmp_path
):
    """A plan degraded to 64-record batches still collects a segment per
    mapped view; records and bytes are counted as they always were."""
    result = run_real_join(
        algorithm, workload, str(tmp_path / "db"), use_processes=False,
        batch_records=64,
    )
    counters = result.driver_metrics["counters"]
    nonempty = sum(1 for pair_file in result.pair_files if pair_file.count)
    assert nonempty < 1021 // 64
    assert counters["storage.read.batches{kind=PAIRS}"] == nonempty
    assert counters["storage.read.records{kind=PAIRS}"] == 1021
    assert counters["storage.read.bytes{kind=PAIRS}"] == 1021 * PAIR_RECORD_BYTES
    assert verify_pairs(workload, result.pairs) == 1021


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_zero_record_r_collects_an_empty_block(workload, algorithm, tmp_path):
    """Every PAIRS segment empty (and, for plans whose scan stage emits
    no pairs, some stages publishing none at all)."""
    none = np.empty(0, dtype=np.uint64)
    empty = dataclasses.replace(
        workload, r_columns=(RColumns(none, none, none),) * workload.disks
    )
    result = run_real_join(
        algorithm, empty, str(tmp_path / "db"), use_processes=False,
    )
    assert len(result.pairs) == 0 and result.pairs.columns.shape == (0, 4)
    assert "storage.read.batches{kind=PAIRS}" not in result.driver_metrics["counters"]
    assert verify_pairs(empty, result.pairs) == 0


def test_collecting_costs_the_block_not_an_object_per_pair(tmp_path):
    """The boxed list this replaced held ~200 B a pair (a ``JoinedPair``
    and four ints each); the block is 32 B a pair plus, while it fills,
    one segment's copy."""
    workload = generate_workload(WorkloadSpec.paper_validation(scale=0.25), 4)

    def peak(collect_pairs: bool) -> int:
        tracemalloc.start()
        try:
            result = run_real_join(
                "grace", workload, str(tmp_path / f"db{collect_pairs:d}"),
                use_processes=False, collect_metrics=False,
                collect_pairs=collect_pairs,
            )
            assert result.pair_count == 25_600
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(True) - peak(False) <= 2 * PAIR_RECORD_BYTES * 25_600
