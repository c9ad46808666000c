"""The zero-padding invariant every record-moving kernel relies on.

A record stores three u64 fields in its first 24 bytes and zeros after
them (``RecordLayout``).  The vector kernels move routed records as
their stored bytes instead of decoding and re-packing the three fields;
that is byte-identical only while every writer keeps the padding zero.
This walks the stores the four plans leave behind, under the vector
kernels and the per-record oracle and a budget that forces in-place bucket-spill flushes and a multi-pass
sort-merge merge, and checks the padding of every record-layout segment
— R and S partitions, RS, nested-loops spills, sorted runs, merge
levels and bucket spills.
"""

from contextlib import nullcontext
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.parallel import run_real_join
from repro.storage.relation import SortedRunsFile
from repro.storage.segment import PAGE_SIZE, MappedSegment, segment_kind
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")
HEADER_BYTES = 24

#: Spill kinds each plan must leave, so the walk is never vacuous.
SPILLS = {
    "nested-loops": {"RP"},
    "sort-merge": {"RS", "RUN"},
    "grace": {"BS"},
    "hybrid-hash": {"BS"},
}


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec.paper_validation(scale=0.25, seed=11), disks=4
    )


def padding_problems(path: Path, record_bytes: int) -> list:
    """Indices of records in one segment whose padding is not all zero."""
    count = MappedSegment.record_count(path)
    records = np.frombuffer(
        path.read_bytes(), dtype=np.uint8, count=count * record_bytes,
        offset=PAGE_SIZE,
    ).reshape(count, record_bytes)
    return np.flatnonzero(records[:, HEADER_BYTES:].any(axis=1)).tolist()


@pytest.mark.parametrize("kernels", ["vector", "scalar"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_stored_record_is_zero_padded(
    workload, algorithm, kernels, tmp_path, monkeypatch, scalar_kernels
):
    record_bytes = workload.spec.r_bytes
    root = tmp_path / "db"
    merged = []
    real_open = SortedRunsFile.open.__func__

    def checked_open(cls, path):
        # Merge levels are deleted before the merge task returns, so each
        # is checked as the merge opens it, right after publishing it.
        path = Path(path)
        if segment_kind(path.name) == "MRG":
            assert padding_problems(path, record_bytes) == [], path.name
            merged.append(path.name)
        return real_open(cls, path)

    monkeypatch.setattr(SortedRunsFile, "open", classmethod(checked_open))
    with scalar_kernels() if kernels == "scalar" else nullcontext():
        run_real_join(
            algorithm, workload, str(root), use_processes=False,
            collect_pairs=False, keep_store=True,
            mem_budget=1 << 20, on_pressure="degrade",
        )
    kinds = set()
    for path in sorted(root.rglob("*.seg")):
        kind = segment_kind(path.name)
        if kind != "PAIRS":  # 32-byte pair records have no padding
            kinds.add(kind)
            assert padding_problems(path, record_bytes) == [], path.name
    assert kinds >= {"R", "S"} | SPILLS[algorithm]
    # The budget drives the vector merge through merge levels; the
    # oracle's heap merges every run at once.
    assert bool(merged) == (algorithm == "sort-merge" and kernels == "vector")
