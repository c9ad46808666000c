"""Oracle-vs-vector kernel equivalence: the numpy kernels compute exactly
what a per-record transcription computes.

Every configuration here runs the same join twice — once with the numpy
stage kernels, once with the per-record oracle kernels
(``tests/parallel/scalar_oracle.py``) — and asserts the outputs are
indistinguishable: identical pair counts, identical order-independent
checksums, identical per-pass record counts and checksums, and (for the
default plans) byte-identical segment files on disk.
"""

import filecmp
from collections import Counter
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.governor.predict import MAX_BUCKETS
from repro.joins.grace import order_preserving_bucket
from repro.parallel import FaultPlan, run_real_join
from repro.obs.registry import parse_metric_key
from repro.parallel.vectorized import _hash_buckets
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")

#: Degradation-ladder rungs the governor can leave a plan on: each knob
#: here is a value the ladder reaches on its way to the floor, so the
#: equivalence claim covers degraded plans, not just the defaults.
RUNGS = [
    pytest.param({}, id="default-plan"),
    pytest.param({"batch_records": 64}, id="batch-floor"),
    pytest.param({"irun": 64}, id="small-runs"),
    pytest.param({"buckets": 29, "tsize": 16}, id="finer-buckets"),
    pytest.param({"resident_buckets": 0}, id="no-resident"),
]


@pytest.fixture(scope="module")
def workload():
    # Odd sizes + a second seed: single-record buckets and uneven
    # partition tails are exactly where vector/scalar drift would hide.
    return generate_workload(
        WorkloadSpec(r_objects=1021, s_objects=1021, seed=13), disks=4
    )


@pytest.fixture
def run_pair(scalar_kernels):
    def run(workload, algorithm, tmp_path, **kwargs):
        """The same join on both implementations; returns (scalar, vector)."""
        def join(name):
            return run_real_join(
                algorithm, workload, str(tmp_path / name),
                use_processes=False, **kwargs,
            )

        with scalar_kernels():
            scalar = join("scalar")
        return scalar, join("vector")

    return run


def assert_equivalent(scalar, vector):
    assert vector.pair_count == scalar.pair_count
    assert vector.checksum == scalar.checksum
    assert vector.pass_counts == scalar.pass_counts
    assert vector.pass_checksums == scalar.pass_checksums
    # Emission order, not just content: the pairs lists line up 1:1.
    assert vector.pairs == scalar.pairs


def storage_traffic(result) -> Counter:
    """Every worker's ``storage.read.*``/``storage.write.*`` counters,
    summed per flat key (so per segment kind)."""
    totals: Counter = Counter()
    for snapshots in result.worker_metrics.values():
        for snapshot in snapshots.values():
            for key, value in snapshot["counters"].items():
                name, _labels = parse_metric_key(key)
                if name.startswith(("storage.read.", "storage.write.")):
                    totals[key] += value
    return totals


class TestBucketFunction:
    @settings(max_examples=60, deadline=None)
    @given(
        part_sizes=st.lists(
            st.integers(min_value=1, max_value=5_000), min_size=1, max_size=4
        ),
        buckets=st.integers(min_value=1, max_value=MAX_BUCKETS),
        data=st.data(),
    )
    def test_scalar_bucket_equals_vector_helper(
        self, part_sizes, buckets, data
    ):
        """Element-wise agreement, edges forced: every target's first and
        last offset, one-object partitions, more buckets than objects."""
        located = [
            (target, offset)
            for target, size in enumerate(part_sizes)
            for offset in {0, size // 2, size - 1}
        ]
        for _ in range(64):
            target = data.draw(st.integers(0, len(part_sizes) - 1))
            located.append(
                (target, data.draw(st.integers(0, part_sizes[target] - 1)))
            )
        scalar = [
            order_preserving_bucket(offset, part_sizes[target], buckets)
            for target, offset in located
        ]
        assert all(0 <= bucket < buckets for bucket in scalar)
        vector = _hash_buckets(
            np.asarray(part_sizes, dtype=np.uint64),
            buckets,
            np.asarray([t for t, _ in located], dtype=np.int64),
            np.asarray([o for _, o in located], dtype=np.uint64),
        )
        assert vector.dtype == np.uint64
        assert vector.tolist() == scalar


class TestKernelEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("plan_kwargs", RUNGS)
    def test_rung_equivalence(
        self, workload, algorithm, plan_kwargs, tmp_path, run_pair
    ):
        scalar, vector = run_pair(
            workload, algorithm, tmp_path, **plan_kwargs
        )
        assert_equivalent(scalar, vector)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("plan_kwargs", RUNGS)
    def test_storage_counters_mode_invariant(
        self, workload, algorithm, plan_kwargs, tmp_path, run_pair
    ):
        """The kernels move the same records through the same segments:
        every read and write counter, per segment kind, is the same in
        both implementations (DESIGN.md's claim that ``storage.*`` counts
        what the algorithm moves, not how a kernel codes it)."""
        scalar, vector = run_pair(
            workload, algorithm, tmp_path, collect_metrics=True,
            collect_pairs=False, **plan_kwargs,
        )
        traffic = storage_traffic(scalar)
        assert traffic["storage.read.records{kind=R}"] == 1021  # one R scan
        assert storage_traffic(vector) == traffic

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_segment_bytes_identical(
        self, workload, algorithm, tmp_path, run_pair
    ):
        """The kept stores are bit-identical, file by file: same segment
        names, same bytes — headers, bucket directories, pair blocks."""
        scalar, vector = run_pair(
            workload, algorithm, tmp_path, keep_store=True
        )
        assert_equivalent(scalar, vector)
        s_root, v_root = tmp_path / "scalar", tmp_path / "vector"
        s_files = sorted(
            p.relative_to(s_root) for p in s_root.rglob("*.seg")
        )
        v_files = sorted(
            p.relative_to(v_root) for p in v_root.rglob("*.seg")
        )
        assert s_files == v_files and s_files
        for rel in s_files:
            assert filecmp.cmp(
                s_root / rel, v_root / rel, shallow=False
            ), f"{algorithm}: {rel} differs from the oracle's"

    def test_tight_memory_budget_degrades_identically(
        self, workload, tmp_path, run_pair
    ):
        """Under a budget that drives the ladder to its floor, both
        implementations take the same rungs to the same plan and answer
        the same."""
        scalar, vector = run_pair(
            workload, "grace", tmp_path,
            mem_budget=64 * 1024, on_pressure="degrade",
        )
        assert_equivalent(scalar, vector)
        assert vector.governor["plan"] == scalar.governor["plan"]
        assert vector.governor["rungs"] == scalar.governor["rungs"]
        assert vector.governor["degradations_total"] > 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_crash_recovery_equivalence(
        self, workload, algorithm, tmp_path, scalar_kernels
    ):
        """A crash in every pass plus retries leaves vector output equal
        to a clean oracle run: retried vector passes overwrite torn state
        exactly like the per-record kernels do."""
        with scalar_kernels():
            clean = run_real_join(
                algorithm, workload, str(tmp_path / "clean"),
                use_processes=False,
            )
        recovered = run_real_join(
            algorithm, workload, str(tmp_path / "faulted"),
            use_processes=False,
            fault_plan=FaultPlan.crash_every_pass(algorithm), retries=2,
        )
        assert recovered.retries_total > 0
        assert recovered.pair_count == clean.pair_count
        assert recovered.checksum == clean.checksum
        assert recovered.pass_counts == clean.pass_counts
        assert recovered.pass_checksums == clean.pass_checksums
