"""Tests for the real-mmap parallel join backend."""

import dataclasses
from contextlib import nullcontext

import pytest

from repro.joins import expected_checksum, verify_pairs
from repro.parallel import RealJoinError, run_real_join
from repro.parallel.engine.plans import plan_for
from repro.workload import WorkloadSpec, generate_workload


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec(r_objects=800, s_objects=800, seed=21), disks=4
    )


class TestInlineExecution:
    @pytest.mark.parametrize(
        "algorithm", ["nested-loops", "sort-merge", "grace", "hybrid-hash"]
    )
    def test_correct_output(self, workload, algorithm, tmp_path):
        result = run_real_join(
            algorithm, workload, str(tmp_path / "db"), use_processes=False
        )
        assert verify_pairs(workload, result.pairs) == 800
        assert result.wall_ms > 0
        assert not result.used_processes or True

    def test_store_cleaned_up_by_default(self, workload, tmp_path):
        root = tmp_path / "db"
        run_real_join("grace", workload, str(root), use_processes=False)
        assert not root.exists()

    def test_keep_store_retains_files(self, workload, tmp_path):
        root = tmp_path / "db"
        run_real_join(
            "nested-loops", workload, str(root), use_processes=False,
            keep_store=True,
        )
        assert (root / "disk0" / "R.seg").exists()

    def test_pass_timings_reported(self, workload, tmp_path):
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db"), use_processes=False
        )
        assert set(result.pass_wall_ms) == {
            "partition", "sort-runs", "merge-join"
        }

    def test_small_irun_forces_many_runs_still_correct(self, workload, tmp_path):
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db"),
            use_processes=False, irun=17,
        )
        assert verify_pairs(workload, result.pairs) == 800

    @pytest.mark.parametrize("buckets", [1, 5])
    def test_grace_bucket_counts(self, workload, buckets, tmp_path):
        result = run_real_join(
            "grace", workload, str(tmp_path / "db"),
            use_processes=False, buckets=buckets, tsize=8,
        )
        assert verify_pairs(workload, result.pairs) == 800

    def test_unknown_algorithm_rejected(self, workload, tmp_path):
        with pytest.raises(RealJoinError):
            run_real_join("hash-loops", workload, str(tmp_path / "db"))

    def test_two_disk_workload(self, tmp_path):
        wl = generate_workload(
            WorkloadSpec(r_objects=300, s_objects=300, seed=5), disks=2
        )
        result = run_real_join(
            "nested-loops", wl, str(tmp_path / "db"), use_processes=False
        )
        assert verify_pairs(wl, result.pairs) == 300


    def test_workers_return_scalars_not_pairs(self, workload, tmp_path):
        """The zero-pickle protocol: a worker's return value is a
        (count, checksum, path) triple, never a list of pairs."""
        from repro.parallel.engine.task import TaskSpec
        from repro.parallel.engine.task import PairResult
        from repro.parallel.vectorized import nested_loops_pass0
        from repro.storage.store import Store

        root = str(tmp_path / "db")
        Store(root, workload.disks).materialize(workload)
        result = nested_loops_pass0(
            TaskSpec(root, workload.disks, 0, workload.spec.s_objects,
                     workload.spec.r_bytes)
        )
        assert isinstance(result, PairResult)
        count, checksum, path = result
        assert isinstance(count, int)
        assert isinstance(checksum, int)
        assert isinstance(path, str)

    def test_collect_pairs_off_keeps_counts_and_checksum(self, workload, tmp_path):
        kept = run_real_join(
            "grace", workload, str(tmp_path / "a"), use_processes=False
        )
        skipped = run_real_join(
            "grace", workload, str(tmp_path / "b"), use_processes=False,
            collect_pairs=False,
        )
        assert skipped.pairs is None
        assert skipped.pair_count == kept.pair_count == 800
        assert skipped.checksum == kept.checksum

    def test_pass_counts_conserve_records(self, workload, tmp_path):
        result = run_real_join(
            "nested-loops", workload, str(tmp_path / "db"), use_processes=False
        )
        assert result.pass_counts["pass0"] + result.pass_counts["pass1"] == 800
        result = run_real_join(
            "sort-merge", workload, str(tmp_path / "db2"), use_processes=False
        )
        assert result.pass_counts["partition"] == 800
        assert result.pass_counts["sort-runs"] == 800
        assert result.pass_counts["merge-join"] == 800

    def test_pass_checksums_combine_to_total(self, workload, tmp_path):
        result = run_real_join(
            "nested-loops", workload, str(tmp_path / "db"), use_processes=False
        )
        combined = sum(result.pass_checksums.values()) % (1 << 61)
        assert combined == result.checksum


class TestProcessExecution:
    def test_multiprocess_matches_inline(self, workload, tmp_path):
        inline = run_real_join(
            "grace", workload, str(tmp_path / "a"), use_processes=False
        )
        multi = run_real_join(
            "grace", workload, str(tmp_path / "b"), use_processes=True
        )
        assert sorted(inline.pairs) == sorted(multi.pairs)
        assert multi.used_processes

    def test_shared_pool_across_joins(self, workload, tmp_path):
        import multiprocessing

        with multiprocessing.Pool(processes=workload.disks) as pool:
            first = run_real_join(
                "nested-loops", workload, str(tmp_path / "a"),
                use_processes=True, pool=pool,
            )
            second = run_real_join(
                "sort-merge", workload, str(tmp_path / "b"),
                use_processes=True, pool=pool,
            )
            # the shared pool is still usable: run_real_join must not
            # close a pool it did not create
            assert pool.map(abs, [-1, -2]) == [1, 2]
        assert first.pair_count == second.pair_count == 800


ALGORITHMS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")


def skewed(distribution, scale=0.25, seed=13):
    return generate_workload(
        dataclasses.replace(
            WorkloadSpec.paper_validation(scale=scale, seed=seed),
            distribution=distribution,
        ),
        disks=4,
    )


@pytest.fixture(scope="module", params=["zipf", "partition_hot"])
def skewed_workload(request):
    return skewed(request.param, scale=0.05)


class TestSkewedWorkloads:
    @pytest.mark.parametrize("kernels", ["vector", "scalar"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_skewed_workloads_match_the_oracle(
        self, skewed_workload, algorithm, kernels, tmp_path, scalar_kernels
    ):
        """A hot partition or a hot key changes how long a pass takes,
        never its answer — from the production kernels and the per-record
        oracle alike."""
        with scalar_kernels() if kernels == "scalar" else nullcontext():
            result = run_real_join(
                algorithm, skewed_workload, str(tmp_path / "db"),
                use_processes=False,
            )
        assert result.checksum == expected_checksum(skewed_workload)
        assert verify_pairs(skewed_workload, result.pairs) == (
            skewed_workload.r_objects_total
        )


class TestOneTaskPerPartition:
    @pytest.fixture(scope="class")
    def hot(self):
        return skewed("partition_hot")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_stage_dispatches_one_task_per_partition(
        self, hot, algorithm, tmp_path
    ):
        """The paper's Rproc_i model: however skewed the partitions, each
        pass runs one task per partition and the hottest one gates it."""
        assert hot.measured_skew() > 1.5
        result = run_real_join(
            algorithm, hot, str(tmp_path / "db"), use_processes=False,
            collect_pairs=False,
        )
        assert result.checksum == expected_checksum(hot)
        document = result.stats_document(hot)
        partitions = list(range(hot.disks))
        assert document["per_pass"]
        for label, entry in document["per_pass"].items():
            assert entry["workers"] == partitions, label
            kernel = plan_for(algorithm).stage(label).kernel
            tasks = entry["counters"][f"worker.tasks{{task={kernel}}}"]
            assert tasks == hot.disks, label
            assert list(document["per_worker"][label]) == [
                str(partition) for partition in partitions
            ], label
