"""Bucket spills are laid out once and filled in place.

Under a spill threshold the grace and hybrid-hash partition kernels count
their records per (target, bucket) first, create one spill file per
(target, contributor) at its final size, and fill each bucket's extent
front to back at every flush.  These tests pin what that buys:

* the files are byte-identical to the unbudgeted plan's at the same
  ``buckets`` / ``resident_buckets``, from the vector kernels and the
  per-record oracle alike;
* a partition task killed after several flushes leaves only unpublished
  ``.seg.tmp`` files, which the orphan sweep removes, and its retry — by
  either implementation — writes the clean run's bytes;
* a partition pass creates exactly one file per non-empty (target,
  contributor) pair, whatever the budget.
"""

import dataclasses
import multiprocessing
import os
from contextlib import nullcontext

import pytest

np = pytest.importorskip("numpy")

from repro.governor import JoinPlan
from repro.parallel import run_real_join, vectorized
from repro.parallel.engine.task import TaskSpec
from repro.storage.relation import BucketedRFile
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload
from tests.parallel import scalar_oracle

#: The two implementations of every kernel, by the names the ids use.
KERNELS = {"vector": vectorized, "scalar": scalar_oracle}

BUCKETED = ("grace", "hybrid-hash")
MIB = 1 << 20


def paper_workload(scale, distribution="uniform", seed=11):
    return generate_workload(
        dataclasses.replace(
            WorkloadSpec.paper_validation(scale=scale, seed=seed),
            distribution=distribution,
        ),
        disks=4,
    )


@pytest.fixture(scope="module", params=["uniform", "partition_hot"])
def workload(request):
    return paper_workload(0.25, request.param)


def bs_files(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("BS*.seg"))
    }


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def unbudgeted(self, tmp_path_factory):
        """Unbudgeted BS files per (workload, plan, buckets, resident)."""
        cache = {}

        def get(workload, algorithm, buckets, resident):
            key = (id(workload), algorithm, buckets, resident)
            if key not in cache:
                root = tmp_path_factory.mktemp("unbudgeted")
                run_real_join(
                    algorithm, workload, str(root), use_processes=False,
                    collect_pairs=False, collect_metrics=False,
                    keep_store=True, buckets=buckets,
                    resident_buckets=resident,
                )
                cache[key] = bs_files(root)
            return cache[key]

        return get

    @pytest.mark.parametrize("budget", [MIB, MIB // 2], ids=["1MiB", "512KiB"])
    @pytest.mark.parametrize("kernels", ["vector", "scalar"])
    @pytest.mark.parametrize("algorithm", BUCKETED)
    def test_budgeted_spills_equal_the_unbudgeted_ones(
        self, workload, algorithm, kernels, budget, unbudgeted, tmp_path,
        scalar_kernels,
    ):
        with scalar_kernels() if kernels == "scalar" else nullcontext():
            result = run_real_join(
                algorithm, workload, str(tmp_path), use_processes=False,
                collect_pairs=False, collect_metrics=False, keep_store=True,
                mem_budget=budget, on_pressure="degrade",
            )
        plan = result.governor["plan"]
        assert plan["spill_threshold"] is not None  # flushed in pieces
        budgeted = bs_files(tmp_path)
        reference = unbudgeted(
            workload, algorithm, plan["buckets"], plan["resident_buckets"]
        )
        assert budgeted.keys() == reference.keys() and budgeted
        for name, data in budgeted.items():
            assert data == reference[name], name


KILLED = 77


def _die_after(calls_allowed, spec, kernels):
    """Child process: run ``spec``'s kernel from ``KERNELS[kernels]`` and
    hard-exit at bucket write number ``calls_allowed + 1`` — no cleanup
    runs, as in a real crash."""
    real_write = BucketedRFile.write_buckets
    calls = []

    def dying(self, data, counts):
        calls.append(1)
        if len(calls) > calls_allowed:
            os._exit(KILLED)
        return real_write(self, data, counts)

    BucketedRFile.write_buckets = dying
    getattr(KERNELS[kernels], spec.kernel)(spec)
    os._exit(0)


class TestCrash:
    @pytest.fixture(scope="class")
    def uniform(self):
        return paper_workload(0.25)

    def spec(self, workload, root, kernel):
        """A fresh store holding ``workload`` and partition 0's task."""
        store = Store(root, workload.disks)
        store.materialize(workload)
        plan = JoinPlan(spill_threshold=1024, batch_records=256)
        return store, TaskSpec(
            str(store.root), workload.disks, 0, workload.s_objects_total,
            workload.spec.r_bytes, kernel=kernel, plan=plan,
        )

    @pytest.mark.parametrize("crash_mode,retry_mode", [
        ("vector", "scalar"), ("scalar", "vector"),
    ])
    @pytest.mark.parametrize(
        "kernel", ["grace_partition", "hybrid_hash_partition"]
    )
    def test_killed_after_two_flushes_leaves_only_tmps(
        self, uniform, kernel, crash_mode, retry_mode, tmp_path
    ):
        disks = uniform.disks
        store, spec = self.spec(uniform, tmp_path / "db", kernel)
        child = multiprocessing.get_context("spawn").Process(
            # Every flush writes all four targets: death strikes at the
            # first write of the third flush.
            target=_die_after, args=(2 * disks, spec, crash_mode),
        )
        child.start()
        child.join(60)
        assert child.exitcode == KILLED
        spills = sorted(
            path.name for path in store.root.rglob("BS*_from0.seg*")
        )
        assert spills == [f"BS{j}_from0.seg.tmp" for j in range(disks)]
        assert store.cleanup_orphans() >= disks
        assert not list(store.root.rglob("*.seg.tmp"))

        getattr(KERNELS[retry_mode], kernel)(spec)
        clean_store, clean = self.spec(uniform, tmp_path / "clean", kernel)
        getattr(KERNELS[crash_mode], kernel)(clean)
        assert bs_files(store.root) == bs_files(clean_store.root)


#: The ladder-honesty grid's per-worker budgets (tests/governor).
WORKER_BUDGETS = [4 << 20, 1 << 20, 256 << 10, 64 << 10]


def non_empty_pairs(workload, plan) -> int:
    """(target, contributor) pairs with at least one spilled record."""
    pmap = workload.pointer_map
    part_sizes = np.asarray(
        [pmap.partition_size(j) for j in range(workload.disks)],
        dtype=np.uint64,
    )
    resident = plan.effective_resident_buckets()
    pairs = 0
    for columns in workload.r_columns:
        parts, offs = pmap.locate_array(columns.sptr)
        bucket = vectorized._hash_buckets(part_sizes, plan.buckets, parts, offs)
        pairs += len(np.unique(parts[bucket >= resident]))
    return pairs


class TestFileCount:
    @pytest.fixture(scope="class")
    def paper(self):
        return paper_workload(1.0, seed=96)

    @pytest.mark.parametrize("budget", WORKER_BUDGETS)
    @pytest.mark.parametrize("algorithm", BUCKETED)
    def test_one_file_per_non_empty_pair(
        self, paper, algorithm, budget, tmp_path
    ):
        result = run_real_join(
            algorithm, paper, str(tmp_path), use_processes=False,
            collect_pairs=False, mem_budget=budget * paper.disks,
            on_pressure="degrade",
        )
        governor = result.governor
        assert governor["runtime_degradations"] == 0
        plan = JoinPlan(**{
            knob: governor["plan"][knob]
            for knob in ("buckets", "resident_buckets")
        })
        if algorithm == "grace":
            plan = dataclasses.replace(plan, resident_buckets=0)
        partition = result.stats_document(paper)["per_pass"]["partition"]
        assert partition["counters"]["storage.map.new{kind=BS}"] == (
            non_empty_pairs(paper, plan)
        )
