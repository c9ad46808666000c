"""Sorted runs are extents of one RUN segment per sort-run task.

A sort-run task (a partition, or a shard of one) appends its runs to one
segment: consecutive ``irun``-record extents, only the last short, with
``irun`` in the header meta.  These tests pin what that buys and what it
must not break:

* the payload is the stable sort of every ``irun`` chunk of the task's
  inbound stream, and the vector kernels write the per-record oracle's
  bytes, sharded or not;
* a join creates exactly one RUN segment per sort-run task, whatever the
  budget;
* a cutter killed after several runs leaves only its ``.seg.tmp``, and
  its retry — by the other implementation — writes the clean run's bytes;
* the key samples a cutter returns shard the merge exactly as sampling
  the published runs would, so the driver opens no run;
* a join checkpoints every barrier but the last, and a manifest from the
  per-run-file layout is declined with a reason.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

np = pytest.importorskip("numpy")

from repro.governor import JoinPlan
from repro.parallel import FaultPlan, run_real_join, vectorized
from repro.parallel.engine.checkpoint import (
    CheckpointWriter,
    load_manifest,
    manifest_path,
)
from repro.parallel.engine.executor import RealJoinError
from repro.parallel.engine.rebalance import (
    KEY_SAMPLE_RUNS,
    _key_shards,
    _record_shards,
    gather_run_keys,
    key_sample_positions,
)
from repro.parallel.engine.stages import plan_for
from repro.parallel.engine.task import TaskSpec, rs_name, run_paths
from repro.storage.layout import RecordLayout
from repro.storage.relation import RRelationFile, SortedRunsFile
from repro.storage.segment import PAGE_SIZE, MappedSegment
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload
from tests.parallel import scalar_oracle

IRUN = 1000

#: The two implementations of every kernel, by the names the ids use.
KERNELS = {"vector": vectorized, "scalar": scalar_oracle}


def paper_workload(scale, distribution="uniform", seed=11):
    return generate_workload(
        dataclasses.replace(
            WorkloadSpec.paper_validation(scale=scale, seed=seed),
            distribution=distribution,
        ),
        disks=4,
    )


@pytest.fixture(scope="module")
def hot():
    return paper_workload(0.25, "partition_hot")


def run_files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("RUN*.seg"))
    }


def inbound_stream(store, partition):
    """A partition's RS records, concatenated in contributor order."""
    chunks = []
    for contributor in range(store.disks):
        path = store.path(partition, rs_name(partition, contributor))
        with RRelationFile.open(path) as rel:
            for batch in rel.iter_record_batches(max(1, len(rel))):
                chunks.append(batch)
    return np.concatenate(chunks)


def sorted_chunks(records, irun):
    """The reference cut: each ``irun`` chunk in stable ``sptr`` order."""
    fields = RecordLayout(records.dtype.itemsize).np_dtype
    out = []
    for lo in range(0, len(records), irun):
        chunk = records[lo:lo + irun]
        out.append(
            chunk[np.argsort(chunk.view(fields)["f1"], kind="stable")]
        )
    return b"".join(chunk.tobytes() for chunk in out)


def cut_tasks(result, disks):
    report = result.rebalance.get("sort-runs")
    return disks if report is None else report["tasks"]


class TestLayout:
    @pytest.mark.parametrize("rebalance", ["auto", "on"])
    def test_payload_is_the_sorted_inbound_chunks_in_both_modes(
        self, hot, rebalance, tmp_path, scalar_kernels
    ):
        def join(name):
            return run_real_join(
                "sort-merge", hot, str(tmp_path / name), use_processes=False,
                collect_pairs=False, collect_metrics=False, keep_store=True,
                irun=IRUN, rebalance=rebalance,
            )

        with scalar_kernels():
            join("scalar")
        result = join("vector")
        stores = {name: tmp_path / name for name in KERNELS}
        assert run_files(stores["vector"]) == run_files(stores["scalar"])
        store = Store(stores["vector"], hot.disks)
        segments = 0
        for i in range(hot.disks):
            stream = inbound_stream(store, i)
            offset = 0
            for path in run_paths(store, i):
                with SortedRunsFile.open(path) as rel:
                    assert rel.irun == IRUN
                    n = len(rel)
                    extents = rel.extents()
                assert all(hi - lo == IRUN for lo, hi in extents[:-1])
                # Shards cut consecutive slices of the inbound stream.
                reference = sorted_chunks(stream[offset:offset + n], IRUN)
                record_bytes = hot.spec.r_bytes
                assert path.read_bytes()[
                    PAGE_SIZE:PAGE_SIZE + n * record_bytes
                ] == reference
                offset += n
                segments += 1
            assert offset == len(stream)
        assert segments == cut_tasks(result, hot.disks)
        if rebalance == "on":
            assert segments > hot.disks


#: The ladder-honesty grid's per-worker budgets (tests/governor).
WORKER_BUDGETS = [4 << 20, 1 << 20, 256 << 10, 64 << 10]


class TestFileCount:
    @pytest.fixture(scope="class")
    def paper(self):
        return paper_workload(1.0, seed=96)

    @pytest.mark.parametrize("budget", WORKER_BUDGETS)
    def test_one_run_segment_per_sort_run_task(self, paper, budget, tmp_path):
        result = run_real_join(
            "sort-merge", paper, str(tmp_path), use_processes=False,
            collect_pairs=False, mem_budget=budget * paper.disks,
            on_pressure="degrade",
        )
        runs = result.stats_document(paper)["per_pass"]["sort-runs"]
        assert runs["counters"]["storage.map.new{kind=RUN}"] == cut_tasks(
            result, paper.disks
        )


KILLED = 77


def _die_after(runs_allowed, spec, kernels):
    """Child process: run ``spec``'s cutter from ``KERNELS[kernels]`` and
    hard-exit at run number ``runs_allowed + 1`` — no cleanup runs, as in
    a real crash."""
    real_append = SortedRunsFile.append_run
    calls = []

    def dying(self, data):
        calls.append(1)
        if len(calls) > runs_allowed:
            os._exit(KILLED)
        return real_append(self, data)

    SortedRunsFile.append_run = dying
    KERNELS[kernels].sort_merge_runs(spec)
    os._exit(0)


def partitioned_store(workload, root, kernels="vector", irun=256):
    """A store at the partition barrier, and each partition's cutter spec."""
    store = Store(root, workload.disks)
    store.materialize(workload)
    plan = JoinPlan(irun=irun)
    specs = [
        TaskSpec(
            str(store.root), workload.disks, i, workload.s_objects_total,
            workload.spec.r_bytes, kernel="sort_merge_runs", plan=plan,
        )
        for i in range(workload.disks)
    ]
    for spec in specs:
        KERNELS[kernels].sort_merge_partition(spec)
    return store, specs


class TestCrash:
    @pytest.mark.parametrize("crash_mode,retry_mode", [
        ("vector", "scalar"), ("scalar", "vector"),
    ])
    def test_killed_after_two_runs_leaves_only_its_tmp(
        self, hot, crash_mode, retry_mode, tmp_path
    ):
        store, specs = partitioned_store(hot, tmp_path / "db", crash_mode)
        child = multiprocessing.get_context("spawn").Process(
            target=_die_after, args=(2, specs[0], crash_mode),
        )
        child.start()
        child.join(60)
        assert child.exitcode == KILLED
        left = sorted(path.name for path in store.root.rglob("RUN0*"))
        assert left == ["RUN0.seg.tmp"]
        assert store.cleanup_orphans() == 1
        assert not list(store.root.rglob("*.seg.tmp"))

        KERNELS[retry_mode].sort_merge_runs(specs[0])
        clean_store, clean = partitioned_store(
            hot, tmp_path / "clean", crash_mode
        )
        KERNELS[crash_mode].sort_merge_runs(clean[0])
        assert run_files(store.root) == run_files(clean_store.root)


def published_samples(store, partition):
    """The pooled sample read back from published runs (what a driver
    that opened the runs would cut the key ranges from)."""
    runs = []
    for path in run_paths(store, partition):
        with SortedRunsFile.open(path) as rel:
            for lo, hi in rel.extents():
                runs.append([
                    rel.get(lo + k).sptr
                    for k in key_sample_positions(hi - lo)
                ])
    step = max(1, len(runs) // KEY_SAMPLE_RUNS)
    return sorted(key for run in runs[::step][:KEY_SAMPLE_RUNS] for key in run)


class TestSampling:
    @pytest.mark.parametrize("kernels", ["vector", "scalar"])
    def test_returned_samples_shard_like_the_published_runs(
        self, hot, kernels, tmp_path
    ):
        # irun 64: partition 0 cuts well over KEY_SAMPLE_RUNS runs, so
        # the run selection (not only the per-run positions) is pinned.
        store, specs = partitioned_store(
            hot, tmp_path / "db", kernels, irun=64
        )
        inbound = sum(
            MappedSegment.record_count(store.path(0, rs_name(0, c)))
            for c in range(hot.disks)
        )
        # Partition 0 is cut by three shards, as under rebalance="on".
        units = [
            dataclasses.replace(specs[0], shard=shard)
            for shard in _record_shards(inbound, 3)
        ] + specs[1:]
        cuts = [KERNELS[kernels].sort_merge_runs(unit) for unit in units]
        keys = gather_run_keys(
            [unit.partition for unit in units], cuts, hot.disks
        )
        assert len(run_paths(store, 0)) == 3
        assert len(cuts[0].samples) > KEY_SAMPLE_RUNS
        for i in range(hot.disks):
            reference = published_samples(store, i)
            assert keys[i].samples == reference
            assert keys[i].records == sum(
                len(SortedRunsFile.open(path)) for path in run_paths(store, i)
            )
            for count in range(2, 9):
                assert _key_shards(keys[i].samples, count) == _key_shards(
                    reference, count
                )


class TestManifests:
    @pytest.mark.parametrize("algorithm", sorted(
        ("nested-loops", "sort-merge", "grace", "hybrid-hash")
    ))
    def test_every_barrier_but_the_last_is_checkpointed(
        self, hot, algorithm, tmp_path, monkeypatch
    ):
        recorded = []
        record_stage = CheckpointWriter.record_stage

        def spy(self, store, **kwargs):
            recorded.append(kwargs["label"])
            return record_stage(self, store, **kwargs)

        monkeypatch.setattr(CheckpointWriter, "record_stage", spy)
        run_real_join(
            algorithm, hot, str(tmp_path), use_processes=False,
            collect_pairs=False, collect_metrics=False,
        )
        labels = [stage.label for stage in plan_for(algorithm).stages]
        assert recorded == labels[:-1]

    def crash_in_merge(self, workload, root, **kwargs):
        faults = FaultPlan.parse(json.dumps({"faults": [
            {"kind": "crash", "task": "sort_merge_merge_join",
             "partition": 0, "attempt": a}
            for a in range(4)
        ]}))
        with pytest.raises(RealJoinError):
            run_real_join(
                "sort-merge", workload, str(root), use_processes=False,
                keep_store=True, collect_pairs=False, retries=0,
                fallback_inline=False, fault_plan=faults, **kwargs,
            )

    def test_resumed_merge_shards_from_the_recorded_samples(
        self, hot, tmp_path
    ):
        options = dict(irun=IRUN, rebalance="on")
        baseline = run_real_join(
            "sort-merge", hot, str(tmp_path / "baseline"),
            use_processes=False, collect_pairs=False, **options,
        )
        self.crash_in_merge(hot, tmp_path / "crashed", **options)
        manifest = load_manifest(tmp_path / "crashed")
        runs = manifest["stages"][-1]
        assert runs["label"] == "sort-runs" and runs["run_keys"]
        resumed = run_real_join(
            "sort-merge", hot, str(tmp_path / "crashed"),
            use_processes=False, collect_pairs=False, resume=True,
            **options,
        )
        assert resumed.resume["passes_skipped"] == 2
        assert resumed.rebalance == baseline.rebalance
        assert resumed.pass_checksums == baseline.pass_checksums
        assert resumed.checksum == baseline.checksum

    def test_per_run_file_manifest_is_declined(self, hot, tmp_path):
        """What the build that wrote one file per run left behind."""
        baseline = run_real_join(
            "sort-merge", hot, str(tmp_path / "baseline"),
            use_processes=False, collect_pairs=False,
        )
        store = tmp_path / "crashed"
        self.crash_in_merge(hot, store)
        document = json.loads(manifest_path(store).read_text())
        document["version"] = 1
        for artifact in document["stages"][-1]["artifacts"]:
            artifact["path"] = artifact["path"].replace(".seg", "_0.seg")
        del document["stages"][-1]["run_keys"]
        manifest_path(store).write_text(json.dumps(document))
        resumed = run_real_join(
            "sort-merge", hot, str(store), use_processes=False,
            collect_pairs=False, resume=True,
        )
        assert resumed.resume["resumed"] is False
        assert "version 1" in resumed.resume["reason"]
        assert resumed.pass_checksums == baseline.pass_checksums
        assert resumed.checksum == baseline.checksum
