"""The budgeted sort-merge merge: bounded fan-in, several passes, one answer.

Two layers of evidence that merging ``F`` consecutive runs at a time is
the same merge as opening every run at once:

* a property test over the vector kernel itself — drawn run counts,
  lengths (empty and one-record runs included), heavy key ties across
  runs, fan-ins and chunk sizes — whose emitted ``(rid, sptr, payload)``
  stream must equal one stable sort of the concatenated runs; and
* engine-level runs under a budget that forces at least two merge passes,
  bit-identical to the unbudgeted run and to the per-record oracle, leaving
  no merge level behind on success, on a crash, under memory pressure,
  or when a merge dies half way; each level is one RUN-format segment.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import assume, given, settings, strategies as st

from repro.governor import JoinPlan
from repro.governor.predict import FIT_MARGIN, merge_fanin
from repro.governor.watchdog import (
    MemoryMeter,
    activate_meter,
    deactivate_meter,
)
from repro.obs.registry import active
from repro.parallel import FaultPlan, run_real_join, vectorized
from repro.parallel.engine.task import TaskSpec, run_name
from repro.storage.relation import SortedRunsFile
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload
from tests.conftest import store_tree_problems
from tests.parallel.scalar_oracle import read_pairs

R_BYTES = S_BYTES = 128


def budget_for(fanin: int, chunk: int) -> int:
    """A worker budget whose fit target holds exactly ``fanin`` chunks."""
    held = chunk * (R_BYTES + S_BYTES) + fanin * chunk * R_BYTES
    budget = math.ceil((held + chunk * R_BYTES // 2) / FIT_MARGIN)
    assert merge_fanin(budget, chunk, R_BYTES, S_BYTES) == fanin
    return budget


def merge_scratch(root) -> list:
    """Merge levels (published or not) left under a store."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("MRG*"))


def merge_runs(runs, keys, irun, fanin, chunk):
    """Write ``runs`` (sorted ``(rid, sptr, payload)`` column triples) as
    one sort-run task's RUN segment, run the merge kernel on it under a
    ``fanin``-run budget with ``chunk``-record batches, and return
    ``(emitted pairs, the meter's high-water bytes, chunk loads, merge
    rounds)`` — a round is one stable sort of the taken slices."""
    # One disk, ``keys`` S objects: every run draws its pointers from the
    # same handful of keys, so ties span runs, segments and passes.
    workload = generate_workload(
        WorkloadSpec(r_objects=keys, s_objects=keys, seed=3), disks=1
    )
    with tempfile.TemporaryDirectory() as root:
        store = Store(root, 1)
        store.materialize(workload)
        path = store.path(0, run_name(0))
        rel = SortedRunsFile.create(
            path, max(1, sum(len(run[0]) for run in runs)), irun, R_BYTES
        )
        for run in runs:
            rel.append_run(rel.segment.layout.pack_columns(*run))
        rel.close()
        before = path.read_bytes()
        counts = {"loads": 0, "rounds": 0}
        load = vectorized._RunCursor.load
        stable_order = vectorized._stable_order

        def counted_load(cursor, *args):
            counts["loads"] += 1
            return load(cursor, *args)

        def counted_order(keys):
            counts["rounds"] += 1
            return stable_order(keys)

        meter = activate_meter(MemoryMeter())
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(vectorized._RunCursor, "load", counted_load)
                patch.setattr(vectorized, "_stable_order", counted_order)
                result = vectorized.sort_merge_merge_join(
                    TaskSpec(
                        store_root=root, disks=1, partition=0,
                        s_objects=keys, r_bytes=R_BYTES,
                        plan=JoinPlan(batch_records=chunk),
                        worker_mem_budget=budget_for(fanin, chunk),
                    )
                )
        finally:
            deactivate_meter()
        emitted = read_pairs(result.path)
        assert result.count == len(emitted)
        # The sort-run stage's segment is read, never rewritten.
        assert path.read_bytes() == before
        assert merge_scratch(store.root) == []
    return emitted, meter.high_water_bytes, counts["loads"], counts["rounds"]


def assert_one_stable_sort(emitted, runs):
    rid, sptr, payload = (
        np.concatenate([run[k] for run in runs] + [np.empty(0, np.uint64)])
        for k in range(3)
    )
    order = np.argsort(sptr, kind="stable")
    assert [(p.rid, p.sid, p.r_payload) for p in emitted] == list(
        zip(rid[order].tolist(), sptr[order].tolist(),
            payload[order].tolist())
    )


class TestMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(0, 90),
        irun=st.integers(1, 12),
        keys=st.integers(1, 8),
        fanin=st.integers(2, 8),
        chunk=st.sampled_from([1, 3, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_multi_pass_merge_is_one_stable_sort(
        self, length, irun, keys, fanin, chunk, seed
    ):
        rng = np.random.default_rng(seed)
        # One sort-run task's RUN segment, cut into ``irun``-record sorted
        # extents (only the last short).
        runs = []
        for lo in range(0, length, irun):
            n = min(irun, length - lo)
            sptr = np.sort(rng.integers(0, keys, n).astype(np.uint64))
            rid = np.arange(lo, lo + n, dtype=np.uint64)
            payload = rng.integers(0, 2**32, n).astype(np.uint64)
            runs.append((rid, sptr, payload))
        emitted, _, loads, rounds = merge_runs(runs, keys, irun, fanin, chunk)
        assert_one_stable_sort(emitted, runs)
        assert rounds <= loads

    @settings(max_examples=40, deadline=None)
    @given(
        hot=st.lists(st.integers(0, 12), min_size=2, max_size=10),
        irun=st.integers(1, 12),
        fanin=st.integers(2, 8),
        chunk=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_hot_key_tie_group_streams_in_bounded_memory(
        self, hot, irun, fanin, chunk, seed
    ):
        """A hot key whose tie group spans several runs and outgrows every
        open run's chunk together: the output is still one stable sort,
        the merge never holds more than one chunk per open run plus one
        joined batch, and every round empties at least one chunk, so no
        round serves only the ties its predecessor left."""
        hot = [min(n, irun) for n in hot]
        assume(sum(hot) > fanin * chunk and sum(1 for n in hot if n) >= 2)
        rng = np.random.default_rng(seed)
        keys, hot_key = 5, 2
        # One cutter's segment of ``irun``-record runs, ``n`` hot each.
        runs = []
        for index, n in enumerate(hot):
            sptr = np.sort(np.concatenate([
                np.full(n, hot_key, dtype=np.uint64),
                rng.integers(0, keys, irun - n).astype(np.uint64),
            ]))
            rid = np.arange(index * irun, (index + 1) * irun, dtype=np.uint64)
            payload = rng.integers(0, 2**32, irun).astype(np.uint64)
            runs.append((rid, sptr, payload))
        emitted, high_water, loads, rounds = merge_runs(
            runs, keys, irun, fanin, chunk
        )
        assert_one_stable_sort(emitted, runs)
        assert high_water <= (
            min(len(runs), fanin) * chunk * R_BYTES
            + chunk * (R_BYTES + S_BYTES)
        )
        assert rounds <= loads


SCALE, BUDGET = 0.25, 1 << 20  # the bench's warm_budget shape, a quarter size
TWO_LEVELS = 256 << 10  # three merge passes: levels 0 and 1, then the join


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadSpec.paper_validation(scale=SCALE, seed=11), disks=4
    )


@pytest.fixture(scope="module")
def unbudgeted(workload, tmp_path_factory):
    return run_real_join(
        "sort-merge", workload, str(tmp_path_factory.mktemp("plain") / "db"),
        use_processes=False, collect_pairs=False,
    )


@pytest.fixture(scope="module")
def zipf():
    return generate_workload(
        dataclasses.replace(
            WorkloadSpec.paper_validation(scale=SCALE, seed=7),
            distribution="zipf",
        ),
        disks=4,
    )


@pytest.fixture(scope="module")
def zipf_unbudgeted(zipf, tmp_path_factory):
    return run_real_join(
        "sort-merge", zipf, str(tmp_path_factory.mktemp("zipf") / "db"),
        use_processes=False, collect_pairs=False,
    )


def budgeted(workload, root, budget=BUDGET, **kwargs):
    return run_real_join(
        "sort-merge", workload, str(root), use_processes=False,
        collect_pairs=False, keep_store=True, mem_budget=budget,
        on_pressure="degrade", **kwargs,
    )


def assert_same_answer(result, reference):
    assert result.pair_count == reference.pair_count
    assert result.checksum == reference.checksum
    assert result.pass_counts == reference.pass_counts
    assert result.pass_checksums == reference.pass_checksums


def assert_store_clean(root):
    assert store_tree_problems(root) == []
    assert merge_scratch(root) == []
    assert list(root.rglob("*.seg.tmp")) == []
    # The merge only ever read the sort-run stage's checkpointed segments.
    assert list(root.rglob("RUN*.seg"))


class TestBudgetedEngine:
    def test_two_passes_bit_identical(
        self, workload, unbudgeted, tmp_path, scalar_kernels
    ):
        result = budgeted(workload, tmp_path / "db")
        details = result.governor["predicted"]["details"]
        assert details["merge_passes"] >= 2
        assert details["merge_runs"] > details["merge_fanin"]
        assert result.governor["runtime_degradations"] == 0
        assert_same_answer(result, unbudgeted)
        assert_store_clean(tmp_path / "db")
        with scalar_kernels():
            scalar = run_real_join(
                "sort-merge", workload, str(tmp_path / "scalar"),
                use_processes=False, collect_pairs=False,
            )
        assert_same_answer(result, scalar)

    @pytest.mark.parametrize(
        "budget", [1 << 20, 512 << 10], ids=["1MiB", "512KiB"]
    )
    def test_zipf_hot_key_takes_no_runtime_rung(
        self, zipf, zipf_unbudgeted, budget, tmp_path
    ):
        """A zipf hot key ties across every run.  Its tie group streams
        through the merge one chunk at a time, so the admitted plan's
        prediction holds and the meter never trips."""
        result = run_real_join(
            "sort-merge", zipf, str(tmp_path / "db"), use_processes=False,
            collect_pairs=False, mem_budget=budget, on_pressure="degrade",
        )
        governor = result.governor
        assert governor["runtime_degradations"] == 0
        observed = governor["observed"]["worker_mem_high_water_bytes"]
        assert observed <= governor["predicted"]["mem_high_water_bytes"]
        assert_same_answer(result, zipf_unbudgeted)

    def test_rungs_are_reported(self, workload, tmp_path):
        result = budgeted(workload, tmp_path / "db")
        governor = result.governor
        rungs = governor["rungs"]
        assert len(rungs) == governor["degradations_total"] >= 2
        assert {rung["knob"] for rung in rungs} <= {"batch_records", "irun"}
        assert rungs[-1]["to"] == governor["plan"][rungs[-1]["knob"]]
        assert (
            rungs[-1]["predicted_high_water_bytes"]
            == governor["predicted"]["mem_high_water_bytes"]
        )

    def test_crash_in_every_pass_recovers(self, workload, unbudgeted, tmp_path):
        result = budgeted(
            workload, tmp_path / "db",
            fault_plan=FaultPlan.crash_every_pass("sort-merge"), retries=2,
        )
        assert result.retries_total > 0
        assert_same_answer(result, unbudgeted)
        assert_store_clean(tmp_path / "db")

    def test_memory_pressure_in_the_merge_takes_a_vector_rung(
        self, workload, unbudgeted, tmp_path
    ):
        result = budgeted(
            workload, tmp_path / "db",
            fault_plan=FaultPlan.single(
                "mem-pressure", "sort_merge_merge_join", 0
            ),
        )
        governor = result.governor
        assert governor["runtime_degradations"] == 1
        assert governor["rungs"][-1]["knob"] == "batch_records"
        assert_same_answer(result, unbudgeted)
        assert_store_clean(tmp_path / "db")

    def test_merge_dying_half_way_leaves_nothing_and_retries(
        self, workload, unbudgeted, tmp_path, monkeypatch
    ):
        """Kill the first attempt after it has published level 0 and while
        it writes level 1: its sweep must take the level, and the retry
        must find the sort runs intact."""
        root = tmp_path / "db"
        merge_runs = vectorized._merge_runs
        sweep = vectorized.sweep_merge_runs
        calls = []

        def dying(cursors, *args):
            if cursors[0].rel.segment.path.name == "MRG0_0.seg":
                calls.append(len(cursors))
                if len(calls) == 2:  # level 1's first group is written
                    assert merge_scratch(root) == [
                        "disk0/MRG0_0.seg", "disk0/MRG0_1.seg.tmp"
                    ]
                    raise RuntimeError("injected: merge died in level 1")
            return merge_runs(cursors, *args)

        def swept(store, partition):
            sweep(store, partition)
            assert merge_scratch(root) == []  # killed attempt's included

        monkeypatch.setattr(vectorized, "_merge_runs", dying)
        monkeypatch.setattr(vectorized, "sweep_merge_runs", swept)
        result = budgeted(workload, root, budget=TWO_LEVELS, retries=1)
        assert result.governor["predicted"]["details"]["merge_passes"] == 3
        assert result.retries_total == 1
        assert len(calls) > 2
        assert_same_answer(result, unbudgeted)
        assert_store_clean(root)


#: Budgets whose merge tasks write one level with and without a one-run
#: rider (7 and 13 runs at fan-in 4), and two levels (25-26 runs).
LAYOUTS = {"1MiB": 1 << 20, "512KiB-rider": 512 << 10, "256KiB": TWO_LEVELS}


def has_rider(runs: int, fanin: int) -> bool:
    """Whether some level's last group is a single run."""
    while runs > fanin:
        if runs % fanin == 1:
            return True
        runs = -(-runs // fanin)
    return False


class TestLevelLayout:
    """Each bounded-fan-in level is one RUN-format ``MRG`` segment."""

    @pytest.mark.parametrize("budget", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_one_segment_per_level(
        self, workload, unbudgeted, budget, tmp_path, monkeypatch
    ):
        root = tmp_path / "db"
        levels = {}  # (partition, level) -> what was published
        real_open = SortedRunsFile.open.__func__

        def observed_open(cls, path):
            rel = real_open(cls, path)
            name = Path(path).stem
            if name.startswith("MRG"):
                # A level is opened once, as soon as it is published; the
                # level it merged is gone by then.
                partition, level = map(int, name[3:].split("_"))
                assert merge_scratch(root) == [f"disk{partition}/{name}.seg"]
                written = active().counter_value(
                    "storage.write.records", kind="MRG"
                )
                levels[partition, level] = (rel.irun, rel.extents(), written)
            return rel

        monkeypatch.setattr(SortedRunsFile, "open", classmethod(observed_open))
        result = budgeted(workload, root, budget=budget)
        assert_same_answer(result, unbudgeted)
        assert_store_clean(root)
        details = result.governor["predicted"]["details"]
        fanin = int(details["merge_fanin"])
        passes = int(details["merge_passes"])
        store = Store(root, workload.disks)
        riders = []
        for i in range(workload.disks):
            with SortedRunsFile.open(store.path(i, run_name(i))) as cut:
                irun, runs, inbound = cut.irun, len(cut.extents()), len(cut)
            riders.append(has_rider(runs, fanin))
            counters = result.worker_metrics["merge-join"][i]["counters"]
            assert counters["storage.map.new{kind=MRG}"] == passes - 1
            assert counters["storage.write.records{kind=MRG}"] == (
                (passes - 1) * inbound
            )
            for level in range(passes - 1):
                stride, extents, written = levels[i, level]
                runs = -(-runs // fanin)
                assert stride == irun * fanin ** (level + 1)
                assert len(extents) == runs
                assert [hi - lo for lo, hi in extents[:-1]] == (
                    [stride] * (runs - 1)
                )
                assert extents[-1][1] == inbound
                # Every level rewrites the whole inbound, rider included.
                assert written == (level + 1) * inbound
        assert len(levels) == workload.disks * (passes - 1)
        assert any(riders) == (budget != 1 << 20)
