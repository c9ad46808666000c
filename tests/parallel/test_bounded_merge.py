"""The budgeted sort-merge merge: bounded fan-in, several passes, one answer.

Two layers of evidence that merging ``F`` consecutive runs at a time is
the same merge as opening every run at once:

* a property test over the vector kernel itself — drawn run counts,
  lengths (empty and one-record runs included), heavy key ties across
  runs, fan-ins and chunk sizes — whose emitted ``(rid, sptr, payload)``
  stream must equal one stable sort of the concatenated runs; and
* engine-level runs under a budget that forces at least two merge passes,
  bit-identical to the unbudgeted run and to the per-record oracle, leaving
  no intermediate behind on success, on a crash, under memory pressure,
  or when a merge dies half way.
"""

import dataclasses
import math
import tempfile

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
    """Intermediate merge runs (published or not) left under a store."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("MRG*"))


def merge_runs(runs, keys, irun, fanin, chunk):
    """Write ``runs`` (sorted ``(rid, sptr, payload)`` column triples) as
    one sort-run task's RUN segment, run the merge kernel on it under a
    ``fanin``-run budget with ``chunk``-record batches, and return
    ``(emitted pairs, the meter's high-water bytes)``."""
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
        meter = activate_meter(MemoryMeter())
        try:
            result = vectorized.sort_merge_merge_join(
                TaskSpec(
                    store_root=root, disks=1, partition=0, s_objects=keys,
                    r_bytes=R_BYTES,
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
    return emitted, meter.high_water_bytes


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
        emitted, _ = merge_runs(runs, keys, irun, fanin, chunk)
        assert_one_stable_sort(emitted, runs)

    @settings(max_examples=40, deadline=None)
    @given(
        hot=st.lists(st.integers(0, 12), min_size=2, max_size=5),
        irun=st.integers(1, 12),
        fanin=st.integers(2, 4),
        chunk=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_hot_key_tie_group_streams_in_bounded_memory(
        self, hot, irun, fanin, chunk, seed
    ):
        """A hot key whose tie group spans several runs and outgrows every
        open run's chunk together: the output is still one stable sort,
        and the merge never holds more than one chunk per open run plus
        one joined batch."""
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
        emitted, high_water = merge_runs(runs, keys, irun, fanin, chunk)
        assert_one_stable_sort(emitted, runs)
        assert high_water <= (
            min(len(runs), fanin) * chunk * R_BYTES
            + chunk * (R_BYTES + S_BYTES)
        )


SCALE, BUDGET = 0.25, 1 << 20  # the bench's warm_budget shape, a quarter size


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


def budgeted(workload, root, **kwargs):
    return run_real_join(
        "sort-merge", workload, str(root), use_processes=False,
        collect_pairs=False, keep_store=True, mem_budget=BUDGET,
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
        """Kill the first attempt after it has published intermediates:
        its sweep must take them, and the retry must find the sort runs
        intact."""
        merge_group = vectorized._merge_group
        calls = []

        def dying(out_path, *args):
            calls.append(out_path.name)
            if len(calls) == 2:
                assert merge_scratch(tmp_path / "db")  # one is published
                raise RuntimeError("injected: merge died between groups")
            return merge_group(out_path, *args)

        monkeypatch.setattr(vectorized, "_merge_group", dying)
        result = budgeted(workload, tmp_path / "db", retries=1)
        assert result.retries_total == 1
        assert len(calls) > 2
        assert_same_answer(result, unbudgeted)
        assert_store_clean(tmp_path / "db")
