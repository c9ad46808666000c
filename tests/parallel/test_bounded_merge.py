"""The budgeted sort-merge merge: bounded fan-in, several passes, one answer.

Two layers of evidence that merging ``F`` consecutive runs at a time is
the same merge as opening every run at once:

* a property test over the vector kernel itself — drawn run counts,
  lengths (empty and one-record runs included), heavy key ties across
  runs, fan-ins and chunk sizes — whose emitted ``(rid, sptr, payload)``
  stream must equal one stable sort of the concatenated runs; and
* engine-level runs under a budget that forces at least two merge passes,
  bit-identical to the unbudgeted run and to the scalar kernels, leaving
  no intermediate behind on success, on a crash, under memory pressure,
  or when a merge dies half way.
"""

import math
import tempfile

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.governor import JoinPlan
from repro.governor.predict import FIT_MARGIN, merge_fanin
from repro.parallel import FaultPlan, run_real_join, vectorized
from repro.parallel.engine.task import TaskSpec, run_name, run_paths
from repro.storage.relation import RRelationFile, read_pairs
from repro.storage.store import Store
from repro.workload import WorkloadSpec, generate_workload
from tests.conftest import store_tree_problems

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


class TestMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 12), min_size=1, max_size=40),
        keys=st.integers(1, 8),
        fanin=st.integers(2, 8),
        chunk=st.sampled_from([1, 3, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_multi_pass_merge_is_one_stable_sort(
        self, lengths, keys, fanin, chunk, seed
    ):
        rng = np.random.default_rng(seed)
        # One disk, ``keys`` S objects: every run draws its pointers from
        # the same handful of keys, so ties span runs and passes.
        workload = generate_workload(
            WorkloadSpec(r_objects=keys, s_objects=keys, seed=3), disks=1
        )
        runs = []
        next_rid = 0
        for length in lengths:
            sptr = np.sort(rng.integers(0, keys, length).astype(np.uint64))
            rid = np.arange(next_rid, next_rid + length, dtype=np.uint64)
            payload = rng.integers(0, 2**32, length).astype(np.uint64)
            next_rid += length
            runs.append((rid, sptr, payload))
        with tempfile.TemporaryDirectory() as root:
            store = Store(root, 1)
            store.materialize(workload)
            for run_id, (rid, sptr, payload) in enumerate(runs):
                rel = RRelationFile.create(
                    store.path(0, run_name(0, run_id)), max(1, len(rid)),
                    R_BYTES,
                )
                rel.append_columns(rid, sptr, payload)
                rel.close()
            before = [path.read_bytes() for path in run_paths(store, 0)]
            result = vectorized.sort_merge_merge_join(
                TaskSpec(
                    store_root=root, disks=1, partition=0, s_objects=keys,
                    r_bytes=R_BYTES,
                    plan=JoinPlan(batch_records=chunk),
                    worker_mem_budget=budget_for(fanin, chunk),
                )
            )
            emitted = read_pairs(result.path)
            # The sort-run stage's runs are read, never rewritten.
            assert [p.read_bytes() for p in run_paths(store, 0)] == before
            assert merge_scratch(store.root) == []
        rid = np.concatenate([run[0] for run in runs])
        sptr = np.concatenate([run[1] for run in runs])
        payload = np.concatenate([run[2] for run in runs])
        order = np.argsort(sptr, kind="stable")
        assert result.count == len(order)
        assert [(p.rid, p.sid, p.r_payload) for p in emitted] == list(
            zip(rid[order].tolist(), sptr[order].tolist(),
                payload[order].tolist())
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
    # The merge only ever read the sort-run stage's checkpointed runs.
    assert list(root.rglob("RUN*.seg"))


class TestBudgetedEngine:
    def test_two_passes_bit_identical(self, workload, unbudgeted, tmp_path):
        result = budgeted(workload, tmp_path / "db")
        details = result.governor["predicted"]["details"]
        assert details["merge_passes"] >= 2
        assert details["merge_runs"] > details["merge_fanin"]
        assert result.kernel_mode == "vector"
        assert result.governor["runtime_degradations"] == 0
        assert_same_answer(result, unbudgeted)
        assert_store_clean(tmp_path / "db")
        scalar = run_real_join(
            "sort-merge", workload, str(tmp_path / "scalar"),
            use_processes=False, collect_pairs=False, kernels="scalar",
        )
        assert_same_answer(result, scalar)

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
        assert result.kernel_mode == "vector"
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
