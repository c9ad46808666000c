"""Joins under resource pressure, end to end through the CLI.

Every plan runs twice at scale 0.02 on a real worker pool, the way a
user would:

* under ``--mem-budget 256K --on-pressure degrade`` with a
  ``mem-pressure`` fault in partition 0 of its last task, it degrades at
  admission and again at runtime, and its answer matches the clean run;
* with a ``disk-full`` fault in partition 0 of its first task and
  ``--on-pressure fail``, it exits 3 with a classified message and
  leaves no unpublished segment in its store.
"""

import json

import pytest

from repro.cli import main

PLANS = ["nested-loops", "sort-merge", "grace", "hybrid-hash"]
#: Where the memory-pressure fault fires: each plan's last task.
PRESSURE_TASK = {
    "nested-loops": "nested_loops_pass1",
    "sort-merge": "sort_merge_merge_join",
    "grace": "grace_probe",
    "hybrid-hash": "grace_probe",
}
#: Where the disk-full fault fires: each plan's first task.
ENOSPC_TASK = {
    "nested-loops": "nested_loops_pass0",
    "sort-merge": "sort_merge_partition",
    "grace": "grace_partition",
    "hybrid-hash": "hybrid_hash_partition",
}
#: The segment kind each spilling plan writes one file of per task.
SPILL = {"grace": "BS", "hybrid-hash": "BS", "sort-merge": "RUN"}


def fault_plan(kind, task):
    return json.dumps({"faults": [
        {"kind": kind, "task": task, "partition": 0, "attempt": 0}
    ]})


def join(algorithm, *extra):
    return main(["join", algorithm, "--real", "--scale", "0.02", *extra])


def assert_no_raw_error(err):
    assert "Traceback" not in err, err
    for line in err.splitlines():
        assert not line.startswith(("OSError", "MemoryError")), err


@pytest.mark.parametrize("algorithm", PLANS)
def test_pressured_join_degrades_bit_identically(algorithm, tmp_path, capsys):
    assert join(algorithm, "--stats-out", str(tmp_path / "clean.json")) == 0
    assert join(
        algorithm, "--mem-budget", "256K", "--on-pressure", "degrade",
        "--fault-plan", fault_plan("mem-pressure", PRESSURE_TASK[algorithm]),
        "--stats-out", str(tmp_path / "pressured.json"),
    ) == 0
    assert_no_raw_error(capsys.readouterr().err)
    clean = json.loads((tmp_path / "clean.json").read_text())
    pressured = json.loads((tmp_path / "pressured.json").read_text())
    for field in ("pair_count", "checksum"):
        assert pressured["totals"][field] == clean["totals"][field], (
            field, pressured["totals"][field], clean["totals"][field])
    governor = pressured["totals"]["governor"]
    assert governor["degradations_total"] >= 1, governor
    assert governor["runtime_degradations"] >= 1, governor
    predicted = governor["predicted"]["mem_high_water_bytes"]
    observed = governor["observed"]["worker_mem_high_water_bytes"]
    assert observed is not None and observed <= predicted, (
        observed, predicted)
    assert "governor" not in clean["totals"]
    # Pair traffic is conserved across the degraded round's re-run.
    counters = pressured["totals"]["counters"]
    traffic = (counters.get("storage.deref.records{kind=S}"),
               counters.get("storage.write.records{kind=PAIRS}"),
               counters.get("worker.pairs"),
               pressured["totals"]["pair_count"])
    assert len(set(traffic)) == 1, traffic
    if algorithm in SPILL:
        # One bucket spill per (target, contributor) and one run segment
        # per sort-run task, however many flushes or runs the plan cuts.
        # The counters describe the round that produced the answer, so a
        # degraded run makes exactly the clean run's files.
        key = f"storage.map.new{{kind={SPILL[algorithm]}}}"
        made, clean_made = counters[key], clean["totals"]["counters"][key]
        assert made == clean_made, (made, clean_made)
    if algorithm == "sort-merge":
        # One MRG segment per merge level per merge task: a task with r
        # runs merges groups of the priced fan-in f, level by level,
        # until at most f runs are left.
        irun = governor["plan"]["irun"]
        fanin = governor["predicted"]["details"]["merge_fanin"]
        levels = 0
        for worker in pressured["per_worker"]["merge-join"].values():
            inbound = worker["counters"]["storage.read.records{kind=RUN}"]
            runs = -(-inbound // irun)
            while runs > fanin:
                runs = -(-runs // fanin)
                levels += 1
        made = counters.get("storage.map.new{kind=MRG}", 0)
        assert levels >= 1 and made == levels, (made, levels)


@pytest.mark.parametrize("algorithm", PLANS)
def test_injected_enospc_is_classified(algorithm, tmp_path, capsys):
    store = tmp_path / "enospc-store"
    status = join(
        algorithm, "--on-pressure", "fail", "--store", str(store),
        "--fault-plan", fault_plan("disk-full", ENOSPC_TASK[algorithm]),
    )
    err = capsys.readouterr().err
    assert status == 3, err
    assert "resource exhausted" in err, err
    assert "disk" in err.lower(), err
    assert_no_raw_error(err)
    leftovers = list(store.rglob("*.seg.tmp"))
    assert leftovers == [], f"run artifacts leaked into the store: {leftovers}"
