"""A faulted join recovers bit-identically, end to end through the CLI.

Every plan that runs the probe kernel (grace, hybrid-hash) takes one
fault in partition 0 of its first ``grace_probe`` attempt, on a real
worker pool:

* ``crash`` — the worker process dies mid-task; only the task timeout
  notices, and the retry recomputes the partition;
* ``bit-flip`` — the worker publishes its real ``PAIRS_probe`` segment,
  a payload bit of it flips right after the rename, and the worker
  dies; the retry overwrites it before anything reads it.

Each cell runs the commands a user would:
``repro join PLAN --real --scale 0.02 --stats-out ...`` once clean, and
once with ``--task-timeout 2 --retries 2 --fault-plan ...``.  A healthy
task at this scale takes milliseconds, so two seconds only ever times
out the dead worker.
"""

import json

import pytest

from repro.cli import main

PLANS = ["grace", "hybrid-hash"]
FAULTS = ["crash", "bit-flip"]


def join(algorithm, stats_out, *extra):
    argv = [
        "join", algorithm, "--real", "--scale", "0.02", *extra,
        "--stats-out", str(stats_out),
    ]
    assert main(argv) == 0
    return json.loads(stats_out.read_text())


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    return {plan: join(plan, root / f"{plan}.json") for plan in PLANS}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("algorithm", PLANS)
def test_faulted_join_recovers(algorithm, fault, clean, tmp_path):
    plan = {"faults": [
        {"kind": fault, "task": "grace_probe", "partition": 0, "attempt": 0}
    ]}
    faulted = join(
        algorithm, tmp_path / "faulted.json",
        "--task-timeout", "2", "--retries", "2",
        "--fault-plan", json.dumps(plan),
    )
    baseline = clean[algorithm]
    for field in ("pair_count", "checksum"):
        assert faulted["totals"][field] == baseline["totals"][field], (
            field, faulted["totals"][field], baseline["totals"][field])
    recovery = faulted["totals"]["recovery"]
    assert recovery["retries"] >= 1, recovery
    retries = sum(
        value
        for key, value in faulted["totals"]["counters"].items()
        if key.startswith("runner.retries_total")
    )
    assert retries == recovery["retries"], (retries, recovery)
    assert baseline["totals"]["recovery"] == {
        "retries": 0, "timeouts": 0, "inline_fallbacks": 0}
    # Pair traffic is conserved: one S dereference, one PAIRS record
    # and one worker.pairs count per pair, retried attempts dropped.
    counters = faulted["totals"]["counters"]
    traffic = (counters.get("storage.deref.records{kind=S}"),
               counters.get("storage.write.records{kind=PAIRS}"),
               counters.get("worker.pairs"),
               faulted["totals"]["pair_count"])
    assert len(set(traffic)) == 1, traffic
