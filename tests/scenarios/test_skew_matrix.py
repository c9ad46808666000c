"""Skewed joins end to end through the CLI: every plan on two skewed
workloads matches the oracle, runs one task per partition, and under a
tight memory budget degrades without changing its answer.

Each cell runs the same commands a user would:
``repro join PLAN --real --scale 0.2 --seed 96 FLAGS --stats-out ...``,
``repro stats validate``, then the join again with
``--mem-budget 2M --on-pressure degrade``.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.joins import expected_checksum
from repro.workload import WorkloadSpec, generate_workload

PLANS = ["nested-loops", "sort-merge", "grace", "hybrid-hash"]
WORKLOADS = {
    "zipf": ["--distribution", "zipf", "--dist-arg", "theta=1"],
    "partition-hot": ["--distribution", "partition_hot"],
}


def join(algorithm, flags, stats_out, *extra):
    argv = [
        "join", algorithm, "--real", "--scale", "0.2", "--seed", "96",
        *flags, *extra, "--stats-out", str(stats_out),
    ]
    assert main(argv) == 0
    return json.loads(stats_out.read_text())


def oracle_checksum(flags):
    distribution = flags[flags.index("--distribution") + 1]
    args = dict(
        flags[k + 1].split("=")
        for k, flag in enumerate(flags) if flag == "--dist-arg"
    )
    spec = dataclasses.replace(
        WorkloadSpec.paper_validation(scale=0.2, seed=96),
        distribution=distribution,
        distribution_args={key: int(value) for key, value in args.items()},
    )
    return expected_checksum(generate_workload(spec, 4))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", PLANS)
def test_skewed_join(algorithm, workload, tmp_path, capsys):
    flags = WORKLOADS[workload]

    # Skewed join matches the oracle, one task per partition.
    plain = join(algorithm, flags, tmp_path / "plain.json")
    assert main(["stats", "validate", str(tmp_path / "plain.json")]) == 0
    oracle = oracle_checksum(flags)
    assert plain["totals"]["checksum"] == oracle, (
        plain["totals"]["checksum"], oracle)
    disks = plain["meta"]["disks"]
    for label, workers in plain["per_worker"].items():
        assert list(workers) == [str(i) for i in range(disks)], (
            label, list(workers))

    # Tight memory budget degrades, does not fall over.  2 MiB: every
    # (plan, workload) cell is admitted at least two ladder rungs down.
    governed = join(
        algorithm, flags, tmp_path / "governed.json",
        "--mem-budget", "2M", "--on-pressure", "degrade",
    )
    for field in ("pair_count", "checksum"):
        assert governed["totals"][field] == plain["totals"][field], (
            field, governed["totals"][field], plain["totals"][field])
    record = governed["totals"]["governor"]
    assert record["degradations_total"] >= 1, record
