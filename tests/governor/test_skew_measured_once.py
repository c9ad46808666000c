"""Admission prices a plan from numbers, not from another walk over R.

``fit_plan`` calls ``predict_footprint`` once per ladder rung, the runner
re-predicts after a run that degraded, and the stats document reports the
skew again; all of them share the one measurement a ``Workload`` makes.
"""

import pytest

from repro.core import partition
from repro.governor import JoinPlan, fit_plan, predict_footprint
from repro.parallel import run_real_join
from repro.workload import WorkloadSpec, generate_workload

ALGORITHMS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")
#: The benchmark's warm_budget shape (4 MiB at scale 1.0), a quarter size.
SCALE, BUDGET = 0.25, 1 << 20


@pytest.fixture
def skew_calls(monkeypatch):
    calls = []
    kernel = partition.column_skew

    def counting(sptr_columns, pointer_map):
        calls.append(len(sptr_columns))
        return kernel(sptr_columns, pointer_map)

    monkeypatch.setattr(partition, "column_skew", counting)
    return calls


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_one_measurement_per_workload(algorithm, skew_calls, tmp_path):
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=SCALE, seed=11), disks=4)
    result = run_real_join(
        algorithm, workload, str(tmp_path / "db"), use_processes=False,
        mem_budget=BUDGET, on_pressure="degrade", collect_metrics=True,
    )
    assert result.governor["admission_degradations"] >= 2  # the ladder was walked
    document = result.stats_document(workload)
    assert document["meta"]["skew"] == round(workload.measured_skew(), 4)
    assert skew_calls == [4]


def test_ladder_walk_is_arithmetic(skew_calls):
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=SCALE, seed=11), disks=4)
    plan, rungs, estimate = fit_plan(
        "sort-merge", workload, JoinPlan(), BUDGET // 4)
    assert rungs >= 5
    assert estimate == predict_footprint("sort-merge", workload, plan, BUDGET // 4)
    assert workload.relation_parameters() == workload.relation_parameters()
    assert skew_calls == [4]
    # A second workload measures for itself.
    other = generate_workload(WorkloadSpec(r_objects=64, s_objects=64), disks=2)
    other.measured_skew()
    assert skew_calls == [4, 2]
