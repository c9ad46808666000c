"""Admission prices a plan from numbers, not from another walk over R.

``fit_plan`` calls ``predict_footprint`` once per ladder rung, the runner
re-predicts after a run that degraded, and the stats document reports the
skew again; all of them share the one measurement a ``Workload`` makes —
and admission prices each plan it visits exactly once.
"""

import pytest

from repro.core import partition
from repro.governor import JoinPlan, fit_plan, predict, predict_footprint
from repro.parallel import FaultPlan, FaultSpec, run_real_join
from repro.parallel import runner
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


@pytest.fixture
def predictions(monkeypatch):
    """Every plan priced, whether by the runner or inside ``fit_plan``."""
    priced = []
    kernel = predict.predict_footprint

    def counting(algorithm, workload, plan, worker_mem_budget_bytes=None):
        priced.append(plan)
        return kernel(algorithm, workload, plan, worker_mem_budget_bytes)

    monkeypatch.setattr(predict, "predict_footprint", counting)
    monkeypatch.setattr(runner, "predict_footprint", counting)
    return priced


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_admission_prices_each_plan_once(algorithm, predictions, tmp_path):
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=SCALE, seed=11), disks=4)
    result = run_real_join(
        algorithm, workload, str(tmp_path / "db"), use_processes=False,
        mem_budget=BUDGET, on_pressure="degrade", collect_pairs=False,
    )
    rungs = result.governor["admission_degradations"]
    assert rungs >= 2 and result.governor["runtime_degradations"] == 0
    assert len(predictions) == rungs + 1
    assert len(set(predictions)) == len(predictions)


def test_runtime_degradation_reprices_only_the_final_plan(predictions, tmp_path):
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=SCALE, seed=11), disks=4)
    result = run_real_join(
        "grace", workload, str(tmp_path / "db"), use_processes=False,
        mem_budget=BUDGET, on_pressure="degrade", collect_pairs=False,
        fault_plan=FaultPlan(
            [FaultSpec("mem-pressure", "grace_probe", 0, attempt=0)]),
    )
    assert result.governor["runtime_degradations"] == 1
    assert len(predictions) == result.governor["admission_degradations"] + 2
    # Without a ladder to walk, the one prediction is the runner's own.
    predictions.clear()
    run_real_join(
        "grace", workload, str(tmp_path / "db2"), use_processes=False,
        mem_budget=1 << 30, on_pressure="fail", collect_pairs=False,
    )
    assert len(predictions) == 1
