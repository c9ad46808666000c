"""Extension: skew sensitivity (paper §4 / §5.3 vs §6.3).

The unsynchronized nested loops absorbs partition skew through extra
parallelism, while the synchronized sort-merge and Grace are gated by the
most loaded partition every pass.  This bench joins a uniform workload and
a partition-skewed workload of identical size and reports the slowdown of
each algorithm.

The real-backend matrix below exercises the executor's per-partition
rebalancing against the same skew families: every skewed workload x
algorithm pair is joined with ``rebalance="on"`` and ``rebalance="off"``,
the outputs must be bit-identical, and the max/mean per-task wall-time
ratio for each pass is recorded to the append-only
``results/BENCH_skew.json`` artifact.
"""

import json
import time

from conftest import RESULTS_DIR, bench_scale

from repro import config
from repro.harness.experiment import run_memory_sweep
from repro.harness.report import format_table
from repro.joins.reference import expected_checksum
from repro.parallel import run_real_join
from repro.workload import WorkloadSpec, generate_workload

FRACTION = 0.15

REAL_ALGORITHMS = (
    "nested-loops",
    "sort-merge",
    "grace",
    "hybrid-hash",
)
BENCH_PATH = RESULTS_DIR / "BENCH_skew.json"

#: The paper's validation geometry is 102,400 objects at scale 1.0; the
#: default matrix runs at 0.2 (REPRO_BENCH_SCALE overrides, and the
#: REPRO_BENCH_FULL=1 acceptance test pins zipf theta=1 at 1.0).
BASE_OBJECTS = 102_400


def make_workloads(scale):
    uniform = generate_workload(
        WorkloadSpec.paper_validation(scale=scale), disks=4
    )
    objects = uniform.spec.r_objects
    skewed = generate_workload(
        WorkloadSpec(
            r_objects=objects,
            s_objects=objects,
            distribution="partition_hot",
            distribution_args={"hot_fraction": 0.6, "hot_span": 0.25},
            seed=96,
        ),
        disks=4,
    )
    return uniform, skewed


def test_ext_skew_sensitivity(benchmark, bench_config, bench_machine, record):
    scale = bench_scale(0.08)
    uniform, skewed = make_workloads(scale)

    def run_all():
        out = {}
        for label, workload in (("uniform", uniform), ("skewed", skewed)):
            for name in ("nested-loops", "sort-merge", "grace"):
                sweep = run_memory_sweep(
                    name,
                    (FRACTION,),
                    machine=bench_machine,
                    sim_config=bench_config,
                    workload=workload,
                )
                out[(label, name)] = sweep.points[0].sim_ms
        return out

    elapsed = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name in ("nested-loops", "sort-merge", "grace"):
        u = elapsed[("uniform", name)]
        s = elapsed[("skewed", name)]
        rows.append([name, u, s, s / u])
    text = "\n".join(
        [
            "== Extension: skew sensitivity "
            f"(uniform skew={uniform.measured_skew():.2f}, "
            f"skewed={skewed.measured_skew():.2f}) ==",
            format_table(["algorithm", "uniform_ms", "skewed_ms", "ratio"], rows),
        ]
    )
    record("ext_skew", text)

    # Skew hurts everyone a little; the skewed run is never faster by much.
    for name in ("nested-loops", "sort-merge", "grace"):
        assert elapsed[("skewed", name)] > 0.9 * elapsed[("uniform", name)]


# ---------------------------------------------------------------------------
# Real-backend rebalance matrix
# ---------------------------------------------------------------------------


def matrix_specs(objects: int) -> dict:
    """The skewed workload families from the rebalancing study.

    ``selective`` is the low-hit-rate case: R carries an eighth of S's
    objects, so most S objects are never dereferenced and per-partition
    probe work is sparse.
    """
    return {
        "zipf": WorkloadSpec(
            r_objects=objects,
            s_objects=objects,
            distribution="zipf",
            distribution_args={"theta": 1.0},
            seed=96,
        ),
        "partition_hot": WorkloadSpec(
            r_objects=objects,
            s_objects=objects,
            distribution="partition_hot",
            distribution_args={"hot_fraction": 0.5, "hot_span": 0.25},
            seed=96,
        ),
        "clustered": WorkloadSpec(
            r_objects=objects,
            s_objects=objects,
            distribution="clustered",
            distribution_args={"run_length": 64},
            seed=96,
        ),
        "selective": WorkloadSpec(
            r_objects=max(objects // 8, 256),
            s_objects=objects,
            seed=96,
        ),
    }


#: Repeats per (workload, algorithm, mode) cell: per-task wall times at
#: vector-kernel speed sit in the low milliseconds, so ratios are taken
#: over the per-task *minimum* across repeats (the usual noise-robust
#: estimator for timing benchmarks).
REPEATS = config.env_int("bench_skew_repeats", 3)


def _task_time_ratios(walls_by_pass: dict) -> dict:
    """Per-pass max/mean wall-time ratio across that pass's tasks."""
    ratios = {}
    for label, walls_by_slot in walls_by_pass.items():
        walls = list(walls_by_slot.values())
        if len(walls) < 2:
            continue
        mean = sum(walls) / len(walls)
        if mean > 0:
            ratios[label] = max(walls) / mean
    return ratios


def _load_bench_runs() -> list:
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())["runs"]
    return []


def _append_bench_run(entry: dict) -> None:
    runs = _load_bench_runs()
    runs.append(entry)
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_PATH.write_text(
        json.dumps({"schema_version": 2, "runs": runs}, indent=2) + "\n"
    )


def _joined(algorithm, workload, store_root, mode):
    """Join REPEATS times; keep the last result and per-task min walls.

    Every repeat must produce the identical (pair_count, checksum) —
    sharding decisions are a pure function of measured sizes, so repeat
    divergence would be a determinism bug, not noise.
    """
    walls: dict = {}
    identities = set()
    result = None
    for repeat in range(REPEATS):
        # Repeats reuse the materialized store (the join-service path):
        # the first repeat pays the page-cache faults for R/S, so the
        # per-task minimum reflects warm-cache task times — otherwise
        # the first shard of each partition absorbs every fault its
        # siblings then skip, which reads as imbalance but is only the
        # serial harness's cache-warming order.
        result = run_real_join(
            algorithm,
            workload,
            str(store_root),
            use_processes=False,
            collect_pairs=False,
            keep_store=True,
            reuse_store=repeat > 0,
            rebalance=mode,
        )
        identities.add((result.pair_count, result.checksum))
        document = result.stats_document(workload)
        for label, workers in document["per_worker"].items():
            dest = walls.setdefault(label, {})
            for slot, entry in workers.items():
                wall = entry["wall_ms"]
                if slot not in dest or wall < dest[slot]:
                    dest[slot] = wall
    assert len(identities) == 1, (algorithm, mode, identities)
    return result, walls


def _run_matrix(workloads, algorithms, tmp_path):
    """Join every workload x algorithm with rebalance on and off.

    Returns one record per cell carrying both runs' identity tuples,
    the rebalance reports, and the per-pass task-time ratios.
    """
    cells = []
    for wname, workload in workloads.items():
        oracle = expected_checksum(workload)
        for algorithm in algorithms:
            runs = {}
            for mode in ("off", "on"):
                store = tmp_path / f"{wname}-{algorithm}-{mode}"
                result, walls = _joined(algorithm, workload, store, mode)
                runs[mode] = {
                    "pair_count": result.pair_count,
                    "checksum": result.checksum,
                    "wall_ms": result.wall_ms,
                    "task_ratios": _task_time_ratios(walls),
                    "rebalance": result.rebalance,
                }
            off, on = runs["off"], runs["on"]
            # The tentpole invariant: sharding moves work, not results.
            assert on["pair_count"] == off["pair_count"], (wname, algorithm)
            assert on["checksum"] == off["checksum"], (wname, algorithm)
            assert off["checksum"] == oracle, (wname, algorithm)
            splits = sum(
                report["splits"] for report in on["rebalance"].values()
            )
            for report in on["rebalance"].values():
                if not report["splits"]:
                    continue
                if report["pre_ratio"] >= 1.5:
                    # A genuinely skewed stage must come out flatter.
                    assert report["post_ratio"] < report["pre_ratio"]
                else:
                    # Force-sharding an already-balanced stage may be
                    # lumpy (a shard boundary cannot split one bucket)
                    # but must stay below the rebalance trigger ratio.
                    assert report["post_ratio"] < 1.5
            cells.append({
                "workload": wname,
                "algorithm": algorithm,
                "skew": round(workloads[wname].measured_skew(), 4),
                "pair_count": off["pair_count"],
                "checksum": off["checksum"],
                "splits_on": splits,
                "wall_ms": {m: runs[m]["wall_ms"] for m in runs},
                "task_ratios": {m: runs[m]["task_ratios"] for m in runs},
                "rebalance_on": on["rebalance"],
            })
    return cells


def _worst_ratio(cell, mode):
    """Worst per-pass task-time imbalance, over the rebalanced passes.

    Passes that did not shard run identical task sets in both modes, so
    including them would only add shared noise to the comparison.
    """
    sharded = {
        label
        for label, report in cell["rebalance_on"].items()
        if report["splits"]
    }
    ratios = [
        ratio
        for label, ratio in cell["task_ratios"][mode].items()
        if label in sharded
    ]
    return max(ratios) if ratios else 1.0


def _render_matrix(title, cells):
    rows = [
        [
            cell["workload"],
            cell["algorithm"],
            cell["pair_count"],
            cell["splits_on"],
            round(_worst_ratio(cell, "off"), 3),
            round(_worst_ratio(cell, "on"), 3),
        ]
        for cell in cells
    ]
    return "\n".join([
        f"== {title} ==",
        format_table(
            [
                "workload",
                "algorithm",
                "pairs",
                "splits",
                "ratio_off",
                "ratio_on",
            ],
            rows,
        ),
    ])


def test_ext_skew_rebalance_matrix(record, tmp_path):
    """Workload x algorithm rebalance matrix on the real backend.

    On-vs-off runs must be bit-identical everywhere; ``rebalance="on"``
    must actually shard the skewed families; governed runs are covered
    by :func:`test_ext_skew_rebalance_governed`.
    """
    scale = bench_scale(0.2)
    objects = max(int(BASE_OBJECTS * scale), 2_048)
    workloads = {
        name: generate_workload(spec, 4)
        for name, spec in matrix_specs(objects).items()
    }
    cells = _run_matrix(workloads, REAL_ALGORITHMS, tmp_path)

    # "on" force-shards every non-empty partition of every shardable
    # stage, so each cell must have split somewhere.
    for cell in cells:
        assert cell["splits_on"] > 0, (cell["workload"], cell["algorithm"])

    record("ext_skew_rebalance", _render_matrix(
        f"Extension: rebalance matrix (scale={scale}, objects={objects})",
        cells,
    ))
    _append_bench_run({
        "kind": "skew-rebalance-matrix",
        "timestamp": time.time(),
        "scale": scale,
        "objects": objects,
        "cells": cells,
    })


def test_ext_skew_rebalance_governed(tmp_path):
    """Under a tight memory budget the governor degrades — including the
    rebalance rung when it was off — and still finishes bit-identical."""
    workload = generate_workload(matrix_specs(4_096)["zipf"], 4)
    oracle = expected_checksum(workload)
    result = run_real_join(
        "grace",
        workload,
        str(tmp_path / "governed"),
        use_processes=False,
        collect_pairs=False,
        mem_budget=400_000,
        on_pressure="degrade",
        max_degradations=16,
        rebalance="off",
    )
    assert result.checksum == oracle
    assert result.degradations_total >= 1
    assert result.governor is not None
    # The first memory rung turns rebalancing back on before shedding
    # any real capacity.
    assert result.governor["plan"]["rebalance"] == "auto"


def test_ext_skew_rebalance_full_scale(record, tmp_path):
    """Acceptance run: zipf(theta=1) and partition_hot at full scale.

    Gated behind REPRO_BENCH_FULL=1 — joins 102,400 objects x 4
    algorithms x 2 modes per workload.  Zipf's popularity skew is
    deliberately scattered across partitions (see
    :func:`repro.workload.distributions.zipf_pointers`), so its off-mode
    tasks start near-balanced; partition_hot carries the genuine
    partition skew.  The acceptance bar: wherever a rebalanced pass was
    measurably imbalanced without rebalancing, sharding must reduce its
    max/mean task-time ratio, and force-sharding must never *create*
    gating skew on a balanced pass.
    """
    if not config.env_flag("bench_full"):
        import pytest

        pytest.skip("full-scale acceptance run: set REPRO_BENCH_FULL=1")
    specs = matrix_specs(BASE_OBJECTS)
    workloads = {
        name: generate_workload(specs[name], 4)
        for name in ("zipf", "partition_hot")
    }
    cells = _run_matrix(workloads, REAL_ALGORITHMS, tmp_path)
    for cell in cells:
        assert cell["splits_on"] > 0
        sharded = {
            label
            for label, report in cell["rebalance_on"].items()
            if report["splits"]
        }
        for label in sharded:
            off = cell["task_ratios"]["off"].get(label)
            on = cell["task_ratios"]["on"].get(label)
            if off is None or on is None:
                continue
            where = (cell["workload"], cell["algorithm"], label)
            if off >= 1.35:
                # The pass was gated by an imbalanced task: rebalancing
                # must flatten it.
                assert on < off, (where, off, on)
            # Sharding a balanced pass must not introduce gating skew.
            assert on < max(off, 1.5), (where, off, on)
    # In aggregate the skewed family's worst-pass imbalance comes down.
    ph = [c for c in cells if c["workload"] == "partition_hot"]
    assert sum(_worst_ratio(c, "on") for c in ph) < sum(
        _worst_ratio(c, "off") for c in ph
    )

    record("ext_skew_rebalance_full", _render_matrix(
        "Extension: rebalance acceptance (scale=1.0)", cells,
    ))
    _append_bench_run({
        "kind": "skew-rebalance-full",
        "timestamp": time.time(),
        "scale": 1.0,
        "objects": BASE_OBJECTS,
        "cells": cells,
    })
