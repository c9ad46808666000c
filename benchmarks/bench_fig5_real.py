"""Figure 5(b) on the real backend: sort-merge wall clock vs memory budget.

The paper's Fig. 5(b) is a stepped curve: elapsed time rises once per
extra merge pass as ``MRproc`` shrinks.  ``bench_fig5b_sort_merge.py``
reproduces it on the simulator; this bench draws the same axis on the
mmap backend, where the budget arms the governor: ``fit_plan`` shrinks
``batch_records`` / ``irun`` until the plan fits, and the merge's
fan-in — and so its pass count — is whatever the budget leaves room for.

One warm kept store at the paper's geometry (scale 1.0, 4 disks), every
budget in ``BUDGETS`` x the four plans, ``REPS`` interleaved repetitions,
medians; once inline and once over a shared two-worker pool.  Wall-clock
numbers are of the *host*.  Every run is checked against the oracle.

Sort-merge reports, per budget, the RUN segments one join creates
(``storage.map.new{kind=RUN}``: one per sort-run task, its runs are
extents) and the MRG segments (``storage.map.new{kind=MRG}``: one per
merge level per merge task), and grace and hybrid hash the bucket-spill files
(``storage.map.new{kind=BS}``) — both from one extra metered join — and
the urn model's ``grace_premature_replacements`` — the paper's
explanation of the Grace low-memory knee — beside their walls.

Every plan also reports ``µs/batch``, the per-batch constant a budget
adds: (wall − unbudgeted wall) / (storage batches − unbudgeted batches),
the batches summed over ``storage.{read,write,deref}.batches`` of the same
metered join, and ``minflt/join``, the minor page faults its tasks took
(``worker.minflt``, summed over every task of that metered join): pages
mapped in by reads through the mapping, and fresh pages its buffers
touched.
"""

import multiprocessing
import statistics
import tempfile
import time

from conftest import bench_scale

from repro.harness.report import format_table
from repro.joins.reference import expected_checksum
from repro.parallel import run_real_join
from repro.workload import WorkloadSpec, generate_workload

MIB = 1 << 20
BUDGETS = (None, 16 * MIB, 8 * MIB, 4 * MIB, 2 * MIB, MIB, MIB // 2)
CONTEXT = ("nested-loops", "grace", "hybrid-hash")
BUCKETED = ("grace", "hybrid-hash")
#: The spill segments each plan's metered join counts: one per task or
#: (target, contributor), whatever the budget.
SPILL_FILES = {"sort-merge": "RUN", "grace": "BS", "hybrid-hash": "BS"}
#: The counters whose sum is a join's storage batches.
BATCH_COUNTERS = tuple(
    f"storage.{op}.batches" for op in ("read", "write", "deref")
)
REPS = 5
POOL_WORKERS = 2

#: Adjacent budget rows whose median walls differ by less than this share
#: count as level: this host's run-to-run spread on a ~100 ms join.  A
#: rise beyond it is a *step* and must come with more runs or passes, or
#: with smaller batches or runs (the per-batch constant).
STEP_TOLERANCE = 0.25
#: The bench's 4 MiB row may cost at most this multiple of unbudgeted.
BUDGETED_CEILING = 3.0


def _label(budget) -> str:
    if budget is None:
        return "none"
    return f"{budget // MIB} MiB" if budget >= MIB else f"{budget >> 10} KiB"


def _sweep(workload, root: str, pool) -> dict:
    """``{(algorithm, budget): [(wall_ms, result), ...]}`` over ``REPS``."""
    expected = expected_checksum(workload)
    options = dict(
        use_processes=pool is not None, pool=pool, keep_store=True,
        collect_pairs=False, collect_metrics=False,
    )
    # Materialize once; every timed join reuses the warm store.
    run_real_join("nested-loops", workload, root, **options)
    cells: dict = {}
    for _ in range(REPS):
        for budget in BUDGETS:
            for algorithm in ("sort-merge",) + CONTEXT:
                started = time.perf_counter()
                result = run_real_join(
                    algorithm, workload, root, reuse_store=True,
                    mem_budget=budget, on_pressure="degrade", **options,
                )
                # Admission (fit_plan) included, unlike result.wall_ms.
                wall_ms = (time.perf_counter() - started) * 1e3
                assert result.pair_count == workload.r_objects_total
                assert result.checksum == expected, (algorithm, budget)
                cells.setdefault((algorithm, budget), []).append(
                    (wall_ms, result)
                )
    options["collect_metrics"] = True
    for budget in BUDGETS:
        for algorithm in ("sort-merge",) + CONTEXT:
            result = run_real_join(
                algorithm, workload, root, reuse_store=True,
                mem_budget=budget, on_pressure="degrade", **options,
            )
            counters = result.stats_document(workload)["totals"]["counters"]
            cells[("batches", algorithm, budget)] = sum(
                value for name, value in counters.items()
                if name.startswith(BATCH_COUNTERS)
            )
            cells[("minflt", algorithm, budget)] = int(sum(
                value for name, value in counters.items()
                if name.startswith("worker.minflt")
            ))
            for kind in (SPILL_FILES.get(algorithm), "MRG"):
                if kind is not None:
                    cells[(kind, algorithm, budget)] = counters.get(
                        f"storage.map.new{{kind={kind}}}", 0
                    )
    return cells


def _wall(cells, algorithm, budget) -> float:
    return statistics.median(wall for wall, _ in cells[(algorithm, budget)])


def _us_per_batch(cells, algorithm, budget):
    """What each storage batch a budget adds costs, in µs of wall."""
    extra = (
        cells[("batches", algorithm, budget)]
        - cells[("batches", algorithm, None)]
    )
    if budget is None or extra <= 0:
        return "-"
    extra_ms = _wall(cells, algorithm, budget) - _wall(cells, algorithm, None)
    return round(extra_ms * 1e3 / extra, 1)


def _urn(cells, algorithm, budget):
    """The urn model's premature replacements for the admitted plan."""
    governor = cells[(algorithm, budget)][-1][1].governor or {}
    details = governor.get("predicted", {}).get("details", {})
    value = details.get("grace_premature_replacements")
    return "-" if value is None else round(value)


def _rows(cells) -> list:
    rows = []
    for budget in BUDGETS:
        last = cells[("sort-merge", budget)][-1][1]
        governor = last.governor or {}
        plan = governor.get("plan", {})
        details = governor.get("predicted", {}).get("details", {})
        rows.append({
            "budget": _label(budget),
            "wall_ms": _wall(cells, "sort-merge", budget),
            "batch": plan.get("batch_records", "-"),
            "irun": plan.get("irun", "-"),
            "runs": int(details.get("merge_runs", 0)) or "-",
            "fanin": int(details.get("merge_fanin", 0)) or "-",
            "passes": int(details.get("merge_passes", 0)) or "-",
            "RUN": cells[("RUN", "sort-merge", budget)],
            "MRG": cells[("MRG", "sort-merge", budget)],
            "rungs": governor.get("degradations_total", "-"),
            "runtime": max(
                (result.governor or {}).get("runtime_degradations", 0)
                for _, result in cells[("sort-merge", budget)]
            ),
            **{a: _wall(cells, a, budget) for a in CONTEXT},
            **{
                f"{a} µs/batch": _us_per_batch(cells, a, budget)
                for a in ("sort-merge",) + CONTEXT
            },
            **{
                f"{a} minflt": cells[("minflt", a, budget)]
                for a in ("sort-merge",) + CONTEXT
            },
            **{f"{a} BS": cells[("BS", a, budget)] for a in BUCKETED},
            **{f"{a} urn": _urn(cells, a, budget) for a in BUCKETED},
        })
    return rows


def _check_curve(rows) -> None:
    unbudgeted = rows[0]
    by_budget = {row["budget"]: row for row in rows}
    assert by_budget["4 MiB"]["wall_ms"] <= (
        BUDGETED_CEILING * unbudgeted["wall_ms"]
    )
    assert by_budget["4 MiB"]["runtime"] == 0
    assert any(row["passes"] != "-" and row["passes"] >= 2 for row in rows)
    # One run segment per sort-run task and one spill file per (target,
    # contributor), whatever the budget.
    assert len({row["RUN"] for row in rows}) == 1, [r["RUN"] for r in rows]
    # One MRG segment per merge level per merge task.
    for row in rows:
        levels = row["passes"] - 1 if row["passes"] != "-" else 0
        assert row["MRG"] <= row["RUN"] * levels, row
    for algorithm in BUCKETED:
        assert len({row[f"{algorithm} BS"] for row in rows}) == 1, algorithm
    for wider, tighter in zip(rows, rows[1:]):
        # Less memory never buys speed beyond the host's noise ...
        assert tighter["wall_ms"] >= (1 - STEP_TOLERANCE) * wider["wall_ms"], (
            wider, tighter
        )
        # ... and a real step up is the algorithm's: more runs or passes,
        # or smaller batches or runs, each batch paying its constant (the
        # unbudgeted row opens every run at once: one pass).
        if (
            wider is not unbudgeted
            and tighter["wall_ms"] > (1 + STEP_TOLERANCE) * wider["wall_ms"]
        ):
            assert (
                tighter["runs"] > wider["runs"]
                or tighter["passes"] > wider["passes"]
                or tighter["batch"] < wider["batch"]
                or tighter["irun"] < wider["irun"]
            ), (wider, tighter)


def _render(title: str, rows) -> str:
    headers = [
        "budget", "sort-merge ms", "batch", "irun", "runs", "fanin",
        "passes", "RUN", "MRG", "rungs", "µs/batch", "minflt/join",
        "NL ms", "µs/batch", "minflt/join",
        "grace ms", "µs/batch", "minflt/join", "BS", "urn",
        "hybrid ms", "µs/batch", "minflt/join", "BS", "urn",
    ]
    table = format_table(headers, [
        [
            row["budget"], row["wall_ms"], row["batch"], row["irun"],
            row["runs"], row["fanin"], row["passes"], row["RUN"],
            row["MRG"], row["rungs"], row["sort-merge µs/batch"],
            row["sort-merge minflt"],
            row["nested-loops"], row["nested-loops µs/batch"],
            row["nested-loops minflt"],
            *(row[f"{a}{suffix}"] for a in BUCKETED
              for suffix in ("", " µs/batch", " minflt", " BS", " urn")),
        ]
        for row in rows
    ])
    return f"== {title} ==\n{table}"


def test_fig5_real(benchmark, record):
    scale = bench_scale(1.0)
    workload = generate_workload(
        WorkloadSpec.paper_validation(scale=scale), disks=4
    )

    def sweep_both():
        with tempfile.TemporaryDirectory(prefix="repro-fig5-") as root:
            inline = _sweep(workload, f"{root}/inline", None)
            # spawn, not fork: safe whatever threads the host process has.
            pool = multiprocessing.get_context("spawn").Pool(POOL_WORKERS)
            try:
                pooled = _sweep(workload, f"{root}/pool", pool)
            finally:
                pool.close()
                pool.join()
        return _rows(inline), _rows(pooled)

    inline, pooled = benchmark.pedantic(sweep_both, rounds=1, iterations=1)
    record("fig5_real", "\n\n".join([
        "Figure 5(b) on the real mmap backend: median wall per join (ms) vs "
        f"total memory budget\nscale {scale}, 4 disks, warm kept store, "
        f"{REPS} interleaved reps; runs / fanin / passes are the merge "
        "stage's,\nrungs the ladder rungs admission took; steps within "
        f"{STEP_TOLERANCE:.0%} count as level.\nRUN = sorted-run segments "
        "created per join (storage.map.new{kind=RUN}); MRG = merge-level "
        "segments\n(storage.map.new{kind=MRG}); BS = bucket-spill files "
        "(storage.map.new{kind=BS}); urn = the urn model's "
        "grace_premature_replacements for the admitted plan.\nµs/batch = "
        "(wall - unbudgeted wall) / (storage read+write+deref batches - "
        "unbudgeted batches), the plan to its left; minflt/join = its tasks'\n"
        "minor page faults (worker.minflt) in the metered join.",
        _render("inline (driver process runs every task)", inline),
        _render(f"shared pool of {POOL_WORKERS} spawned workers", pooled),
    ]))
    _check_curve(inline)
    _check_curve(pooled)
    benchmark.extra_info["sort_merge_4mib_vs_unbudgeted"] = round(
        inline[3]["wall_ms"] / inline[0]["wall_ms"], 2
    )
