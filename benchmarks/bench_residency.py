"""Where a worker's resident set goes at the ``warm_hot`` geometry.

The repo benchmark's ``peak_rss_mb`` is one sum over the driver and its
pool workers.  This script splits it into layers, for this checkout and,
with ``--baseline``, another source tree beside it:

* **per task**: a fresh spawned worker imports the kernels, runs one task
  on a warm store, and reports its ``VmHWM`` growth above that import
  baseline, the task's minor faults (``RUSAGE_THREAD``), its
  ``madvise`` calls (:meth:`MappedSegment._release`) and its wall.  Each
  kernel runs on the hot partition (p0, where ``partition_hot`` sends
  most references) and a cold one (p3);
* **per process**: ``VmHWM`` of the driver and of each worker of a
  spawned two-worker pool after one round of the four plans on a fresh
  store, as the benchmark's rig runs them.

The governor's ``worker_mem_high_water_mb`` is the meter's charge in
record bytes, not resident memory, so it is not reported here.

Run from the repo root::

    python benchmarks/bench_residency.py [--baseline OTHER/src] [--reps 3]

It rewrites ``benchmarks/results/residency_warm_hot.txt``.  Linux only
(``/proc/<pid>/status``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULT = HERE / "results" / "residency_warm_hot.txt"

#: The ``warm_hot`` workload (``bench/rigs.py``) at the bench's default seed.
SCALE = 4.0
DISTRIBUTION = "partition_hot"
DISKS = 4
SEED = 96
POOL_WORKERS = 2
PLANS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")
PARTITIONS = {"hot": 0, "cold": 3}

#: ``(label, kernel, stages run inline over every partition first)``.
TASKS = (
    ("merge-join", "sort_merge_merge_join",
     ("sort_merge_partition", "sort_merge_runs")),
    ("grace partition", "grace_partition", ()),
    ("grace probe", "grace_probe", ("grace_partition",)),
    ("hybrid partition", "hybrid_hash_partition", ()),
    ("hybrid probe", "grace_probe", ("hybrid_hash_partition",)),
    ("NL pass0", "nested_loops_pass0", ()),
)


def vmhwm_mib(pid="self") -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/<pid>/status")


def workload(seed: int):
    from dataclasses import replace

    from repro.workload import WorkloadSpec, generate_workload

    spec = replace(
        WorkloadSpec.paper_validation(scale=SCALE, seed=seed),
        distribution=DISTRIBUTION,
    )
    return generate_workload(spec, DISKS)


def task_spec(inputs, root: str, kernel: str, partition: int):
    from repro.parallel.engine.task import TaskSpec

    return TaskSpec(
        root, DISKS, partition, inputs.s_objects_total, inputs.spec.r_bytes,
        kernel=kernel,
    )


# ------------------------------------------------- in the spawned worker

def _import_baseline() -> float:
    import repro.parallel.vectorized  # noqa: F401 - what a task imports

    return vmhwm_mib()


def _run_one(spec) -> dict:
    from repro.parallel.engine.task import run_task
    from repro.storage.segment import MappedSegment

    release = MappedSegment._release
    calls = [0]

    def counted(self, lo, hi):
        calls[0] += 1
        release(self, lo, hi)

    MappedSegment._release = counted
    try:
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        started = time.perf_counter()
        run_task(spec)
        wall_ms = (time.perf_counter() - started) * 1e3
        minflt = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    finally:
        MappedSegment._release = release
    return dict(vmhwm=vmhwm_mib(), minflt=minflt, madvise=calls[0],
                wall_ms=wall_ms)


# ------------------------------------------------------ measuring driver

def measure_tasks(seed: int) -> dict:
    """``{"label/part": {growth, baseline, minflt, madvise, wall_ms}}``."""
    from repro.parallel import vectorized
    from repro.storage.store import Store

    inputs = workload(seed)
    context = multiprocessing.get_context("spawn")
    out: dict = {}
    with tempfile.TemporaryDirectory(prefix="residency-") as root:
        store = Store(root, DISKS)
        store.materialize(inputs)
        for label, kernel, before in TASKS:
            for stage in before:
                for partition in range(DISKS):
                    getattr(vectorized, stage)(
                        task_spec(inputs, root, stage, partition)
                    )
            for part, partition in PARTITIONS.items():
                spec = task_spec(inputs, root, kernel, partition)
                with context.Pool(1) as pool:
                    baseline = pool.apply(_import_baseline)
                    row = pool.apply(_run_one, (spec,))
                row["growth"] = row.pop("vmhwm") - baseline
                row["baseline"] = baseline
                out[f"{label}/{part}"] = row
    return out


def measure_round(seed: int) -> dict:
    """VmHWM of this driver and each pool worker after one round."""
    from repro.parallel import run_real_join

    inputs = workload(seed)
    context = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="residency-") as root:
        with context.Pool(POOL_WORKERS) as pool:
            for n, plan in enumerate(PLANS):
                run_real_join(
                    plan, inputs, store_root=root, use_processes=True,
                    pool=pool, collect_pairs=False, collect_metrics=False,
                    keep_store=True, reuse_store=n > 0,
                )
            workers = sorted(vmhwm_mib(p.pid) for p in pool._pool)
    return dict(driver=vmhwm_mib(), workers=workers)


def measure(src: Path, what: str, seed: int) -> dict:
    """Run one measurement in a fresh interpreter importing ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, __file__, "--measure", what, "--seed", str(seed)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


# ---------------------------------------------------------------- report

def _spread(values, digits=1) -> str:
    lo, hi = min(values), max(values)
    fmt = f"{{:.{digits}f}}"
    return fmt.format(lo) if lo == hi else f"{fmt.format(lo)}–{fmt.format(hi)}"


def render(sides: dict, seed: int, reps: int) -> str:
    names = list(sides)
    lines = [
        "Resident set by layer at the warm_hot geometry "
        f"(scale {SCALE}, {DISTRIBUTION}, {DISKS} disks, seed {seed}).",
        f"Host: {platform.machine()}, {os.cpu_count()} vCPU, Linux "
        f"{platform.release()}, Python {platform.python_version()}.",
        "Written by benchmarks/bench_residency.py; every cell is min–max "
        f"over {reps} runs, the sides alternating.",
        "Sides: " + ", ".join(names)
        + ("" if len(names) == 1 else " (parent = the --baseline tree)."),
        "",
        "Per task: a fresh spawned worker runs one unbudgeted task on a "
        "warm store.",
        "growth = its VmHWM above its import baseline (MiB); minflt = the "
        "task's minor faults; madvise = MappedSegment._release calls.",
        "",
    ]
    header = ["task", "part"]
    for metric in ("growth MiB", "minflt", "madvise", "wall ms"):
        header += [f"{metric} {n}" for n in names]
    rows = [header]
    for label, _kernel, _before in TASKS:
        for part in PARTITIONS:
            key = f"{label}/{part}"
            row = [label, part]
            for metric, digits in (("growth", 1), ("minflt", 0),
                                   ("madvise", 0), ("wall_ms", 0)):
                for n in names:
                    row.append(_spread(
                        [r[metric] for r in sides[n]["tasks"][key]], digits
                    ))
            rows.append(row)
    baselines = {
        n: _spread([r["baseline"] for runs in sides[n]["tasks"].values()
                    for r in runs])
        for n in names
    }
    lines += _table(rows)
    lines += [
        "",
        "Import baseline (VmHWM after importing the kernels, MiB): "
        + ", ".join(f"{n} {baselines[n]}" for n in names),
        "",
        f"Per process: VmHWM (MiB) after one round of the four plans over a "
        f"spawned {POOL_WORKERS}-worker pool on a fresh store.",
        "",
    ]
    rows = [["process"] + names]
    rows.append(["driver"] + [
        _spread([r["driver"] for r in sides[n]["rounds"]]) for n in names
    ])
    for w in range(POOL_WORKERS):
        rows.append([f"worker {w} (sorted)"] + [
            _spread([r["workers"][w] for r in sides[n]["rounds"]])
            for n in names
        ])
    rows.append(["sum"] + [
        _spread([r["driver"] + sum(r["workers"]) for r in sides[n]["rounds"]])
        for n in names
    ])
    lines += _table(rows)
    return "\n".join(lines) + "\n"


def _table(rows) -> list:
    widths = [max(len(str(row[k])) for row in rows) for k in range(len(rows[0]))]
    return [
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        .rstrip()
        for row in rows
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        help="another checkout's src/ to measure beside this one")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--measure", choices=("tasks", "round"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure == "tasks":
        print(json.dumps(measure_tasks(args.seed)))
        return
    if args.measure == "round":
        print(json.dumps(measure_round(args.seed)))
        return
    sources = {"change": SRC}
    if args.baseline is not None:
        sources = {"parent": args.baseline.resolve(), **sources}
    sides = {n: {"tasks": {}, "rounds": []} for n in sources}
    # Alternate the sides, so host drift falls on both.
    for _ in range(args.reps):
        for n, src in sources.items():
            for key, row in measure(src, "tasks", args.seed).items():
                sides[n]["tasks"].setdefault(key, []).append(row)
            sides[n]["rounds"].append(measure(src, "round", args.seed))
    text = render(sides, args.seed, args.reps)
    RESULT.write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
