"""The repo benchmark: six end-to-end workloads, then where the time went.

    python3 bench/run.py --workload warm_uniform --seed 7 --seconds 8 --trace 0

runs one workload's end-to-end phase (program tracing off) and prints its
metrics, ending with one JSON line; ``--trace 1`` runs the layer phase and
the traced rounds instead and prints the per-layer metrics.  With no
``--trace`` both phases run; with no ``--workload`` all six do.  See
``bench/README.md`` for what each number means and what should move it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {REPO / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO / "src"))

import numpy  # noqa: E402

import layers  # noqa: E402
from rigs import (  # noqa: E402
    CLIENTS,
    PLANS,
    POOL_WORKERS,
    QUICK_SCALE,
    WORKLOADS,
    Daemon,
    Engine,
    Oracle,
    Tally,
    WorkloadDef,
    client_rounds,
    collect_garbage,
    leaked_files,
    make_inputs,
)
from spans import SpanLog  # noqa: E402
from stats import child_pids, cpu_seconds, median, peak_rss_mib, relative_spread  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
#: Set-up is repeated and its median reported, so that one slow materialize
#: does not read as a set-up regression.
SETUP_REPS = 3
#: A median needs at least this many rounds, however long one takes.
MIN_ROUNDS = 3


UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def process_ids() -> List[int]:
    """The benchmark process and every worker it (or its daemon) started."""
    return [os.getpid()] + [c.pid for c in multiprocessing.active_children()]


def stop_children() -> List[int]:
    """Leave nothing running: the pids that had to be killed (none, when
    every rig stopped what it started).

    The spawn context starts a resource tracker beside the engine's pool.
    It holds no ``Process`` object, ignores SIGTERM and ends only once its
    pipe is closed -- which otherwise happens when this process exits, so it
    would outlive the run by a moment.  Anything else still parented here
    is killed first (it may hold the pipe open); then the pipe is closed
    and the tracker waited for.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    orphans = [pid for pid in child_pids() if pid != tracker._pid]
    for pid in orphans:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()  # a no-op when no spawn pool started one
    return orphans


def host_block(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_workers": POOL_WORKERS,
        "clients": CLIENTS,
        "seed": seed,
    }


# ------------------------------------------------------------------ set-up

def set_up(definition: WorkloadDef, seed: int, inputs, oracle: Oracle,
           root: Path, log: SpanLog, tally: Tally):
    """What the program does before it can serve timed operations:
    ``(rig, set-up seconds)``.

    For an engine workload that is starting the pool, the first materialize
    and one warm-up round on inputs the benchmark made beforehand; for a
    daemon workload it is starting the service and one warm-up cycle per
    client, during which the daemon generates and materializes for itself.
    """
    with log.span("setup"):
        started = time.perf_counter()
        if definition.mode == "serve":
            rig = Daemon(definition, seed, oracle, root, log, tally)
        else:
            rig = Engine(definition, inputs, oracle, root, log, tally)
        try:
            rig.warm_up()
        except BaseException:
            tear_down(rig, root, tally)
            raise
        return rig, time.perf_counter() - started


def tear_down(rig, root: Path, tally: Tally) -> None:
    """Stop the rig, then report anything it left behind as a failure."""
    try:
        rig.close()
    finally:
        tally.attempt()
        stragglers = multiprocessing.active_children()
        if stragglers:
            tally.fail(f"child processes left running: {stragglers}")
            for child in stragglers:
                child.terminate()
                child.join()
        leaks = leaked_files(root)
        if leaks:
            tally.fail(f"files left behind: {leaks[:5]}")
        shutil.rmtree(root, ignore_errors=True)


# ------------------------------------------------------------- timed phases

def end_to_end(definition: WorkloadDef, rig, oracle: Oracle, seconds: float,
               min_rounds: int) -> Tuple[Dict[str, float], List[float]]:
    """The untraced timed phase: ``(end-to-end metrics, round walls)``."""
    collect_garbage()
    cpu_before = cpu_seconds(process_ids())
    if isinstance(rig, Daemon):
        before = rig.counters()
        wall_s, samples = rig.load(seconds)
        after = rig.counters()
        requests = [s.wall_ms for s in samples]
        rounds = client_rounds(samples)
        guards = layers.request_metrics(samples, before, after)
        rig.tally.attempt()
        if guards["service.store_reuse_share"] < 1 or guards["service.rejected"]:
            rig.tally.fail(f"timed phase was not all warm hits: {guards}")
    else:
        rounds, requests = [], []
        while len(rounds) < min_rounds or sum(rounds) < seconds * 1e3:
            collect_garbage()
            # The first round of a pair-collecting workload keeps its pairs
            # for the multiset check, made once its clock has stopped.
            kept = [] if definition.mode == "cold" and not rounds else None
            wall_ms, joins = rig.round(number=len(rounds), keep_pairs=kept)
            if kept:
                rig.verify_pairs(kept)
            rounds.append(wall_ms)
            requests.extend(j.wall_ms for j in joins)
        wall_s = sum(rounds) / 1e3
    pids = process_ids()
    cpu_s = cpu_seconds(pids) - cpu_before
    return {
        "round_ms_p50": median(rounds),
        "request_ms_p50": median(requests),
        "throughput_rps": len(requests) / wall_s,
        "pairs_per_s": len(requests) * oracle.pairs / wall_s,
        "cpu_s": cpu_s / (len(requests) / len(PLANS)),
        "peak_rss_mb": peak_rss_mib(pids),
    }, rounds


def layer_phase(definition: WorkloadDef, rig, inputs, oracle: Oracle,
                seed: int, seconds: float, min_rounds: int, quick: bool,
                root: Path, log: SpanLog, tally: Tally,
                rounds_so_far: List[float]) -> Dict[str, float]:
    """Per-layer metrics: timed calls into each layer, then traced rounds."""
    metrics: Dict[str, float] = {}
    load_metrics: Dict[str, float] = {}
    with log.span("layers"):
        if isinstance(rig, Daemon):
            # The hit guards and the tail belong to the workload's own
            # 2-client load, taken before any probe shares the process.
            before = rig.counters()
            _, samples = rig.load(seconds)
            load_metrics = layers.request_metrics(samples, before, rig.counters())
            inputs = make_inputs(definition.scale, definition.distribution, seed)
        # Engine workloads are probed through their own rig; a daemon
        # workload gets a direct engine on the same inputs beside it.
        engine = rig if isinstance(rig, Engine) else Engine(
            definition, inputs, oracle, root / "direct", log, tally)
        try:
            metrics.update(layers.storage_layer(
                inputs, oracle, engine, root, log, tally))
            metrics.update(layers.governor_layer(inputs, log))
            metrics.update(layers.engine_layer(
                engine, inputs, seconds, min_rounds, log, rounds_so_far))
        finally:
            if engine is not rig:
                engine.close()
        metrics.update(layers.service_layer(
            definition, seed, oracle, root, log, tally, quick))
        metrics.update(load_metrics)
    return metrics


# ------------------------------------------------------------ one workload

def run_workload(definition: WorkloadDef, seed: int, seconds: float,
                 trace: Optional[int], quick: bool, store_dir: Path,
                 out_dir: Path) -> dict:
    """Run one workload; returns its result document (also written to disk)."""
    if quick:
        definition = dataclasses.replace(definition, scale=QUICK_SCALE)
        seconds, min_rounds = 0.0, 2
    else:
        min_rounds = MIN_ROUNDS
    log = SpanLog(definition.name)
    tally = Tally()
    host = host_block(seed)
    if host["loadavg_start"][0] > host["nproc"] / 2:
        print(f"warning: 1-min load {host['loadavg_start'][0]:.2f} exceeds "
              f"nproc/2; timings on this host drift with load", file=sys.stderr)
    store_dir.mkdir(parents=True, exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{definition.name}-", dir=store_dir))
    metrics: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    try:
        # Set-up is only reported by the end-to-end phase, so only it repeats.
        reps = SETUP_REPS if trace != 1 and not quick else 1
        generate_ms, inputs = layers.timed(
            log, "workload.generate",
            lambda: make_inputs(definition.scale, definition.distribution, seed))
        oracle_ms, oracle = layers.timed(
            log, "bench.oracle", lambda: Oracle.of(inputs))
        if definition.mode == "serve":
            inputs = None  # the daemon makes its own from the seed
        setups = []
        for rep in range(reps):
            root = base / f"rep{rep}"
            root.mkdir()
            rig, setup_s = set_up(definition, seed, inputs, oracle, root, log, tally)
            setups.append(setup_s)
            if rep < reps - 1:
                tear_down(rig, root, tally)
                del rig
                collect_garbage()
        try:
            rounds: List[float] = []
            if trace != 1:
                metrics, rounds = end_to_end(
                    definition, rig, oracle, seconds, min_rounds)
                metrics["setup_s"] = median(setups)
                samples["setup_s"] = setups
                samples["round_ms"] = rounds
            if trace != 0:
                metrics["workload.generate_ms"] = generate_ms
                metrics["bench.oracle_ms"] = oracle_ms
                metrics.update(layer_phase(
                    definition, rig, inputs, oracle, seed, seconds, min_rounds,
                    quick, root, log, tally, rounds))
            host["kernel_mode"] = rig.kernel_mode
        finally:
            tear_down(rig, root, tally)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()

    accounted = {kind: log.accounted_share(kind)
                 for kind in ("round", "round-traced")}
    tally.attempt()
    if any(abs(share - 1.0) > 0.05 for share in accounted.values()):
        tally.fail(f"span self times do not add up to their rounds: {accounted}")

    result = {
        "workload": definition.name,
        "why": definition.why,
        "quick": quick,
        "seconds": seconds,
        "host": host,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons[:8],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
        "samples": samples,
        "accounted_share": accounted,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{definition.name}.json").write_text(json.dumps(result, indent=1))
    log.write_chrome_trace(
        str(out_dir / f"{definition.name}.trace.json"),
        {"workload": definition.name, "host": host})
    return result


def report(result: dict) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    flag = "  (quick: not comparable)" if result["quick"] else ""
    print(f"== {result['workload']}{flag}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.4f} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<42} {share:>16.4f} ratio "
          f"({result['failed']} of {result['attempted']})")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))


# --------------------------------------------------------------- selfcheck

def measure_in_subprocess(name: str, seed: int, seconds: int) -> Dict[str, float]:
    """One fresh-process run, as the driver makes it; end-to-end values."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{name} seed {seed} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def selfcheck(names: List[str], seed: int, seconds: int, runs: int) -> bool:
    """A/A: two sets of ``runs`` runs of the same code, judged by the
    benchmark's own bounds (and, from four runs up, the spread rule)."""
    ok = True
    print(f"{'workload':<14}{'metric':<16}{'first':>14}{'second':>14}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}")
    for name in names:
        sets = [[measure_in_subprocess(name, seed + 100 * half + run, seconds)
                 for run in range(runs)] for half in range(2)]
        for metric in SPEC["end_to_end"]:
            first, second = ([run[metric["name"]] for run in half] for half in sets)
            a, b = median(first), median(second)
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spread = max(relative_spread(first), relative_spread(second)) \
                if runs >= 4 else float("nan")
            passed = worse <= metric["bound"] and not (
                metric["name"] != "setup_s" and spread > metric["bound"])
            ok &= passed
            print(f"{name:<14}{metric['name']:<16}{a:>14.4f}{b:>14.4f}"
                  f"{worse:>+10.1%}{spread:>9.1%}{metric['bound']:>7.0%}"
                  f"  {'PASS' if passed else 'FAIL'}")
    return ok


# -------------------------------------------------------------------- main

def main(argv: Optional[List[str]] = None) -> int:
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=96)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end phase only; 1: layer phase and "
                             "traced rounds only; default both")
    parser.add_argument("--out", type=Path, default=REPO / ".bench_out",
                        help="where <workload>.json and .trace.json go")
    parser.add_argument("--store-dir", type=Path, default=REPO / ".bench_tmp",
                        help="parent of the temporary root for stores and sockets")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run at scale 0.05; values not comparable")
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A: run twice and compare within the bounds")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --selfcheck: runs per set (10 = the driver's rule)")
    args = parser.parse_args(argv)
    chosen = args.workload or names

    if args.selfcheck:
        return 0 if selfcheck(chosen, args.seed, args.seconds, args.runs) else 1

    if len(chosen) > 1:
        # One process per workload, as the driver runs them, so that no
        # workload inherits another's heap or memory high-water mark.
        shared = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--out", str(args.out), "--store-dir", str(args.store_dir)]
        if args.trace is not None:
            shared += ["--trace", str(args.trace)]
        if args.quick:
            shared.append("--quick")
        return max(
            subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                            "--workload", name] + shared).returncode
            for name in names if name in chosen)

    definition = next(w for w in WORKLOADS if w.name == chosen[0])
    try:
        result = run_workload(definition, args.seed, args.seconds, args.trace,
                              args.quick, args.store_dir, args.out)
    finally:
        orphans = stop_children()
    result["attempted"] += 1
    if orphans:
        result["failed"] += 1
        result["correct"] = False
        result["failures"].append(f"processes outlived the workload: {orphans}")
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
