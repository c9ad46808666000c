"""The layer phase: per-layer numbers, measured from outside.

Each function times calls into one layer's public functions on the
workload's own inputs (layer = module name under ``src/repro``), or reads
the counters a traced join's stats document already carries.  Every call
sits in a span, so the trace shows where the layer phase itself went.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.governor import JoinPlan, ResourceGovernor, fit_plan, predict_footprint
from repro.parallel import run_real_join
from repro.storage import (
    Store,
    iter_pairs_file,
    timed_delete_map,
    timed_new_map,
    timed_open_map,
)
from repro.workload import Workload

from rigs import (
    CLIENTS,
    DISKS,
    MIB,
    PLANS,
    POOL_WORKERS,
    QUICK_SCALE,
    Daemon,
    Engine,
    JoinSample,
    Oracle,
    RequestSample,
    Tally,
    WorkloadDef,
    collect_garbage,
    make_inputs,
)
from spans import SpanLog
from stats import median, tail_percentile

#: A layer call is sampled this often, or until its probe has used up its
#: time cap (some calls take seconds at the larger scales), whichever is first.
REPS = 5
PROBE_CAP_S = 1.0
#: Whole rounds and whole-store rewrites are sampled this often regardless.
HEAVY_REPS = 3
#: The governor's tax is the cost of arming a budget that never binds.
NONBINDING_BUDGET = 1 << 40
#: ``governor.fit_ms`` walks the ladder down to this per-worker budget.
FIT_WORKER_BUDGET = 1 * MIB
#: ``service.stream_us_per_pair`` is taken at this scale on every workload,
#: so streaming a large workload's pairs does not dominate the layer phase.
STREAM_PROBE_SCALE = 0.25


def timed(log: SpanLog, name: str, call: Callable[[], object]) -> Tuple[float, object]:
    """Run ``call`` inside a span: ``(milliseconds, its return value)``."""
    with log.span(name) as span:
        value = call()
    return span.dur_us / 1e3, value


def sampled(log: SpanLog, name: str, call: Callable[[], object]) -> float:
    """Median milliseconds of up to ``REPS`` calls within ``PROBE_CAP_S``."""
    samples: List[float] = []
    started = time.perf_counter()
    while len(samples) < REPS and (
            not samples or time.perf_counter() - started < PROBE_CAP_S):
        samples.append(timed(log, name, call)[0])
    return median(samples)


def storage_layer(inputs: Workload, oracle: Oracle, engine: Engine,
                  root: Path, log: SpanLog, tally: Tally) -> Dict[str, float]:
    spec = inputs.spec
    user_bytes = oracle.pairs * spec.r_bytes + len(inputs.s_objects) * spec.s_bytes

    materialize, scrub, destroy = [], [], []
    for rep in range(HEAVY_REPS):
        store = Store(root / f"probe-store-{rep}", DISKS)
        materialize.append(
            timed(log, "storage.materialize", lambda: store.materialize(inputs))[0])
        ms, report = timed(log, "storage.scrub", store.scrub)
        scrub.append(ms)
        tally.attempt()
        if report["failed"]:
            tally.fail(f"scrub of a fresh store failed: {report['failed'][:1]}")
        destroy.append(timed(log, "storage.destroy", store.destroy)[0])

    # The paper's Fig. 1b terms, at one partition's capacity.
    capacity = len(inputs.r_partitions[0])
    map_dir = root / "probe-map"
    map_dir.mkdir()
    new_map, open_map, delete_map = [], [], []
    for rep in range(REPS):
        path = map_dir / f"m{rep}.seg"
        segment, ms = timed(
            log, "storage.new_map",
            lambda: timed_new_map(path, capacity, spec.r_bytes))[1]
        segment.close()
        new_map.append(ms)
        segment, ms = timed(log, "storage.open_map", lambda: timed_open_map(path))[1]
        segment.close()
        open_map.append(ms)
        delete_map.append(
            timed(log, "storage.delete_map", lambda: timed_delete_map(path))[1])

    # Pair collection: drain the PAIRS segments a kept run left behind.
    kept = run_real_join(
        "grace", inputs, str(root / "probe-collect"), pool=engine.pool,
        keep_store=True, collect_pairs=False, collect_metrics=False)

    def drain() -> int:
        return sum(1 for pair_file in kept.pair_files
                   for _pair in iter_pairs_file(pair_file.path))

    tally.attempt()
    if drain() != oracle.pairs:
        tally.fail(f"collect did not drain {oracle.pairs} pairs")
    collect_ms = sampled(log, "storage.collect", drain)
    Store(root / "probe-collect", DISKS).destroy()

    return {
        "storage.materialize_ms": median(materialize),
        "storage.materialize_mb_per_s":
            user_bytes / MIB / (median(materialize) / 1e3),
        "storage.scrub_ms": median(scrub),
        "storage.destroy_ms": median(destroy),
        "storage.new_map_ms": median(new_map),
        "storage.open_map_ms": median(open_map),
        "storage.delete_map_ms": median(delete_map),
        "storage.collect_ms": collect_ms,
        "storage.collect_pairs_per_s": oracle.pairs / (collect_ms / 1e3),
    }


def governor_layer(inputs: Workload, log: SpanLog) -> Dict[str, float]:
    """Mean over the four plans of the median predict / fit / admit call."""
    predict = [
        sampled(log, "governor.predict", lambda: predict_footprint(
            plan, inputs, JoinPlan(), FIT_WORKER_BUDGET))
        for plan in PLANS]
    fit = [
        sampled(log, "governor.fit", lambda: fit_plan(
            plan, inputs, JoinPlan(), FIT_WORKER_BUDGET))
        for plan in PLANS]
    governor = ResourceGovernor(max_concurrent=CLIENTS, queue_limit=64)
    return {
        "governor.predict_ms": sum(predict) / len(PLANS),
        "governor.fit_ms": sum(fit) / len(PLANS),
        "governor.admit_ms": sampled(
            log, "governor.admit", lambda: governor.admit("degrade").release()),
    }


def _task_shape(document: dict) -> Dict[str, float]:
    """Stage and task durations of one traced join, folded per the README."""
    task_sum = critical = dispatch = mean_sum = 0.0
    tasks = 0
    for label, stage in document["per_pass"].items():
        spans = [w["wall_ms"] for w in document["per_worker"].get(label, {}).values()]
        if not spans:
            continue
        task_sum += sum(spans)
        critical += max(spans)
        mean_sum += sum(spans) / len(spans)
        # What the stage took beyond the work it could not have overlapped.
        dispatch += stage["wall_ms"] - max(max(spans), sum(spans) / POOL_WORKERS)
        tasks += len(spans)
    return {
        "task_ms_sum": task_sum,
        "task_ms_crit": critical,
        "dispatch_ms": dispatch,
        "imbalance": critical / mean_sum if mean_sum else 1.0,
        "tasks": tasks,
    }


def engine_layer(engine: Engine, inputs: Workload, seconds: float,
                 min_cycles: int, log: SpanLog,
                 own_rounds_so_far: List[float]) -> Dict[str, float]:
    """Interleaved rounds: the workload's own, the same traced, and a warm
    round with and without a budget that never binds.

    Interleaving puts host drift into every variant alike, so the
    differences (tracing overhead, governor tax) are between neighbours.
    """
    variants: Dict[str, Callable[[int], Tuple[float, List[JoinSample]]]] = {
        "own": lambda n: engine.round(number=n),
        "traced": lambda n: engine.round(number=n, traced=True, kind="round-traced"),
        "ungoverned": lambda n: engine.round(
            number=n, warm=True, mem_budget=None, kind="round-ungoverned"),
        "nonbinding": lambda n: engine.round(
            number=n, warm=True, mem_budget=NONBINDING_BUDGET,
            kind="round-nonbinding"),
    }
    rounds: Dict[str, List[Tuple[float, List[JoinSample]]]] = {
        name: [] for name in variants}
    started = time.perf_counter()
    while (len(rounds["own"]) < min_cycles
           or time.perf_counter() - started < seconds):
        for name, run in variants.items():
            collect_garbage()
            rounds[name].append(run(len(rounds[name])))

    inline = []
    for rep in range(HEAVY_REPS):
        collect_garbage()
        inline.append(engine.round(number=rep, inline=True, kind="round-inline")[0])

    def walls(name: str) -> List[float]:
        return [wall_ms for wall_ms, _ in rounds[name]]

    def joins(name: str, plan: str) -> List[JoinSample]:
        return [s for _, samples in rounds[name] for s in samples if s.plan == plan]

    metrics: Dict[str, float] = {}
    for plan in PLANS:
        own, traced = joins("own", plan), joins("traced", plan)
        if not own or not traced:
            continue  # every attempt failed; the tally already says so
        wall, passes = median([s.wall_ms for s in own]), median([s.pass_ms for s in own])
        metrics[f"engine.{plan}.wall_ms"] = wall
        metrics[f"engine.{plan}.pass_ms"] = passes
        metrics[f"engine.{plan}.driver_ms"] = wall - passes
        shapes = [_task_shape(s.document) for s in traced]
        for key in shapes[0]:
            metrics[f"engine.{plan}.{key}"] = median([shape[key] for shape in shapes])

    # Counts come from the last traced round alone: by then the workers'
    # caches are as warm as they get, so a fixed seed repeats them exactly
    # however many rounds the clock allowed.
    documents = [s.document for s in rounds["traced"][-1][1]]
    spec = inputs.spec
    user_bytes = (inputs.r_objects_total * spec.r_bytes
                  + len(inputs.s_objects) * spec.s_bytes)

    def counted(*prefixes: str) -> float:
        return sum(value for document in documents
                   for key, value in document["totals"]["counters"].items()
                   if key.startswith(prefixes))

    metrics["storage.maps_per_round"] = counted("storage.map.")
    metrics["storage.integrity_verifies_per_round"] = counted(
        "storage.integrity.verify")
    metrics["storage.write_bytes_per_user_byte"] = (
        counted("storage.write.bytes") / user_bytes)
    # S is only ever read by dereference, so both kinds of read count.
    metrics["storage.read_bytes_per_user_byte"] = (
        counted("storage.read.bytes", "storage.deref.bytes") / user_bytes)
    metrics["governor.degradations_per_round"] = sum(
        s.degradations for s in rounds["own"][-1][1])
    metrics["governor.worker_mem_high_water_mb"] = max(
        (value for document in documents
         for key, value in document["totals"]["gauges"].items()
         if key.startswith("worker.mem_high_water_bytes")), default=0.0) / MIB

    own_rounds = own_rounds_so_far + walls("own")
    percentile, tail = tail_percentile(own_rounds)
    metrics["engine.round_ms_tail"] = tail
    metrics["engine.round_tail_pct"] = percentile
    metrics["engine.round_samples"] = len(own_rounds)
    metrics["engine.inline_round_ms"] = median(inline)
    metrics["governor.tax_ms"] = (
        median(walls("nonbinding")) - median(walls("ungoverned")))
    metrics["obs.overhead_pct"] = (
        100.0 * (median(walls("traced")) - median(walls("own"))) / median(walls("own")))
    metrics["obs.stats_document_ms"] = median(
        [s.document_ms for _, samples in rounds["traced"] for s in samples])
    return metrics


def request_metrics(samples: List[RequestSample], before: Dict[str, float],
                    after: Dict[str, float]) -> Dict[str, float]:
    """Tail latency and the hit/refusal guards for one stretch of requests."""
    percentile, tail = tail_percentile([s.wall_ms for s in samples])
    requests = after["requests"] - before["requests"]
    return {
        "service.request_ms_tail": tail,
        "service.request_tail_pct": percentile,
        "service.request_samples": len(samples),
        "service.store_reuse_share":
            (after["reuses"] - before["reuses"]) / requests if requests else 0.0,
        "service.rejected": after["rejected"] - before["rejected"],
    }


def service_layer(definition: WorkloadDef, seed: int, oracle: Oracle,
                  root: Path, log: SpanLog, tally: Tally,
                  quick: bool) -> Dict[str, float]:
    """A solo client against a fresh daemon: fixed costs with no queueing."""
    probe = Daemon(definition, seed, oracle, root / "probe-daemon", log, tally)
    probe.start()
    try:
        with probe.client() as client:
            def ask(plan: str, **overrides) -> RequestSample:
                sample = probe.request(client, plan, 0, **overrides)
                if sample is None:
                    raise RuntimeError("probe request failed: " + tally.reasons[-1])
                return sample

            # First sight of this workload: the daemon generates, materializes, joins.
            miss = ask(PLANS[0], stream=False)
            stream_scale = QUICK_SCALE if quick else STREAM_PROBE_SCALE
            stream_oracle = Oracle.of(
                make_inputs(stream_scale, definition.distribution, seed))
            at_stream_scale = dict(scale=stream_scale, oracle=stream_oracle)
            ask(PLANS[0], stream=False, **at_stream_scale)

            before = probe.counters()
            solo = [ask(plan, stream=False) for _ in range(2) for plan in PLANS]
            result_only, streamed = [], []
            for _ in range(2):
                for plan in PLANS:
                    result_only.append(ask(plan, stream=False, **at_stream_scale))
                    streamed.append(ask(plan, stream=True, **at_stream_scale))
            after = probe.counters()
    finally:
        probe.close()

    # start() and close() are timed on a daemon that never joins anything:
    # until close() can wake its accept thread, that thread outlives it and
    # keeps the service, and whatever workloads it cached, alive.
    idle = Daemon(definition, seed, oracle, root / "probe-idle", log, tally)
    idle.start()
    try:
        with idle.client() as client:
            ping_ms = sampled(log, "service.ping", client.ping)
    finally:
        close_ms = timed(log, "service.close", idle.service.close)[0]

    stream_delta_ms = (median([s.wall_ms for s in streamed])
                       - median([s.wall_ms for s in result_only]))
    return {
        "service.start_ms": idle.start_ms,
        "service.close_ms": close_ms,
        "service.ping_ms": ping_ms,
        "service.miss_request_ms": miss.wall_ms,
        "service.solo_request_ms_p50": median([s.wall_ms for s in solo]),
        "service.server_ms_p50": median([s.server_join_ms for s in solo]),
        "service.stream_us_per_pair": stream_delta_ms * 1e3 / stream_oracle.pairs,
        **request_metrics(solo + result_only + streamed, before, after),
    }
