"""The six workloads and the two rigs that run them.

An :class:`Engine` calls ``run_real_join`` directly (the ``repro join
--real`` user); a :class:`Daemon` drives an in-process ``JoinService``
through its socket with closed-loop clients (the ``repro client join``
user).  Both check every answer against the oracle, count what failed
instead of stopping, and measure only through the program's public
functions and the numbers its results already carry.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.joins import expected_checksum, verify_pairs
from repro.parallel import run_real_join
from repro.service import (
    JoinService,
    JoinServiceClient,
    ServiceConfig,
    TenantConfig,
)
from repro.workload import Workload, WorkloadSpec, generate_workload

from spans import SpanLog

#: The paper's three plans plus the one extension the daemon already
#: serves.  grace-radix / grace-learned stay out so that an audit may
#: delete them without touching the gate.
PLANS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")
DISKS = 4
POOL_WORKERS = min(4, os.cpu_count() or 1)
#: Callers of ``repro client join`` block on the reply: a closed loop with
#: zero think time.  Two clients keep load generation within ``nproc``.
CLIENTS = 2
QUICK_SCALE = 0.05
MIB = 1 << 20


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    why: str
    scale: float
    mode: str  # "cold" | "warm" | "serve"
    distribution: str = "uniform"
    mem_budget: Optional[int] = None
    stream: bool = False


WORKLOADS = (
    WorkloadDef(
        "cold_uniform",
        "one-shot join, fresh store each time: storage (materialize, collect, "
        "destroy) is ~80% of wall, kernels ~12%",
        scale=1.0, mode="cold"),
    WorkloadDef(
        "warm_uniform",
        "paper geometry on a kept store: ~10 ms tasks, so dispatch, control "
        "files, barrier and sweep are ~25% of wall; storage materialize idle",
        scale=1.0, mode="warm"),
    WorkloadDef(
        "warm_hot",
        "4x objects, 62% of R into a quarter of S: kernels ~84% of wall, the "
        "slowest partition sets each stage, rebalance=auto fires",
        scale=4.0, mode="warm", distribution="partition_hot"),
    WorkloadDef(
        "warm_budget",
        "warm_uniform under a 4 MiB budget: every plan admitted degraded, so "
        "governor, ladder rungs, small-batch I/O and scalar kernels do the work",
        scale=1.0, mode="warm", mem_budget=4 * MIB),
    WorkloadDef(
        "serve_result",
        "2 closed-loop clients on a warm daemon, result frame only: protocol, "
        "journal, lease, admission and the armed governor are ~half the request",
        scale=1.0, mode="serve"),
    WorkloadDef(
        "serve_stream",
        "same daemon streaming 25,600 pairs per request: pair iteration, JSON "
        "framing and client decode are ~75% of the request",
        scale=0.25, mode="serve", stream=True),
)


def make_inputs(scale: float, distribution: str, seed: int) -> Workload:
    """The workload the daemon would generate for the same request."""
    spec = replace(
        WorkloadSpec.paper_validation(scale=scale, seed=seed),
        distribution=distribution)
    return generate_workload(spec, DISKS)


@dataclass
class Oracle:
    pairs: int
    checksum: int

    @classmethod
    def of(cls, inputs: Workload) -> "Oracle":
        return cls(inputs.r_objects_total, expected_checksum(inputs))

    def accepts(self, pair_count: int, checksum: int) -> bool:
        return pair_count == self.pairs and checksum == self.checksum


class Tally:
    """Operations attempted and failed (client threads share one tally)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
            self.reasons.append(reason)


@dataclass
class JoinSample:
    plan: str
    wall_ms: float
    pass_ms: float
    degradations: int
    #: Traced joins only: the stats document and what building it cost.
    document: Optional[dict] = None
    document_ms: float = 0.0


def leaked_files(root: Path) -> List[str]:
    """Run-scoped files that must not outlive a join, by literal name.

    Names are spelled out here, not imported, so the check keeps working
    when the program stops writing one of them.
    """
    control = {"metrics.on", "kernels.mode", "partitioner.json",
               "governor.json", "faults.json"}
    leaks = []
    for path in root.rglob("*"):
        name = path.name
        if (name.endswith(".seg.tmp") or name in control
                or name.startswith("fault_attempt_")
                or (name.startswith("metrics_") and name.endswith(".json")
                    and path.parent.name != "journal")):
            leaks.append(str(path.relative_to(root)))
    return leaks


class Engine:
    """Direct ``run_real_join`` calls over one shared pool.

    ``round()`` runs the four plans once each.  In ``cold`` mode every join
    gets a fresh store root and collects its pairs; otherwise the four
    plans share one kept store.
    """

    def __init__(self, definition: WorkloadDef, inputs: Workload,
                 oracle: Oracle, root: Path, log: SpanLog, tally: Tally) -> None:
        self.definition = definition
        self.inputs = inputs
        self.oracle = oracle
        self.root = root
        self.log = log
        self.tally = tally
        self.kernel_mode: Optional[str] = None
        self._fresh = 0
        self._warm_ready = False
        # spawn, not fork: the daemon rig runs threads in this process.
        self.pool = multiprocessing.get_context("spawn").Pool(POOL_WORKERS)

    def warm_up(self) -> None:
        """One full round: workers imported, store materialized, caches hot."""
        self.round(kind="warmup")

    def close(self) -> None:
        self.pool.close()
        self.pool.join()

    def _join(self, plan: str, *, cold: bool, traced: bool, inline: bool,
              mem_budget: Optional[int], keep_result: bool):
        """One checked join: ``(sample, result, span)``, or None if it raised.

        The result (and the pairs it holds) is dropped at once unless the
        round still needs it, as a one-shot caller's would be.
        """
        if cold:
            self._fresh += 1
            options = dict(store_root=str(self.root / f"cold-{self._fresh}"),
                           collect_pairs=True)
        else:
            options = dict(store_root=str(self.root / "warm"),
                           collect_pairs=False, keep_store=True,
                           reuse_store=self._warm_ready)
        if mem_budget is not None:
            options.update(mem_budget=mem_budget, on_pressure="degrade")
        self.tally.attempt()
        with self.log.span(f"join:{plan}") as span:
            started = time.perf_counter()
            try:
                result = run_real_join(
                    plan, self.inputs,
                    use_processes=not inline,
                    pool=None if inline else self.pool,
                    collect_metrics=traced, **options)
            except Exception as error:  # count it, keep the run going
                self.tally.fail(f"{plan}: {type(error).__name__}: {error}")
                return None
            wall_ms = (time.perf_counter() - started) * 1e3
        if not cold:
            self._warm_ready = True
        self.kernel_mode = result.kernel_mode
        if not self.oracle.accepts(result.pair_count, result.checksum):
            self.tally.fail(f"{plan}: wrong answer")
        sample = JoinSample(plan, wall_ms, sum(result.pass_wall_ms.values()),
                            result.degradations_total)
        return sample, result if keep_result else None, span

    def round(self, *, number: int = -1, warm: bool = False,
              traced: bool = False, inline: bool = False,
              mem_budget: Union[int, None, str] = "own",
              keep_pairs: Optional[list] = None,
              kind: str = "round") -> Tuple[float, List[JoinSample]]:
        """One round of the four plans: ``(wall_ms, samples)``.

        By default the round is the workload's own (its mode and budget);
        ``warm=True`` forces the kept store and ``mem_budget`` overrides
        the budget (``None`` = ungoverned) for the layer comparisons.
        Stats documents of a traced round are built after its clock stops.
        """
        cold = self.definition.mode == "cold" and not warm
        if mem_budget == "own":
            mem_budget = self.definition.mem_budget
        with self.log.span(kind, round=number):
            started = time.perf_counter()
            joined = [
                self._join(plan, cold=cold, traced=traced, inline=inline,
                           mem_budget=mem_budget,
                           keep_result=traced or keep_pairs is not None)
                for plan in PLANS
            ]
            wall_ms = (time.perf_counter() - started) * 1e3
        samples = []
        for sample, result, span in filter(None, joined):
            if traced:
                built = time.perf_counter()
                sample.document = result.stats_document(self.inputs)
                sample.document_ms = (time.perf_counter() - built) * 1e3
                self.log.attach_stages(span, sample.document)
            if keep_pairs is not None:
                keep_pairs.append((sample.plan, result.pairs))
            samples.append(sample)
        return wall_ms, samples

    def verify_pairs(self, kept: list) -> None:
        """The slow multiset check, for a round that kept its pairs."""
        for plan, pairs in kept:
            self.tally.attempt()
            try:
                verify_pairs(self.inputs, pairs)
            except AssertionError as error:
                self.tally.fail(f"{plan}: verify_pairs: {error}")


@dataclass
class RequestSample:
    plan: str
    client: int
    wall_ms: float
    server_join_ms: float


class _PairSink:
    """Counts and checksums streamed pairs the way the oracle does."""

    def __init__(self) -> None:
        self.count = 0
        self.checksum = 0

    def __call__(self, batch: List[tuple]) -> None:
        self.count += len(batch)
        self.checksum = (self.checksum + sum(
            rid * 1_000_003 + sid * 7919 + s_value
            for rid, sid, _payload, s_value in batch
        )) % (1 << 61)


class Daemon:
    """An in-process ``JoinService`` and the closed-loop clients driving it."""

    def __init__(self, definition: WorkloadDef, seed: int, oracle: Oracle,
                 root: Path, log: SpanLog, tally: Tally) -> None:
        self.definition = definition
        self.seed = seed
        self.oracle = oracle
        self.log = log
        self.tally = tally
        self.kernel_mode: Optional[str] = None
        # A relative path keeps the socket under the 108-byte sun_path
        # limit however deep the checkout sits.
        self.socket_path = os.path.relpath(root / "join.sock")
        self.service = JoinService(
            ServiceConfig(
                root=str(root / "service"), socket_path=self.socket_path,
                disks=DISKS, max_concurrent=CLIENTS, queue_limit=64,
                pool_workers=POOL_WORKERS, collect_metrics=False),
            TenantConfig.open_default())
        self.start_ms = 0.0

    def start(self) -> None:
        started = time.perf_counter()
        self.service.start()
        self.start_ms = (time.perf_counter() - started) * 1e3

    def warm_up(self) -> None:
        """Start, then both clients at once for one cycle, so that both
        sibling stores exist before anything is timed."""
        self.start()
        self.load(seconds=0)

    def client(self) -> JoinServiceClient:
        return JoinServiceClient(self.socket_path)

    def close(self) -> None:
        """Shut the daemon down without waiting out the service's 5 s join.

        Closing the listener does not wake a blocked ``accept()`` on Linux,
        so after the ``shutdown`` op one more connection lets the accept
        loop notice the flag.  ``JoinService.close()`` alone is what
        ``service.close_ms`` times; this path only saves the benchmark's
        own budget.
        """
        try:
            with self.client() as client:
                client.shutdown()
            poke = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                poke.connect(self.socket_path)
            finally:
                poke.close()
        except (OSError, RuntimeError):
            pass  # already down, or a later fix made the poke unnecessary
        self.service.close()

    def request(self, client: JoinServiceClient, plan: str, who: int, *,
                stream: Optional[bool] = None, scale: Optional[float] = None,
                oracle: Optional[Oracle] = None) -> Optional[RequestSample]:
        """One checked ``client.join``; None (and a tally mark) on failure."""
        stream = self.definition.stream if stream is None else stream
        oracle = self.oracle if oracle is None else oracle
        sink = _PairSink() if stream else None
        self.tally.attempt()
        with self.log.span("request", plan=plan, client=who) as span:
            started = time.perf_counter()
            try:
                reply = client.join(
                    plan,
                    scale=self.definition.scale if scale is None else scale,
                    seed=self.seed,
                    disks=DISKS, distribution=self.definition.distribution,
                    stream_pairs=stream, on_pairs=sink)
            except Exception as error:  # refusals and transport errors alike
                self.tally.fail(f"{plan}: {type(error).__name__}: {error}")
                return None
            wall_ms = (time.perf_counter() - started) * 1e3
        self.kernel_mode = reply.kernel_mode
        # The daemon's own join wall; the request span's self time is then
        # protocol, journal, lease, admission and delivery.
        self.log.add("server-join", span.start_us,
                     span.start_us + reply.wall_ms * 1e3, span.id, span.lane,
                     {"synthetic_start": True})
        if not oracle.accepts(reply.pair_count, reply.checksum):
            self.tally.fail(f"{plan}: wrong answer")
        elif sink is not None and not oracle.accepts(sink.count, sink.checksum):
            self.tally.fail(f"{plan}: streamed pairs differ from result frame")
        return RequestSample(plan, who, wall_ms, reply.wall_ms)

    def load(self, seconds: float) -> Tuple[float, List[RequestSample]]:
        """Closed loop, zero think time: ``(wall_s, samples)``.

        Each client cycles through the plans, starting one plan apart, and
        stops at the end of the cycle in which ``seconds`` ran out, so every
        client contributes whole rounds (``seconds=0`` is one cycle each).
        """
        clients = [self.client() for _ in range(CLIENTS)]
        samples: List[List[RequestSample]] = [[] for _ in clients]
        started = time.perf_counter()

        def client_loop(who: int) -> None:
            while True:
                for step in range(len(PLANS)):
                    plan = PLANS[(who + step) % len(PLANS)]
                    sample = self.request(clients[who], plan, who)
                    if sample is not None:
                        samples[who].append(sample)
                if time.perf_counter() - started >= seconds:
                    return

        threads = [threading.Thread(target=client_loop, args=(who,),
                                    name=f"client-{who}")
                   for who in range(CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - started
        finally:
            for client in clients:
                client.close()
        return wall_s, [s for per_client in samples for s in per_client]

    def counters(self) -> Dict[str, float]:
        """requests / store reuses / rejections so far, from ``client.stats()``."""
        with self.client() as client:
            document = client.stats()
        totals = document["totals"]["counters"]
        return {
            "requests": sum(v for k, v in totals.items()
                            if k.startswith("service.requests_total")),
            "reuses": totals.get("service.store_reuses_total", 0),
            "rejected": sum(t.get("rejected", 0)
                            for t in document["service"]["tenants"].values()),
        }


def client_rounds(samples: List[RequestSample]) -> List[float]:
    """A daemon round is one client's cycle of four consecutive requests."""
    walls = []
    for who in range(CLIENTS):
        mine = [s.wall_ms for s in samples if s.client == who]
        walls += [sum(mine[i:i + len(PLANS)])
                  for i in range(0, len(mine) - len(PLANS) + 1, len(PLANS))]
    return walls


def collect_garbage() -> None:
    """Untimed, between rounds: GC stays enabled but starts each round level."""
    gc.collect()
