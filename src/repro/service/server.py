"""The join-service daemon: an always-on, multi-tenant runner facade.

One :class:`JoinService` owns what a per-run invocation of
``run_real_join`` would otherwise create and destroy every time:

* a **persistent worker pool** — pool processes stay warm across
  requests (workers are stateless; they open stores by path per task),
  so a request pays dispatch, not fork+import;
* **warm stores** — each distinct workload signature gets a store
  directory that survives between requests (``keep_store=True`` +
  ``reuse_store=True``), so R/S segments are materialized once and the
  OS page cache stays hot across requests that join the same relations;
* a **shared governor** — the bounded admission queue, extended with the
  tenant policy table's per-tenant budgets, priorities and concurrency
  caps (``docs/serving.md``);
* the **service registry** — ``service.*`` counters and the request
  latency histogram that become the schema-v6 ``service`` section.

Requests arrive over a unix socket as length-prefixed JSON frames
(:mod:`repro.service.protocol`); pair output streams back as bounded
blocks of the run's mapped PAIRS segments — the stored records, sent
undecoded as frame attachments — never materialized whole on either side.

On startup — before the socket accepts anything — the daemon sweeps the
whole service root for orphans of dead predecessors: unpublished
``*.seg.tmp`` segments (flock-probed, so a live writer's tmp survives),
metrics sidecars/markers, fault plans and budget files.  A join run
sweeps its own store, but only *inside* a run; a daemon that crashed
mid-request leaves debris no future run would touch, hence the
service-level sweep (:func:`sweep_service_root`), logged into the stats
document's ``service.startup_sweep``.

The sweep also *scrubs* the warm-store cache: every published ``*.seg``
is payload-checksum verified, corrupt segments are deleted on the spot
(a corrupt cached artifact is strictly worse than a cold one — a
recompute is correct, a corrupt serve is not), and a store whose base
R/S rotted is evicted whole so the next request rebuilds it.  Pass-level
checkpoint manifests (``checkpoint.json``) and the request journal
survive the sweep: they are exactly the state a restarted daemon resumes
from.  Requests carry idempotent client-generated ids, journaled before
execution (:mod:`repro.service.journal`); a retried id whose first
attempt completed replays the stored result, and one whose first attempt
died with a previous daemon re-executes with ``resume=True`` against the
store's checkpoint manifest, skipping the passes already proved good.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import socket
import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.governor.errors import ResourceExhausted
from repro.governor.governor import ResourceGovernor
from repro.obs.export import build_service_stats_document
from repro.obs.registry import MetricsRegistry
from repro.parallel.engine.executor import RealJoinError
from repro.parallel.runner import REAL_ALGORITHMS, run_real_join
from repro.service.journal import RequestJournal, valid_request_id
from repro.service.protocol import (
    PAIR_RECORD,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service.tenants import TenantConfig, TenantError, TenantPolicy
from repro.storage.relation import PairsFile
from repro.storage.segment import StorageError, scrub_segment
from repro.storage.store import Store, _tmp_writer_alive
from repro.workload.generator import Workload, WorkloadSpec, generate_workload


class ServiceError(RuntimeError):
    """The daemon cannot start or serve (not a per-request failure)."""


def sweep_service_root(root: str | Path) -> Dict[str, int]:
    """Sweep and scrub every store under ``root`` after a daemon death.

    Returns what was removed or verified, by category: ``seg_tmp``
    (unpublished segments whose writer no longer holds its create-time
    flock), ``sidecars`` and ``control_files`` (run-state files only a
    pre-upgrade daemon wrote — see below), ``scrubbed`` (published segments whose payload
    checksum was fully verified), ``corrupt`` (segments that failed the
    scrub — deleted), and ``evicted`` (intact base segments dropped
    because a sibling R/S in the same store rotted: half a warm store is
    not a warm store, and a later materialize must find neither half).

    Published ``*.seg`` data that *passes* its scrub is left in place —
    that is the daemon's cache, not debris.  Checkpoint manifests
    (``checkpoint.json``) and the request journal directory are
    deliberately untouched: they are the state a restarted daemon
    resumes interrupted requests from.
    """
    root = Path(root)
    counts = {
        "seg_tmp": 0, "sidecars": 0, "control_files": 0,
        "scrubbed": 0, "corrupt": 0, "evicted": 0,
    }
    if not root.exists():
        return counts
    for path in root.rglob("*.seg.tmp"):
        if _tmp_writer_alive(path):
            continue
        path.unlink(missing_ok=True)
        counts["seg_tmp"] += 1
    # Retired names from here to the scrub: nothing writes sidecars or
    # control files any more (run state travels in the task), but a
    # --root last served by an older daemon may hold them.
    for path in root.rglob("metrics_*.json"):
        if path.parent.name == "journal":
            continue  # journal entries are durable state, not debris
        path.unlink(missing_ok=True)
        counts["sidecars"] += 1
    for name in (
        "metrics.on", "kernels.mode", "faults.json", "governor.json",
        "partitioner.json", "fault_attempt_*",
    ):
        for path in root.rglob(name):
            path.unlink(missing_ok=True)
            counts["control_files"] += 1
    # Scrub what survived the sweep: the warm cache is only warm if its
    # bytes still match the checksums they were published with.
    rotten_bases: set = set()
    for path in sorted(root.rglob("*.seg")):
        try:
            scrub_segment(path)
            counts["scrubbed"] += 1
        except StorageError:
            path.unlink(missing_ok=True)
            counts["corrupt"] += 1
            if path.name in ("R.seg", "S.seg"):
                # disk<i>/R.seg — two parents up is the store directory.
                rotten_bases.add(path.parent.parent)
    for store_dir in rotten_bases:
        for base in store_dir.glob("disk*/R.seg"):
            base.unlink(missing_ok=True)
            counts["evicted"] += 1
        for base in store_dir.glob("disk*/S.seg"):
            base.unlink(missing_ok=True)
            counts["evicted"] += 1
    return counts


@dataclass
class ServiceConfig:
    """Everything a :class:`JoinService` needs beyond the tenant table."""

    root: str
    socket_path: str
    disks: int = 4
    max_concurrent: int = 2
    queue_limit: int = 8
    pool_workers: Optional[int] = None
    #: ``False`` runs kernels inline in the request threads — no pool at
    #: all.  Meant for tests and single-shot debugging, not serving.
    use_processes: bool = True
    collect_metrics: bool = True
    #: Pairs per streamed ``pairs`` frame.
    stream_batch: int = 4096
    #: Default workload geometry for requests that do not override it.
    default_scale: float = 0.05
    default_seed: int = 96


@dataclass
class _StoreEntry:
    """One warm store directory for one workload signature."""

    path: Path
    busy: bool = False
    materialized: bool = False


@dataclass
class _Caches:
    """Workloads and warm stores, keyed by workload signature."""

    workloads: Dict[str, "Future[Workload]"] = field(default_factory=dict)
    stores: Dict[str, List[_StoreEntry]] = field(default_factory=dict)


class JoinService:
    """The daemon.  ``start()`` it, ``serve_forever()`` or poll, ``close()``."""

    def __init__(
        self, config: ServiceConfig, tenants: Optional[TenantConfig] = None
    ) -> None:
        self.config = config
        self.tenants = tenants if tenants is not None else TenantConfig.open_default()
        self.governor = ResourceGovernor(
            max_concurrent=config.max_concurrent,
            queue_limit=config.queue_limit,
            tenant_limits=self.tenants.tenant_limits(),
        )
        self.registry = MetricsRegistry()
        self.startup_sweep: Dict[str, int] = {}
        self._metrics_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self._caches = _Caches()
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_cond = threading.Condition()
        self._pool_users = 0
        self._pool_recycles = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        #: Connections blocked in ``recv`` between requests; ``close()``
        #: shuts their read side so the threads exit instead of being
        #: waited out.
        self._idle_conns: set = set()
        self._idle_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._started = False
        self._started_at = 0.0
        self._active_requests = 0
        self._requests_seen = 0
        self._journal: Optional[RequestJournal] = None
        self._inflight: set = set()
        self._inflight_lock = threading.Lock()
        #: Request ids found still ``running`` in the journal at startup —
        #: joins that died with a previous daemon, awaiting their retry.
        self.interrupted_requests: List[str] = []

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Sweep orphans, warm the pool, bind the socket, start accepting."""
        if self._started:
            raise ServiceError("service already started")
        config = self.config
        root = Path(config.root)
        root.mkdir(parents=True, exist_ok=True)
        self.startup_sweep = sweep_service_root(root)
        self._journal = RequestJournal(root)
        self.interrupted_requests = self._journal.interrupted()
        with self._metrics_lock:
            for kind, n in self.startup_sweep.items():
                self.registry.count("service.swept_total", n, kind=kind)
            if self.interrupted_requests:
                self.registry.count(
                    "service.interrupted_requests",
                    len(self.interrupted_requests),
                )
        if config.use_processes:
            workers = config.pool_workers or config.disks
            self._pool = multiprocessing.Pool(processes=workers)
        socket_path = Path(config.socket_path)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        socket_path.unlink(missing_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(str(socket_path))
        except OSError as error:
            listener.close()
            raise ServiceError(
                f"cannot bind service socket {socket_path}: {error}"
            )
        listener.listen(16)
        self._listener = listener
        self._started = True
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="join-service-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Block the calling thread until someone shuts the daemon down."""
        if not self._started:
            self.start()
        self._shutdown.wait()
        self.close()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (signal-handler safe).

        Stops accepting new connections and unblocks ``serve_forever()``;
        requests already in flight run to completion — their connection
        threads are joined by :meth:`close`, so a client mid-stream still
        receives its terminal frame before the daemon exits.
        """
        self._shutdown.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does (accept fails with EINVAL).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()

    def close(self) -> None:
        """Stop accepting, drain request threads, retire the pool."""
        self.request_shutdown()
        if self._accept_thread is not None:
            self._accept_thread.join()
            self._accept_thread = None
        with self._idle_lock:
            for conn in self._idle_conns:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        for thread in list(self._conn_threads):
            thread.join(timeout=30)
        self._conn_threads.clear()
        with self._pool_cond:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
        Path(self.config.socket_path).unlink(missing_ok=True)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at if self._started else 0.0

    # ----------------------------------------------------------------- serving

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._shutdown.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break  # listener closed — shutdown
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="join-service-conn", daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ]

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                # Checked under the lock close() sweeps idle sockets
                # under: either this connection is in the set when the
                # sweep runs, or it sees the shutdown flag here.
                with self._idle_lock:
                    if self._shutdown.is_set():
                        return
                    self._idle_conns.add(conn)
                try:
                    request = recv_frame(conn)
                except ProtocolError as error:
                    self._count("service.protocol_errors_total")
                    try:
                        send_frame(conn, _error("bad-frame", str(error)))
                    except OSError:
                        pass
                    return
                finally:
                    with self._idle_lock:
                        self._idle_conns.discard(conn)
                if request is None:
                    return  # clean EOF
                if not self._dispatch(conn, request):
                    return
        except OSError:
            pass  # peer vanished mid-reply; nothing to tell it
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, conn: socket.socket, request: dict) -> bool:
        """Handle one request frame; False ends the connection."""
        op = request.get("op")
        if op == "ping":
            send_frame(conn, {
                "kind": "pong",
                "uptime_s": self.uptime_s,
                "algorithms": sorted(REAL_ALGORITHMS),
            })
            return True
        if op == "stats":
            send_frame(conn, {"kind": "stats", "document": self.stats_document()})
            return True
        if op == "shutdown":
            send_frame(conn, {"kind": "bye"})
            # Unblock serve_forever()/the accept loop right away.
            self.request_shutdown()
            return False
        if op == "join":
            self._handle_join(conn, request)
            return True
        send_frame(conn, _error("bad-request", f"unknown op {op!r}"))
        return True

    # -------------------------------------------------------------------- join

    def _handle_join(self, conn: socket.socket, request: dict) -> None:
        started = time.perf_counter()
        try:
            algorithm, spec_args, policy, priority, deadline_s = (
                self._validate(request)
            )
        except TenantError as error:
            self._note_rejection(request.get("tenant"))
            send_frame(conn, _error("unknown-tenant", str(error)))
            return
        except ServiceError as error:
            self._count("service.bad_requests_total")
            send_frame(conn, _error("bad-request", str(error)))
            return
        request_id = request.get("request_id")
        if request_id is None:
            request_id = self._next_request_id()
        elif not valid_request_id(request_id):
            self._count("service.bad_requests_total")
            send_frame(conn, _error(
                "bad-request",
                f"request_id must be 1-128 chars of [A-Za-z0-9_.:-], "
                f"starting alphanumeric: {request_id!r}",
            ))
            return
        journaled = self._journal.get(request_id) if self._journal else None
        if journaled is not None and journaled.get("state") == "done":
            # Idempotent replay: the first attempt completed; a retry
            # gets the stored answer, not a re-execution.  The run's
            # pair segments were swept at first completion, so a replay
            # never streams pairs — the counts and checksum stand in.
            self._count("service.replayed_total", tenant=policy.name)
            send_frame(conn, {
                "kind": "accepted",
                "request_id": request_id,
                "tenant": policy.name,
                "algorithm": algorithm,
            })
            send_frame(conn, dict(
                journaled.get("result", {}),
                replayed=True,
                streamed_pairs=0,
            ))
            return
        with self._inflight_lock:
            if request_id in self._inflight:
                self._count("service.duplicate_requests_total")
                send_frame(conn, _error(
                    "duplicate-request",
                    f"request {request_id!r} is already executing",
                    request_id=request_id,
                ))
                return
            self._inflight.add(request_id)
        # A journal entry still ``running`` belongs to a join that died
        # with a previous daemon: re-execute with resume, so passes the
        # dead daemon checkpointed are skipped, not recomputed.
        resume = journaled is not None and journaled.get("state") == "running"
        if resume:
            self._count("service.resumed_total", tenant=policy.name)
        self._count(
            "service.requests_total", tenant=policy.name, algo=algorithm
        )
        send_frame(conn, {
            "kind": "accepted",
            "request_id": request_id,
            "tenant": policy.name,
            "algorithm": algorithm,
        })
        workload, signature = self._workload_for(spec_args)
        with self._metrics_lock:
            self._active_requests += 1
            self.registry.gauge(
                "service.queue_depth_peak",
                float(max(
                    self.governor.snapshot()["waiting"],
                    self.registry.gauges.get("service.queue_depth_peak", 0.0),
                )),
            )
        def finish(frame: dict) -> None:
            # Latency is observed *before* the terminal frame goes out, so
            # a stats request issued the instant a client sees its result
            # already counts this request.
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            frame.setdefault("request_ms", elapsed_ms)
            with self._metrics_lock:
                self.registry.observe("service.request_ms", elapsed_ms)
                self.registry.observe(
                    "service.request_ms", elapsed_ms, tenant=policy.name
                )
            send_frame(conn, frame)

        if self._journal is not None:
            self._journal.begin(request_id, {
                "algorithm": algorithm,
                "tenant": policy.name,
                "spec_args": spec_args,
            })
        try:
            with self._lease_store(signature, spec_args["disks"]) as entry:
                result, reused = self._execute(
                    algorithm, workload, entry, policy, priority,
                    resume=resume, deadline_s=deadline_s,
                )
                self.governor.note_degraded(
                    policy.name, result.degradations_total
                )
                frame = self._stream_result(
                    conn, request, request_id, policy, result, entry, reused
                )
                if self._journal is not None:
                    if frame.get("kind") == "result":
                        # Cache the terminal frame for idempotent replay —
                        # minus the stats document, which describes *this*
                        # execution, not the request's answer.
                        self._journal.finish(request_id, {
                            key: value for key, value in frame.items()
                            if key != "stats_document"
                        })
                    else:
                        self._journal.forget(request_id)
                finish(frame)
        except ResourceExhausted as error:
            if self._journal is not None:
                self._journal.forget(request_id)
            self._count(
                "service.exhausted_total",
                tenant=policy.name, resource=error.resource,
            )
            finish(_error(
                "rejected" if error.resource == "admission" else "exhausted",
                error.describe(),
                request_id=request_id,
            ))
        except RealJoinError as error:
            if self._journal is not None:
                self._journal.forget(request_id)
            self._count("service.failed_total", tenant=policy.name)
            self._recycle_pool()
            finish(_error("failed", str(error), request_id=request_id))
        except StorageError as error:
            # Integrity machinery caught corruption mid-request; the
            # classified error frame is the contract — garbage pairs are
            # never served.
            if self._journal is not None:
                self._journal.forget(request_id)
            self._count("service.corrupt_total", tenant=policy.name)
            finish(_error("corrupt-data", str(error), request_id=request_id))
        finally:
            with self._inflight_lock:
                self._inflight.discard(request_id)
            with self._metrics_lock:
                self._active_requests -= 1

    def _validate(self, request: dict):
        algorithm = request.get("algorithm")
        if algorithm not in REAL_ALGORITHMS:
            raise ServiceError(
                f"unknown algorithm {algorithm!r}; "
                f"choices: {sorted(REAL_ALGORITHMS)}"
            )
        policy = self.tenants.resolve(request.get("tenant"))
        priority = request.get("priority")
        if priority is None:
            priority = policy.priority
        elif not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError("priority must be an integer")
        else:
            # A request may lower its own priority (batch work marking
            # itself preemptible) but never raise it above its tenant's.
            priority = min(priority, policy.priority)
        scale = request.get("scale", self.config.default_scale)
        if not isinstance(scale, (int, float)) or scale <= 0:
            raise ServiceError(f"scale must be a positive number: {scale!r}")
        seed = request.get("seed", self.config.default_seed)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ServiceError(f"seed must be an integer: {seed!r}")
        disks = request.get("disks", self.config.disks)
        if not isinstance(disks, int) or isinstance(disks, bool) or disks < 1:
            raise ServiceError(f"disks must be a positive integer: {disks!r}")
        distribution = request.get("distribution", "uniform")
        if not isinstance(distribution, str):
            raise ServiceError("distribution must be a string")
        deadline_s = request.get("deadline_s")
        if deadline_s is not None and (
            not isinstance(deadline_s, (int, float))
            or isinstance(deadline_s, bool)
            or deadline_s <= 0
        ):
            raise ServiceError(
                f"deadline_s must be a positive number: {deadline_s!r}"
            )
        spec_args = {
            "scale": float(scale),
            "seed": seed,
            "disks": disks,
            "distribution": distribution,
        }
        return algorithm, spec_args, policy, priority, deadline_s

    def _workload_for(self, spec_args: dict):
        """The cached workload for a request, generated at most once.

        Single-flight per signature: the first request to name a workload
        generates it; any request arriving meanwhile waits for that result
        and shares the instance, not a copy it burned a core (and the
        GIL its sibling needs) to rebuild.
        """
        signature = "wl-" + hashlib.sha1(
            json.dumps(spec_args, sort_keys=True).encode()
        ).hexdigest()[:16]
        with self._cache_lock:
            future = self._caches.workloads.get(signature)
            first = future is None
            if first:
                future = self._caches.workloads[signature] = Future()
        if first:
            try:
                objects = max(64, int(102_400 * spec_args["scale"]))
                spec = WorkloadSpec(
                    r_objects=objects,
                    s_objects=objects,
                    distribution=spec_args["distribution"],
                    seed=spec_args["seed"],
                )
                future.set_result(generate_workload(spec, spec_args["disks"]))
            except BaseException as error:
                # Waiters see the failure; the next request starts afresh.
                with self._cache_lock:
                    del self._caches.workloads[signature]
                future.set_exception(error)
                raise
        return future.result(), signature

    @contextmanager
    def _lease_store(self, signature: str, disks: int):
        """Exclusive use of one warm store directory for ``signature``.

        Concurrent requests for the same workload each get their own
        store (created on demand), so no two runs ever share control
        files or temps; a store freed by one request is the next one's
        warm start.  A store directory inherited from a previous daemon
        whose base relations all survived the startup scrub is warm
        already — marking it materialized prevents the next request from
        colliding with (or needlessly re-creating) the published R/S.
        """
        with self._cache_lock:
            entries = self._caches.stores.setdefault(signature, [])
            entry = next((e for e in entries if not e.busy), None)
            if entry is None:
                entry = _StoreEntry(
                    path=Path(self.config.root)
                    / "stores"
                    / f"{signature}-{len(entries)}"
                )
                if all(
                    (entry.path / f"disk{disk}" / f"{name}.seg").exists()
                    for disk in range(disks)
                    for name in ("R", "S")
                ):
                    entry.materialized = True
                entries.append(entry)
            entry.busy = True
        try:
            yield entry
        finally:
            with self._cache_lock:
                entry.busy = False

    def _execute(self, algorithm, workload, entry, policy: TenantPolicy,
                 priority: int, *,
                 resume: bool = False, deadline_s: Optional[float] = None):
        reused = entry.materialized
        if reused:
            self._count("service.store_reuses_total")
        # The effective deadline is the tighter of the tenant policy's
        # and the one the client propagated with the request.
        effective_deadline = policy.deadline_s
        if deadline_s is not None:
            effective_deadline = (
                deadline_s if effective_deadline is None
                else min(effective_deadline, deadline_s)
            )
        with self._borrow_pool() as pool:
            result = run_real_join(
                algorithm,
                workload,
                str(entry.path),
                use_processes=self.config.use_processes,
                pool=pool,
                keep_store=True,
                reuse_store=reused,
                resume=resume,
                collect_pairs=False,
                collect_metrics=self.config.collect_metrics,
                mem_budget=policy.mem_budget_bytes,
                disk_budget=policy.disk_budget_bytes,
                on_pressure=policy.on_pressure,
                governor=self.governor,
                deadline_s=effective_deadline,
                tenant=policy.name,
                priority=priority,
            )
        entry.materialized = True
        if result.timeouts_total:
            # A timed-out task leaves the shared pool with an abandoned
            # worker; retire it before the next request inherits the mess.
            self._recycle_pool()
        return result, reused

    @contextmanager
    def _borrow_pool(self):
        if not self.config.use_processes:
            yield None
            return
        with self._pool_cond:
            while self._pool is None and not self._shutdown.is_set():
                self._pool_cond.wait(timeout=1)
            if self._pool is None:
                raise RealJoinError("service is shutting down")
            pool = self._pool
            self._pool_users += 1
        try:
            yield pool
        finally:
            with self._pool_cond:
                self._pool_users -= 1
                self._pool_cond.notify_all()

    def _recycle_pool(self) -> None:
        """Replace the shared pool once no request is borrowing it."""
        if not self.config.use_processes or self._shutdown.is_set():
            return
        with self._pool_cond:
            dirty, self._pool = self._pool, None
            while self._pool_users > 0:
                self._pool_cond.wait(timeout=1)
            if dirty is not None:
                dirty.terminate()
                dirty.join()
            workers = self.config.pool_workers or self.config.disks
            self._pool = multiprocessing.Pool(processes=workers)
            self._pool_recycles += 1
            self._pool_cond.notify_all()
        self._count("service.pool_recycles_total")

    def _stream_result(self, conn, request, request_id, policy,
                       result, entry, reused: bool) -> dict:
        """Stream pair frames (if asked); return the final result frame."""
        streamed = 0
        stream_ms = 0.0
        try:
            if request.get("stream_pairs"):
                started = time.perf_counter()
                streamed = self._send_pairs(conn, request_id, result)
                stream_ms = (time.perf_counter() - started) * 1000.0
        except StorageError as error:
            # A published PAIRS segment failed its payload checksum
            # between the barrier and the read — the client gets a
            # classified error, never silently-wrong pairs.
            self._count("service.corrupt_total", tenant=policy.name)
            return _error("corrupt-data", str(error), request_id=request_id)
        finally:
            # The segments are spent — streamed, rotten, or orphaned by a
            # client that hung up mid-stream (the send's OSError passes
            # through here).  Drop every temp so the warm store holds only
            # R/S for the next lease.
            self._sweep_temps(entry, result)
        if streamed:
            with self._metrics_lock:
                self.registry.count(
                    "service.stream_pairs_total", streamed, tenant=policy.name
                )
                self.registry.count(
                    "service.stream_bytes_total",
                    streamed * PAIR_RECORD.size, tenant=policy.name,
                )
                self.registry.observe(
                    "service.stream_ms", stream_ms, tenant=policy.name
                )
        governor_doc = result.governor or {}
        self._count("service.pairs_total", result.pair_count,
                    algo=result.algorithm)
        return {
            "kind": "result",
            "request_id": request_id,
            "tenant": policy.name,
            "algorithm": result.algorithm,
            "pair_count": result.pair_count,
            "checksum": result.checksum,
            "wall_ms": result.wall_ms,
            # Always "vector"; kept only because bench/rigs.py reads it.
            "kernel_mode": result.kernel_mode,
            "streamed_pairs": streamed,
            "stream_ms": stream_ms,
            "reused_store": reused,
            "admission": governor_doc.get("admission"),
            "queued_ms": governor_doc.get("queued_ms", 0.0),
            "degradations": result.degradations_total,
            "retries": result.retries_total,
            "timeouts": result.timeouts_total,
            "inline_fallbacks": result.inline_fallbacks,
            "resumed": bool((result.resume or {}).get("resumed", False)),
            "passes_skipped": int(
                (result.resume or {}).get("passes_skipped", 0)
            ),
            **(
                {"stats_document": result.stats_document()}
                if request.get("with_stats")
                else {}
            ),
        }

    def _send_pairs(self, conn, request_id: str, result) -> int:
        """Send every published PAIRS segment as binary ``pairs`` frames.

        Each segment is opened the verified way (payload CRC, so a rotten
        one raises before any of its bytes are sent) and then goes to the
        socket a block of ``stream_batch`` stored records at a time,
        straight from the mapping: nothing is decoded on this side.
        """
        streamed = 0
        header = {"kind": "pairs", "request_id": request_id}
        batch = self.config.stream_batch
        for pair_file in result.pair_files:
            with PairsFile.open(pair_file.path) as relation:
                for block in relation.segment.iter_batches(batch):
                    # Released here, not by a generator: a send that
                    # raises must not leave a view pinning the mapping
                    # while the ``with`` tries to unmap it.
                    with block:
                        header["count"] = len(block) // PAIR_RECORD.size
                        send_frame(conn, header, block)
                    streamed += header["count"]
        return streamed

    def _sweep_temps(self, entry: _StoreEntry, result) -> None:
        for pair_file in result.pair_files:
            Path(pair_file.path).unlink(missing_ok=True)
        try:
            disks = sum(
                1 for p in entry.path.glob("disk*") if p.is_dir()
            )
            if disks:
                Store(entry.path, disks).cleanup_temps()
        except OSError:
            pass

    # ------------------------------------------------------------------- stats

    def _count(self, name: str, value: float = 1, **labels) -> None:
        with self._metrics_lock:
            self.registry.count(name, value, **labels)

    def _note_rejection(self, tenant: Optional[str]) -> None:
        self.governor.note_rejected(tenant if isinstance(tenant, str) else None)
        self._count("service.unknown_tenant_total")

    def _next_request_id(self) -> str:
        with self._metrics_lock:
            self._requests_seen += 1
            return f"r{self._requests_seen}-{os.getpid()}"

    def stats_document(self) -> dict:
        """The schema-v6 service stats document, as of right now."""
        governor_snapshot = self.governor.snapshot()
        tenants = governor_snapshot["tenants"]
        # Configured-but-idle tenants still appear, with zero counts.
        for name in self.tenants.tenants:
            tenants.setdefault(
                name,
                {"admitted": 0, "queued": 0, "rejected": 0, "degraded": 0},
            )
        with self._metrics_lock:
            registry = MetricsRegistry.from_snapshot(self.registry.snapshot())
            active_requests = self._active_requests
        return build_service_stats_document(
            registry,
            tenants=tenants,
            queue_depth=governor_snapshot["waiting"],
            active_requests=active_requests,
            startup_sweep=self.startup_sweep,
            uptime_s=self.uptime_s,
            meta={
                "socket": str(self.config.socket_path),
                "disks": self.config.disks,
                "max_concurrent": self.config.max_concurrent,
                "queue_limit": self.config.queue_limit,
                "use_processes": self.config.use_processes,
                "pool_recycles": self._pool_recycles,
                "strict_tenants": self.tenants.strict,
            },
        )


def _error(code: str, message: str, **extra) -> dict:
    return {"kind": "error", "code": code, "error": message, **extra}
