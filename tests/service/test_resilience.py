"""Crash-resumable, idempotent, corruption-safe service behaviour.

The failure-model contract (docs/serving.md):

* a retried request id whose first attempt completed **replays** the
  stored answer, bit-identical, without re-executing;
* one whose first attempt died with a previous daemon **resumes** from
  the store's pass-level checkpoint;
* a concurrent duplicate id is refused with a classified error;
* the journal keeps the newest ``DONE_ENTRIES_KEPT`` completed entries
  (a late retry of a pruned id re-executes), and finishing a request
  reads no journal entry, whatever the journal's size;
* an oversized or corrupt frame gets ``bad-frame``, a corrupt published
  segment gets ``corrupt-data`` — never garbage pairs;
* SIGTERM drains: in-flight requests still deliver their terminal frame
  and the socket file is removed on exit;
* the client retries transport failures against the same id with
  backoff, and never retries a daemon-classified error.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.parallel import RealJoinError
from repro.parallel.faults import ALGORITHM_TASKS, FaultPlan, flip_payload_bit
from repro.parallel.runner import run_real_join
from repro.service import (
    ClientError,
    JoinService,
    JoinServiceClient,
    ServiceConfig,
)
from repro.service.journal import (
    DONE_ENTRIES_KEPT,
    RequestJournal,
    valid_request_id,
)
from repro.service.protocol import MAX_FRAME_BYTES, recv_frame, send_frame
from repro.workload.generator import WorkloadSpec, generate_workload

SCALE = 0.01
SEED = 23
DISKS = 2


@pytest.fixture
def make_service(tmp_path):
    services = []

    def build(tenants=None, **overrides):
        overrides.setdefault("use_processes", False)
        config = ServiceConfig(
            root=str(tmp_path / "svc-root"),
            socket_path=str(tmp_path / "join.sock"),
            disks=DISKS,
            **overrides,
        )
        service = JoinService(config, tenants)
        service.start()
        services.append(service)
        return service

    yield build
    for service in services:
        service.close()


def join_args(**extra):
    return {"scale": SCALE, "seed": SEED, "disks": DISKS, **extra}


def service_workload():
    """Exactly the workload the daemon derives from these join args."""
    objects = max(64, int(102_400 * SCALE))
    return generate_workload(
        WorkloadSpec(r_objects=objects, s_objects=objects, seed=SEED),
        DISKS,
    )


def service_signature():
    spec_args = {
        "scale": float(SCALE),
        "seed": SEED,
        "disks": DISKS,
        "distribution": "uniform",
    }
    return "wl-" + hashlib.sha1(
        json.dumps(spec_args, sort_keys=True).encode()
    ).hexdigest()[:16]


# ------------------------------------------------------------- idempotency

def test_completed_request_id_replays_without_reexecuting(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        first = client.join("grace", request_id="req-once", **join_args())
        again = client.join("grace", request_id="req-once", **join_args())
    assert first.replayed is False
    assert again.replayed is True
    assert again.pair_count == first.pair_count
    assert again.checksum == first.checksum
    # One execution, one replay — requests_total counts executions only.
    assert service.stats_document()["service"]["requests_total"] == 1
    replays = sum(
        service.registry.counters_named("service.replayed_total").values()
    )
    assert replays == 1


def test_invalid_request_id_is_a_bad_request(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join(
                "grace", request_id="../escape", retries=0, **join_args()
            )
    assert excinfo.value.code == "bad-request"
    assert not valid_request_id("../escape")
    assert valid_request_id("req_1:a.b-c")


def test_duplicate_inflight_id_is_refused(make_service):
    service = make_service()
    with service._inflight_lock:
        service._inflight.add("req-busy")
    try:
        with JoinServiceClient(service.config.socket_path) as client:
            with pytest.raises(ClientError) as excinfo:
                client.join(
                    "grace", request_id="req-busy", retries=0, **join_args()
                )
        assert excinfo.value.code == "duplicate-request"
    finally:
        with service._inflight_lock:
            service._inflight.discard("req-busy")


def test_failed_requests_are_forgotten_not_replayed(make_service, monkeypatch):
    import repro.service.server as server_module

    def explode(*args, **kwargs):
        raise server_module.RealJoinError("injected execution failure")

    monkeypatch.setattr(server_module, "run_real_join", explode)
    service = make_service()
    journal = RequestJournal(service.config.root)
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join(
                "grace", request_id="req-fail", retries=0, **join_args()
            )
    assert excinfo.value.code == "failed"
    # An error frame is not an answer worth replaying: no journal entry
    # survives, so a retry would re-execute from scratch.
    assert journal.get("req-fail") is None


def test_failed_request_keeps_the_shared_pool(make_service, monkeypatch):
    """A join failure reaches the daemon only after every task of its
    round was collected, so the shared pool holds nothing abandoned: it
    stays, and the next request runs on it."""
    import repro.service.server as server_module

    real_join = server_module.run_real_join
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(kwargs["pool"])
        if len(calls) == 1:
            raise server_module.RealJoinError("injected execution failure")
        return real_join(*args, **kwargs)

    monkeypatch.setattr(server_module, "run_real_join", fail_once)
    service = make_service(use_processes=True, pool_workers=2)
    pool = service._pool
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join("grace", request_id="req-fail", **join_args())
        assert excinfo.value.code == "failed"
        reply = client.join("grace", request_id="req-next", **join_args())
    assert reply.pair_count == service_workload().r_objects_total
    assert service._pool is pool
    assert calls == [pool, pool]


# -------------------------------------------------------- daemon-side resume

def crash_last_pass(algorithm: str) -> FaultPlan:
    task = ALGORITHM_TASKS[algorithm][-1]
    return FaultPlan.parse(json.dumps({
        "faults": [
            {"kind": "crash", "task": task, "partition": 0, "attempt": a}
            for a in range(4)
        ]
    }))


def test_interrupted_request_resumes_after_daemon_restart(tmp_path):
    """A join that died with daemon #1 — journal entry still ``running``,
    checkpoint manifest in its warm store — is resumed, not redone, when
    its retry reaches daemon #2."""
    root = tmp_path / "svc-root"
    store = root / "stores" / f"{service_signature()}-0"
    workload = service_workload()
    with pytest.raises(RealJoinError):
        run_real_join(
            "grace", workload, str(store),
            use_processes=False, keep_store=True, collect_pairs=False,
            retries=0,
            fault_plan=crash_last_pass("grace"),
        )
    assert (store / "checkpoint.json").exists()
    RequestJournal(root).begin("req-zombie", {
        "algorithm": "grace", "tenant": "default",
    })

    baseline = run_real_join(
        "grace", workload, str(tmp_path / "direct"),
        use_processes=False, collect_pairs=False,
    )
    service = JoinService(ServiceConfig(
        root=str(root),
        socket_path=str(tmp_path / "join.sock"),
        disks=DISKS,
        use_processes=False,
    ))
    service.start()
    try:
        assert service.interrupted_requests == ["req-zombie"]
        with JoinServiceClient(service.config.socket_path) as client:
            reply = client.join(
                "grace", request_id="req-zombie", **join_args()
            )
        assert reply.resumed is True
        assert reply.passes_skipped >= 1
        assert reply.pair_count == baseline.pair_count
        assert reply.checksum == baseline.checksum
        resumed_total = sum(
            service.registry.counters_named("service.resumed_total").values()
        )
        assert resumed_total == 1
    finally:
        service.close()


# ------------------------------------------------- journal pruning and cost

def finish_all(journal, request_ids):
    for request_id in request_ids:
        entry = journal.begin(request_id, {"algorithm": "grace"})
        journal.finish(
            request_id, entry, {"kind": "result", "id": request_id}
        )


def done_ids(journal):
    """Every readable ``done`` entry on disk, by a fresh directory scan."""
    return {
        path.stem for path in journal.dir.glob("*.json")
        if (journal.get(path.stem) or {}).get("state") == "done"
    }


def test_journal_keeps_the_newest_done_entries(tmp_path):
    journal = RequestJournal(tmp_path)
    ids = [f"req-{n:03d}" for n in range(DONE_ENTRIES_KEPT + 44)]
    finish_all(journal, ids)
    assert done_ids(journal) == set(ids[44:])
    for request_id in ids[44:]:
        assert journal.get(request_id)["result"]["id"] == request_id
    for request_id in ids[:44]:
        assert journal.get(request_id) is None
    assert not list(journal.dir.glob("*.tmp"))


def test_reopened_journal_prunes_oldest_finished_first(tmp_path):
    """The startup scan orders the done index by ``finished_at``, not by
    name, and leaves ``running`` entries to :meth:`interrupted`."""
    order = list(range(300))
    random.Random(SEED).shuffle(order)
    planted = RequestJournal(tmp_path)
    for rank, n in enumerate(order):
        planted.path(f"old-{n:03d}").write_text(json.dumps({
            "state": "done", "finished_at": 1000.0 + rank,
            "request": {}, "result": {"kind": "result"},
        }))
    planted.begin("zombie-a", {"algorithm": "grace"})
    planted.begin("zombie-b", {"algorithm": "sort-merge"})

    journal = RequestJournal(tmp_path)
    assert sorted(journal.interrupted()) == ["zombie-a", "zombie-b"]
    finish_all(journal, ["fresh"])
    newest = {f"old-{n:03d}" for n in order[300 - (DONE_ENTRIES_KEPT - 1):]}
    assert done_ids(journal) == newest | {"fresh"}
    assert journal.get("zombie-a")["state"] == "running"
    assert journal.get("zombie-b")["state"] == "running"


def test_concurrent_finishes_keep_exactly_the_bound(tmp_path):
    journal = RequestJournal(tmp_path)
    errors = []

    def drive(worker):
        try:
            finish_all(journal, [f"w{worker}-{n}" for n in range(40)])
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=drive, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(done_ids(journal)) == DONE_ENTRIES_KEPT
    assert len(list(journal.dir.glob("*.json"))) == DONE_ENTRIES_KEPT
    assert not list(journal.dir.glob("*.tmp"))


def test_finish_reads_no_entry_whatever_the_journal_size(
    tmp_path, monkeypatch
):
    journal = RequestJournal(tmp_path)
    finish_all(journal, [f"old-{n}" for n in range(DONE_ENTRIES_KEPT)])
    reads = []
    real_get, real_read_text = RequestJournal.get, Path.read_text

    def counting_get(self, request_id):
        reads.append(request_id)
        return real_get(self, request_id)

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(RequestJournal, "get", counting_get)
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    finish_all(journal, [f"new-{n}" for n in range(50)])
    monkeypatch.undo()
    assert reads == []
    assert len(done_ids(journal)) == DONE_ENTRIES_KEPT


def test_late_retry_of_a_pruned_id_re_executes(make_service, monkeypatch):
    import repro.service.journal as journal_module

    monkeypatch.setattr(journal_module, "DONE_ENTRIES_KEPT", 4)
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        first = [
            client.join("grace", request_id=f"req-{n}", **join_args())
            for n in range(6)
        ]
        newest = client.join("grace", request_id="req-5", **join_args())
        oldest = client.join("grace", request_id="req-0", **join_args())
    assert newest.replayed is True
    assert oldest.replayed is False
    assert oldest.checksum == first[0].checksum
    assert service.stats_document()["service"]["requests_total"] == 7


def test_startup_deletes_stale_journal_tmps(tmp_path, make_service):
    journal = RequestJournal(tmp_path / "svc-root")
    finish_all(journal, ["req-a", "req-b"])
    stale = journal.dir / "req-crashed.json.tmp"
    stale.write_text('{"state": "runn')  # torn before its rename
    make_service()
    assert not stale.exists()
    assert done_ids(journal) == {"req-a", "req-b"}
    assert journal.get("req-a")["result"]["id"] == "req-a"


# ----------------------------------------------------- corruption never served

def test_oversized_frame_gets_a_classified_bad_frame_error(make_service):
    service = make_service()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(service.config.socket_path)
        # The length prefix alone condemns the frame — the server never
        # reads (or buffers) a payload it has already refused.
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        frame = recv_frame(sock)
        assert frame["kind"] == "error"
        assert frame["code"] == "bad-frame"
        # The daemon closed the conversation after the classified error.
        assert recv_frame(sock) is None
    # And it is still serving fresh connections.
    with JoinServiceClient(service.config.socket_path) as client:
        assert client.ping()["uptime_s"] >= 0


def test_bit_flipped_pairs_segment_yields_corrupt_data_not_garbage(
    make_service, monkeypatch
):
    """Corruption landing between a pass barrier and the streaming read
    must surface as a ``corrupt-data`` error frame — never as pairs."""
    import repro.service.server as server_module

    real_run = run_real_join

    def run_and_rot(*args, **kwargs):
        result = real_run(*args, **kwargs)
        victim = next(p for p in result.pair_files if p.count > 0)
        flip_payload_bit(victim.path, record=0, bit=4)
        return result

    monkeypatch.setattr(server_module, "run_real_join", run_and_rot)
    service = make_service()
    delivered = []
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join(
                "grace", stream_pairs=True, on_pairs=delivered.extend,
                retries=0, **join_args(),
            )
    assert excinfo.value.code == "corrupt-data"
    assert delivered == []  # not one garbage pair crossed the wire
    corrupt_total = sum(
        service.registry.counters_named("service.corrupt_total").values()
    )
    assert corrupt_total == 1


# ------------------------------------------------------------- client retry

class FlakyServer(threading.Thread):
    """Accepts twice: drops the first connection cold, serves the second."""

    def __init__(self, socket_path: str):
        super().__init__(daemon=True)
        self.socket_path = socket_path
        self.requests_seen = []
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(socket_path)
        self._listener.listen(2)

    def run(self):
        # Connection 1: read the request, then vanish mid-conversation.
        conn, _ = self._listener.accept()
        self.requests_seen.append(recv_frame(conn))
        conn.close()
        # Connection 2: serve the retry properly.
        conn, _ = self._listener.accept()
        request = recv_frame(conn)
        self.requests_seen.append(request)
        send_frame(conn, {
            "kind": "accepted",
            "request_id": request["request_id"],
            "tenant": "default",
            "algorithm": request["algorithm"],
        })
        send_frame(conn, {
            "kind": "result",
            "request_id": request["request_id"],
            "tenant": "default",
            "algorithm": request["algorithm"],
            "pair_count": 7,
            "checksum": 99,
            "wall_ms": 1.0,
            "request_ms": 1.0,
            "kernel_mode": "vector",
        })
        conn.close()
        self._listener.close()


def test_client_retries_transport_breaks_with_the_same_id(tmp_path):
    server = FlakyServer(str(tmp_path / "flaky.sock"))
    server.start()
    client = JoinServiceClient(str(tmp_path / "flaky.sock"), timeout=10)
    try:
        reply = client.join(
            "grace", retries=2, backoff_s=0.01, **join_args()
        )
    finally:
        client.close()
        server.join(timeout=10)
    assert reply.pair_count == 7
    assert reply.attempts == 2
    first, second = server.requests_seen
    assert first["request_id"] == second["request_id"]  # idempotent retry


def test_classified_errors_are_never_retried(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join("quantum-join", retries=5, **join_args())
    assert excinfo.value.code == "bad-request"
    bad_requests = sum(
        service.registry.counters_named("service.bad_requests_total").values()
    )
    assert bad_requests == 1


def test_deadline_expiry_is_classified_and_bounds_the_call(tmp_path):
    path = tmp_path / "void.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(1)
    try:
        client = JoinServiceClient(str(path), timeout=0.2)
        started = time.perf_counter()
        with pytest.raises(ClientError) as excinfo:
            client.join(
                "grace", retries=50, backoff_s=0.05, deadline_s=0.5,
                **join_args(),
            )
        elapsed = time.perf_counter() - started
        client.close()
    finally:
        listener.close()
    assert excinfo.value.code == "deadline"
    assert elapsed < 5.0  # bounded by the deadline, not by 50 retries


# ------------------------------------------------------------ graceful drain

def test_sigterm_drains_inflight_requests_then_exits(tmp_path):
    socket_path = tmp_path / "drain.sock"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", str(socket_path),
            "--root", str(tmp_path / "svc-root"),
            "--disks", str(DISKS), "--inline",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(
            Path(__file__).resolve().parents[2] / "src"
        )},
    )
    try:
        deadline = time.time() + 30
        while not socket_path.exists():
            assert time.time() < deadline, proc.stdout.read()
            assert proc.poll() is None, proc.stdout.read()
            time.sleep(0.1)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60)
            sock.connect(str(socket_path))
            send_frame(sock, {
                "op": "join", "algorithm": "grace", **join_args(),
            })
            accepted = recv_frame(sock)
            assert accepted["kind"] == "accepted"
            # The daemon is now mid-join; ask it to die politely.
            proc.send_signal(signal.SIGTERM)
            result = recv_frame(sock)
            assert result["kind"] == "result"
            assert result["pair_count"] > 0
        assert proc.wait(timeout=60) == 0
        assert not socket_path.exists()  # socket file removed on exit
        output = proc.stdout.read()
        assert "draining in-flight requests" in output
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
