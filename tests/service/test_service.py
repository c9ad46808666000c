"""End-to-end join-service daemon tests: one process, real sockets.

Most tests run the daemon inline (``use_processes=False``) so four-
algorithm coverage stays fast; one test exercises the real shared
worker pool.  Every join the daemon serves is compared bit-identically
(pair count + checksum) against a direct ``run_real_join`` of the same
workload — the service must be a transport, never a transformation.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.joins.reference import expected_checksum
from repro.obs.export import SCHEMA_VERSION, validate_stats_document
from repro.parallel.faults import flip_payload_bit
from repro.parallel.runner import REAL_ALGORITHMS, run_real_join
from repro.service import (
    ClientError,
    JoinService,
    JoinServiceClient,
    ServiceConfig,
    TenantConfig,
)
from repro.service.journal import RequestJournal
from repro.service.protocol import PAIR_RECORD, recv_frame, send_frame
from repro.service.server import sweep_service_root
from repro.storage.segment import MappedSegment
from repro.workload.generator import WorkloadSpec, generate_workload
from tests.conftest import clobber_footer
from tests.parallel.scalar_oracle import read_pairs

SCALE = 0.01  # -> 1,024 objects after the service's max(64, 102_400 * scale)
SEED = 23
DISKS = 2


def direct_result(algorithm, tmp_path, *, mem_budget=None, collect_pairs=False):
    """What the daemon's answer must match: a solo run of the same workload."""
    workload = generate_workload(
        WorkloadSpec(
            r_objects=int(102_400 * SCALE),
            s_objects=int(102_400 * SCALE),
            seed=SEED,
        ),
        DISKS,
    )
    return run_real_join(
        algorithm,
        workload,
        str(tmp_path / f"direct-{algorithm}"),
        use_processes=False,
        collect_pairs=collect_pairs,
        mem_budget=mem_budget,
    )


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


# ------------------------------------------------------- serving correctness

def test_all_algorithms_bit_identical_to_direct_runs(make_service, tmp_path):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        for algorithm in sorted(REAL_ALGORITHMS):
            reply = client.join(algorithm, **join_args())
            direct = direct_result(algorithm, tmp_path)
            assert reply.pair_count == direct.pair_count, algorithm
            assert reply.checksum == direct.checksum, algorithm


def test_streamed_pairs_match_collected_pairs(make_service, tmp_path):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        reply = client.join("grace", stream_pairs=True, **join_args())
    assert reply.streamed_pairs == reply.pair_count
    direct = direct_result("grace", tmp_path, collect_pairs=True)
    assert sorted(reply.pairs) == sorted(tuple(p) for p in direct.pairs)


BENCHMARK_PLANS = ("nested-loops", "sort-merge", "grace", "hybrid-hash")


def pair_checksum(pairs):
    """The result frame's checksum formula, recomputed from pairs."""
    return sum(
        rid * 1_000_003 + sid * 7919 + s_value
        for rid, sid, _payload, s_value in pairs
    ) % (1 << 61)


@pytest.mark.parametrize("algorithm", BENCHMARK_PLANS)
def test_streamed_blocks_are_the_published_segments_pair_for_pair(
    make_service, monkeypatch, algorithm
):
    """The wire carries the PAIRS segments' own records: what the client
    unpacks equals the oracle's ``read_pairs`` of the same files, in the same order."""
    import repro.service.server as server_module

    real_run = run_real_join
    stored = []

    def run_and_read(*args, **kwargs):
        result = real_run(*args, **kwargs)
        for pair_file in result.pair_files:
            stored.extend(read_pairs(pair_file.path))
        return result

    monkeypatch.setattr(server_module, "run_real_join", run_and_read)
    # A batch that divides no segment evenly: every file ends on a short
    # block, and blocks never span two files.
    service = make_service(stream_batch=100)
    batches = []
    with JoinServiceClient(service.config.socket_path) as client:
        reply = client.join(
            algorithm, stream_pairs=True, on_pairs=batches.append,
            **join_args(),
        )
    streamed = [pair for batch in batches for pair in batch]
    assert all(type(batch) is list for batch in batches)
    assert all(type(pair) is tuple and len(pair) == 4 for pair in streamed)
    assert all(0 < len(batch) <= 100 for batch in batches)
    assert streamed == stored  # element for element (JoinedPair == tuple)
    assert reply.pairs == []  # on_pairs consumed them
    assert reply.streamed_pairs == reply.pair_count == len(streamed)
    assert pair_checksum(streamed) == reply.checksum


def test_second_request_reuses_the_warm_store(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        cold = client.join("hybrid-hash", **join_args())
        warm = client.join("nested-loops", **join_args())  # same workload
    assert not cold.reused_store
    assert warm.reused_store
    assert warm.pair_count == cold.pair_count
    assert warm.checksum == cold.checksum
    assert service.registry.counters["service.store_reuses_total"] == 1


def test_concurrent_first_requests_generate_the_workload_once(
    make_service, monkeypatch
):
    """Two first sights of one signature: one generate, one shared instance."""
    from repro.service import server

    generated = []

    def slow_generate(spec, disks):
        generated.append(spec)
        time.sleep(0.3)  # hold the window in which a sibling request arrives
        return generate_workload(spec, disks)

    monkeypatch.setattr(server, "generate_workload", slow_generate)
    service = make_service()
    spec_args = {"scale": SCALE, "seed": SEED, "disks": DISKS,
                 "distribution": "uniform"}
    gate = threading.Barrier(2)
    seen = []

    def first_sight():
        gate.wait(timeout=5)
        seen.append(service._workload_for(dict(spec_args)))

    threads = [threading.Thread(target=first_sight) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(generated) == 1
    (one, sig_one), (two, sig_two) = seen
    assert one is two and sig_one == sig_two
    assert service._workload_for(dict(spec_args))[0] is one


def test_a_failed_generate_is_not_cached(make_service, monkeypatch):
    from repro.service import server

    service = make_service()
    spec_args = {"scale": SCALE, "seed": SEED, "disks": DISKS,
                 "distribution": "uniform"}

    def broken(spec, disks):
        raise MemoryError("no room for the columns")

    monkeypatch.setattr(server, "generate_workload", broken)
    with pytest.raises(MemoryError):
        service._workload_for(dict(spec_args))
    monkeypatch.undo()
    workload, _ = service._workload_for(dict(spec_args))
    assert workload.r_objects_total == int(102_400 * SCALE)


def test_shared_worker_pool_serves_bit_identically(make_service, tmp_path):
    service = make_service(use_processes=True, pool_workers=2)
    with JoinServiceClient(service.config.socket_path) as client:
        first = client.join("sort-merge", **join_args())
        second = client.join("grace", **join_args())
    direct = direct_result("sort-merge", tmp_path)
    assert first.pair_count == direct.pair_count
    assert first.checksum == direct.checksum
    assert second.checksum == direct.checksum  # same workload, same output
    assert second.reused_store


# --------------------------------------------------- multi-tenant admission

def test_concurrent_tenants_under_shared_budget_stay_bit_identical(
    make_service, tmp_path
):
    """Satellite: two tenants at once, one degraded, neither corrupted."""
    tenants = TenantConfig.parse({
        "tenants": {
            "fast": {"priority": 10},
            # A budget small enough to force the plan down the ladder.
            "slow": {"priority": 0, "mem_budget": "64K"},
        },
    })
    service = make_service(tenants, max_concurrent=1)
    solo = direct_result("hybrid-hash", tmp_path)
    degraded_solo = direct_result(
        "hybrid-hash", tmp_path / "degraded", mem_budget=64 << 10
    )
    assert degraded_solo.degradations_total > 0  # the budget really bites

    replies = {}
    barrier = threading.Barrier(2)

    def submit(tenant):
        with JoinServiceClient(service.config.socket_path) as client:
            barrier.wait()
            replies[tenant] = client.join(
                "hybrid-hash", tenant=tenant, **join_args()
            )

    threads = [
        threading.Thread(target=submit, args=(name,))
        for name in ("fast", "slow")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for tenant, reply in replies.items():
        assert reply.pair_count == solo.pair_count, tenant
        assert reply.checksum == solo.checksum, tenant
    assert replies["slow"].degradations == degraded_solo.degradations_total
    assert replies["fast"].degradations == 0

    tenants_doc = service.stats_document()["service"]["tenants"]
    assert tenants_doc["fast"]["admitted"] == 1
    assert tenants_doc["slow"]["admitted"] == 1
    assert tenants_doc["slow"]["degraded"] == degraded_solo.degradations_total
    # With one slot, whoever arrived second waited for the first.
    queued = sum(t["queued"] for t in tenants_doc.values())
    assert queued <= 1


def test_saturated_governor_rejects_fail_mode_tenant(make_service):
    tenants = TenantConfig.parse({
        "tenants": {"impatient": {"on_pressure": "fail"}},
    })
    service = make_service(tenants, max_concurrent=1)
    holder = service.governor.admit(tenant="elsewhere")
    try:
        with JoinServiceClient(service.config.socket_path) as client:
            with pytest.raises(ClientError) as excinfo:
                client.join("grace", tenant="impatient", **join_args())
        assert excinfo.value.code == "rejected"
    finally:
        holder.release()
    tenants_doc = service.stats_document()["service"]["tenants"]
    assert tenants_doc["impatient"]["rejected"] == 1


def test_strict_tenant_config_rejects_strangers(make_service):
    tenants = TenantConfig.parse({
        "tenants": {"known": {}},
        "strict": True,
    })
    service = make_service(tenants)
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join("grace", tenant="stranger", **join_args())
        assert excinfo.value.code == "unknown-tenant"
        # The same connection still serves a legitimate tenant.
        reply = client.join("grace", tenant="known", **join_args())
        assert reply.pair_count > 0


def test_unknown_algorithm_is_a_bad_request(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join("quantum-join", **join_args())
        assert excinfo.value.code == "bad-request"


def test_unknown_distribution_is_a_bad_request_and_frees_its_id(make_service):
    """A bad distribution name is refused before ``accepted``, so the id
    is never pinned in flight: a corrected retry under it is served."""
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join("grace", distribution="nope", request_id="req-1",
                        retries=0, **join_args())
        assert excinfo.value.code == "bad-request"
    with JoinServiceClient(service.config.socket_path) as client:
        reply = client.join("grace", request_id="req-1", retries=0,
                            **join_args())
    workload = generate_workload(
        WorkloadSpec.paper_validation(SCALE, SEED), DISKS
    )
    assert reply.pair_count == workload.r_objects_total
    assert reply.checksum == expected_checksum(workload)


# ------------------------------------------------------------ startup sweep

def _publish_segment(path, records=3):
    """A real, checksum-footed segment the startup scrub can verify."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with MappedSegment.create(path, capacity=max(records, 1)) as seg:
        for i in range(records):
            seg.append_batch(bytes([i % 251]) * seg.layout.record_bytes)
    return path


def test_startup_sweep_removes_orphans_but_keeps_warm_segments(tmp_path):
    root = tmp_path / "svc-root"
    store = root / "stores" / "wl-dead" / "disk0"
    store.mkdir(parents=True)
    _publish_segment(store / "R.seg")  # intact: the daemon's warm cache
    (store / "RP_3.seg.tmp").write_bytes(b"dead writer's tmp")
    # Durable recovery state must ride out the sweep untouched.
    (root / "stores" / "wl-dead" / "checkpoint.json").write_text("{}")
    journal_dir = root / "journal"
    journal_dir.mkdir()
    (journal_dir / "req-1.json").write_text('{"state": "done"}')

    service = JoinService(ServiceConfig(
        root=str(root),
        socket_path=str(tmp_path / "join.sock"),
        disks=DISKS,
        use_processes=False,
    ))
    service.start()
    try:
        assert service.startup_sweep == {
            "seg_tmp": 1, "scrubbed": 1, "corrupt": 0, "evicted": 0,
        }
        assert (store / "R.seg").exists()  # the daemon's cache survives
        assert not (store / "RP_3.seg.tmp").exists()
        assert (root / "stores" / "wl-dead" / "checkpoint.json").exists()
        assert (journal_dir / "req-1.json").exists()
        # The sweep is logged into the stats document.
        document = service.stats_document()
        assert document["service"]["startup_sweep"] == service.startup_sweep
    finally:
        service.close()


def test_startup_scrub_deletes_corrupt_segments_and_evicts_the_store(tmp_path):
    root = tmp_path / "svc-root"
    store = root / "stores" / "wl-rot"
    rotten = _publish_segment(store / "disk0" / "R.seg")
    flip_payload_bit(rotten, record=1, bit=3)
    intact_sibling = _publish_segment(store / "disk0" / "S.seg")
    # A corrupt *temp* artifact only costs itself, not its store.
    other = root / "stores" / "wl-ok"
    corrupt_temp = _publish_segment(other / "disk0" / "RP_0.seg")
    flip_payload_bit(corrupt_temp, record=0, bit=0)
    survivor = _publish_segment(other / "disk0" / "R.seg")

    counts = sweep_service_root(root)
    assert counts["corrupt"] == 2
    assert counts["scrubbed"] == 2  # S.seg + the other store's R.seg
    assert counts["evicted"] == 1  # wl-rot's intact S.seg, dropped whole
    assert not rotten.exists()
    assert not intact_sibling.exists()  # half a warm store is no store
    assert not corrupt_temp.exists()
    assert survivor.exists()


def test_restart_over_a_clobbered_footer_recomputes(make_service, tmp_path):
    """A warm segment whose footer no longer parses is corrupt, not a
    footerless survivor: the restarted daemon deletes it and serves the
    next request from a rebuilt store."""
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        first = client.join("sort-merge", **join_args())
    service.close()
    root = tmp_path / "svc-root"
    [victim] = root.glob("stores/*/disk0/R.seg")
    clobber_footer(victim)

    restarted = make_service()
    assert restarted.startup_sweep["corrupt"] == 1
    assert not victim.exists()
    with JoinServiceClient(restarted.config.socket_path) as client:
        again = client.join("sort-merge", **join_args())
    assert (again.pair_count, again.checksum) == (
        first.pair_count, first.checksum
    )


# ------------------------------------------------------ stats doc & shutdown

def test_stats_document_is_valid_with_latency(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        client.join("grace", **join_args())
        client.join("sort-merge", **join_args())
        document = client.stats()
    validate_stats_document(document)
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["meta"]["backend"] == "join-service"
    section = document["service"]
    assert section["requests_total"] == 2
    assert section["latency_ms"]["count"] == 2
    assert section["latency_ms"]["p50"] > 0
    assert section["latency_ms"]["p99"] >= section["latency_ms"]["p50"]
    assert section["latency_ms"]["max"] >= section["latency_ms"]["p99"]


def test_join_reply_can_carry_the_run_stats_document(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        reply = client.join("hybrid-hash", with_stats=True, **join_args())
    assert reply.stats_document is not None
    validate_stats_document(reply.stats_document)
    assert reply.stats_document["meta"]["algorithm"] == "hybrid-hash"


def test_ping_reports_the_algorithm_menu(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        pong = client.ping()
    assert pong["algorithms"] == sorted(REAL_ALGORITHMS)
    assert pong["uptime_s"] >= 0


def test_client_shutdown_stops_the_daemon_cleanly(make_service, tmp_path):
    service = make_service()
    socket_path = tmp_path / "join.sock"
    with JoinServiceClient(str(socket_path)) as client:
        client.join("grace", **join_args())
        client.shutdown()
    service.close()
    assert not socket_path.exists()
    # No unpublished segments or run debris left anywhere in the root.
    root = tmp_path / "svc-root"
    assert list(root.rglob("*.seg.tmp")) == []
    assert list(root.rglob("metrics_*.json")) == []
    leftovers = {p.stem.split("_")[0] for p in root.rglob("*.seg")}
    assert leftovers <= {"R", "S"}  # warm base relations only


def test_connection_survives_a_protocol_error_frame(make_service):
    import socket as socketlib
    import struct

    service = make_service()
    raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    raw.connect(service.config.socket_path)
    try:
        payload = b"[]"  # an array, not an object
        raw.sendall(struct.pack(">I", len(payload)) + payload)
        from repro.service.protocol import recv_frame

        frame = recv_frame(raw)
        assert frame["kind"] == "error"
        assert frame["code"] == "bad-frame"
    finally:
        raw.close()
    # The daemon is still serving.
    with JoinServiceClient(service.config.socket_path) as client:
        assert client.ping()["algorithms"]


def test_close_wakes_the_accept_thread_instead_of_timing_out(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        client.ping()
    accept_thread = service._accept_thread
    assert accept_thread.is_alive()  # parked in accept()
    started = time.perf_counter()
    service.close()
    elapsed = time.perf_counter() - started
    assert not accept_thread.is_alive()
    assert service._accept_thread is None
    assert elapsed < 1.0, f"close() took {elapsed:.2f}s"


def test_close_wakes_idle_connections_instead_of_waiting_them_out(
    make_service,
):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as idle, \
            socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as silent:
        idle.ping()  # one request served, now parked in recv again
        silent.connect(service.config.socket_path)  # never sends a byte
        deadline = time.monotonic() + 5
        while len(service._idle_conns) < 2:
            assert time.monotonic() < deadline, "connections never parked"
            time.sleep(0.01)
        threads = list(service._conn_threads)
        started = time.perf_counter()
        service.close()
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
        assert not any(thread.is_alive() for thread in threads)


# ------------------------------------------------------- binary pair frames

class ScriptedServer(threading.Thread):
    """Accepts one join and answers it with hand-built frames."""

    def __init__(self, socket_path, *frames):
        super().__init__(daemon=True)
        self.frames = frames  # (message, attachment-or-None) after accepted
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(socket_path)
        self._listener.listen(1)

    def run(self):
        conn, _ = self._listener.accept()
        request = recv_frame(conn)
        send_frame(conn, {
            "kind": "accepted", "request_id": request["request_id"],
            "tenant": "default", "algorithm": request["algorithm"],
        })
        for message, block in self.frames:
            send_frame(conn, message, block)
        recv_frame(conn)  # hold the line until the client hangs up
        conn.close()
        self._listener.close()


@pytest.mark.parametrize("header, nbytes", [
    ({"kind": "pairs", "count": 3}, 95),   # not a whole number of records
    ({"kind": "pairs", "count": 3}, 64),   # whole records, fewer than said
    ({"kind": "pairs", "count": 1}, 64),   # whole records, more than said
    ({"kind": "pairs", "count": 2}, None),  # no attachment at all
    ({"kind": "pairs"}, 64),               # no count to check against
    ({"kind": "pairs", "count": 2.0}, 64),  # count is not an integer
])
def test_a_pairs_block_that_disagrees_with_its_count_is_refused(
    tmp_path, header, nbytes
):
    path = str(tmp_path / "liar.sock")
    block = None if nbytes is None else bytes(nbytes)
    server = ScriptedServer(path, (header, block))
    server.start()
    delivered = []
    with JoinServiceClient(path, timeout=10) as client:
        with pytest.raises(ClientError, match="pairs frame") as excinfo:
            client.join(
                "grace", stream_pairs=True, on_pairs=delivered.append,
                backoff_s=0.01, **join_args(),
            )
    server.join(timeout=10)
    assert not server.is_alive()
    assert excinfo.value.code == "bad-frame"  # classified: not retried
    assert delivered == []  # never a silently short (or padded) batch


def test_cli_stream_pairs_recomputes_count_and_checksum(make_service, capsys):
    from repro.cli import main

    service = make_service()
    direct_args = [
        "client", "--socket", service.config.socket_path, "join", "grace",
        "--scale", str(SCALE), "--seed", str(SEED), "--disks", str(DISKS),
        "--stream-pairs",
    ]
    assert main(direct_args) == 0
    out = capsys.readouterr().out
    with JoinServiceClient(service.config.socket_path) as client:
        reply = client.join("grace", **join_args())
    assert (
        f"received {reply.pair_count:,} pairs, checksum {reply.checksum}"
        in out
    )


def test_cli_stream_pairs_exits_nonzero_when_delivery_disagrees(
    tmp_path, capsys
):
    from repro.cli import main

    path = str(tmp_path / "short.sock")
    pairs = [(1, 2, 3, 4), (5, 6, 7, 8)]
    block = b"".join(PAIR_RECORD.pack(*pair) for pair in pairs)
    result = {
        "kind": "result", "request_id": "x", "tenant": "default",
        "algorithm": "grace", "wall_ms": 1.0, "kernel_mode": "vector",
        "streamed_pairs": 3,
        # The daemon claims a third pair the stream never carried.
        "pair_count": 3, "checksum": pair_checksum(pairs + [(9, 9, 9, 9)]),
    }
    server = ScriptedServer(
        path, ({"kind": "pairs", "count": 2}, block), (result, None)
    )
    server.start()
    status = main(
        ["client", "--socket", path, "join", "grace", "--stream-pairs"]
    )
    server.join(timeout=10)
    assert not server.is_alive()
    captured = capsys.readouterr()
    assert status == 1
    assert f"received 2 pairs, checksum {pair_checksum(pairs)}" in captured.out
    assert "do not match the result frame" in captured.err


def test_client_hang_up_mid_stream_sweeps_the_store_and_frees_the_lease(
    make_service, tmp_path
):
    # Enough pairs (20,480 x 32 B = 640 KiB) that the daemon is still
    # sending when the client walks away: the kernel's socket buffer
    # cannot swallow the stream whole.
    big = dict(scale=0.2, seed=SEED, disks=DISKS)
    service = make_service(stream_batch=512)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(service.config.socket_path)
    try:
        send_frame(raw, {
            "op": "join", "algorithm": "grace", "request_id": "req-hangup",
            "stream_pairs": True, **big,
        })
        block = bytearray()
        assert recv_frame(raw, block)["kind"] == "accepted"
        first = recv_frame(raw, block)
        assert first["kind"] == "pairs"
        assert len(block) == first["count"] * PAIR_RECORD.size
    finally:
        raw.close()
    deadline = time.monotonic() + 30
    while service._active_requests or service._inflight:
        assert time.monotonic() < deadline, "request never unwound"
        time.sleep(0.01)
    # The run's temps are gone although the stream died on an OSError...
    root = tmp_path / "svc-root"
    leftovers = {p.stem.split("_")[0] for p in root.rglob("*.seg")}
    assert leftovers == {"R", "S"}
    assert list(root.rglob("*.seg.tmp")) == []
    # ...the request is still ``running`` in the journal (a retry of the
    # same id resumes; nothing was answered, so nothing is replayable)...
    assert RequestJournal(root).get("req-hangup")["state"] == "running"
    assert not service.registry.counters_named("service.stream_pairs_total")
    # ...and the lease was released: the next request on the signature
    # gets the same store, warm, and a full stream.
    with JoinServiceClient(service.config.socket_path) as client:
        reply = client.join("grace", stream_pairs=True, **big)
    assert reply.reused_store
    assert reply.streamed_pairs == reply.pair_count == len(reply.pairs)
    assert pair_checksum(reply.pairs) == reply.checksum
    assert len(list((root / "stores").iterdir())) == 1


def test_rotten_segment_sends_none_of_its_blocks_and_the_store_is_swept(
    make_service, monkeypatch, tmp_path
):
    """Bit-flip the *last* published PAIRS segment between barrier and
    stream: the sound segments before it arrive intact, the rotten one
    contributes no frame at all, and the error is ``corrupt-data``."""
    import repro.service.server as server_module

    real_run = run_real_join
    sound = []

    def run_and_rot(*args, **kwargs):
        result = real_run(*args, **kwargs)
        nonempty = [p for p in result.pair_files if p.count > 0]
        assert len(nonempty) >= 2
        for pair_file in nonempty[:-1]:
            sound.extend(read_pairs(pair_file.path))
        flip_payload_bit(nonempty[-1].path, record=0, bit=4)
        return result

    monkeypatch.setattr(server_module, "run_real_join", run_and_rot)
    service = make_service(stream_batch=64)
    delivered = []
    with JoinServiceClient(service.config.socket_path) as client:
        with pytest.raises(ClientError) as excinfo:
            client.join(
                "grace", stream_pairs=True, on_pairs=delivered.extend,
                **join_args(),
            )
    assert excinfo.value.code == "corrupt-data"
    assert delivered == sound
    leftovers = {
        p.stem.split("_")[0] for p in (tmp_path / "svc-root").rglob("*.seg")
    }
    assert leftovers == {"R", "S"}


def test_stream_delivery_is_metered_per_tenant(make_service):
    service = make_service()
    with JoinServiceClient(service.config.socket_path) as client:
        quiet = client.join("grace", tenant="quiet", **join_args())
        loud = client.join(
            "grace", tenant="loud", stream_pairs=True, **join_args()
        )
        document = client.stats()
    assert quiet.streamed_pairs == 0 and quiet.stream_ms == 0.0
    assert loud.streamed_pairs == loud.pair_count
    assert 0.0 < loud.stream_ms < loud.request_ms
    counters = document["totals"]["counters"]
    assert counters["service.stream_pairs_total{tenant=loud}"] == loud.pair_count
    assert counters["service.stream_bytes_total{tenant=loud}"] == (
        loud.pair_count * PAIR_RECORD.size
    )
    timer = document["totals"]["histograms"]["service.stream_ms{tenant=loud}"]
    assert timer["count"] == 1
    assert not any("stream" in key and "quiet" in key for key in counters)
