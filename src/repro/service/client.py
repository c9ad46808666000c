"""The caller side of the join service: a thin blocking client.

:class:`JoinServiceClient` speaks the length-prefixed framing of
:mod:`repro.service.protocol` over a unix socket and nothing else — it
imports no storage, engine or numpy code, so any process on the host can
submit joins to a running daemon.  One client holds one connection;
requests on it are sequential (the daemon itself interleaves *across*
connections, one thread each).

``join`` returns a :class:`JoinReply`; with ``stream_pairs=True`` the
reply's ``pairs`` accumulates the streamed batches (or flow through the
caller's ``on_pairs`` callback instead, for joins too big to hold).
Pairs arrive as binary blocks of packed records in one reusable buffer
and are unpacked a block at a time into the ``list`` of 4-int tuples a
batch has always been; a block whose size disagrees with the count its
frame announced raises ``bad-frame`` rather than yield a short batch.

Every join carries an idempotent request id (client-generated unless the
caller supplies one) and retries *transport* failures — a connection
refused, reset, or closed mid-conversation — with exponential backoff
against the same id, so a daemon restart under the client turns into a
resumed (or replayed) request instead of a lost one.  Errors the daemon
itself classified (``bad-request``, ``rejected``, ``corrupt-data``, …)
are never retried: the daemon answered; asking again would not change
the answer.
"""

from __future__ import annotations

import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.service.protocol import (
    PAIR_RECORD,
    ProtocolError,
    recv_frame,
    send_frame,
)


class ClientError(RuntimeError):
    """The daemon refused the request or the conversation broke down."""

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class JoinReply:
    """One join's outcome as reported over the wire."""

    request_id: str
    tenant: str
    algorithm: str
    pair_count: int
    checksum: int
    wall_ms: float
    request_ms: float
    kernel_mode: str
    streamed_pairs: int = 0
    #: Server-side time spent delivering ``pairs`` frames; ``request_ms
    #: - wall_ms - stream_ms`` is admission, lease and journal.
    stream_ms: float = 0.0
    reused_store: bool = False
    admission: Optional[str] = None
    queued_ms: float = 0.0
    degradations: int = 0
    retries: int = 0
    timeouts: int = 0
    inline_fallbacks: int = 0
    replayed: bool = False
    resumed: bool = False
    passes_skipped: int = 0
    attempts: int = 1
    stats_document: Optional[dict] = None
    pairs: List[tuple] = field(default_factory=list)


class JoinServiceClient:
    """``with JoinServiceClient(socket_path) as client: client.join(...)``."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None) -> None:
        self.socket_path = socket_path
        self._timeout = timeout
        #: The one receive buffer every ``pairs`` block lands in.
        self._block = bytearray()
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self._timeout is not None:
            sock.settimeout(self._timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as error:
            sock.close()
            raise ClientError(
                f"cannot connect to join service at {self.socket_path}: "
                f"{error}"
            )
        return sock

    def _reconnect(self) -> None:
        self.close()
        self._sock = self._connect()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "JoinServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- ops

    def ping(self) -> dict:
        """Round-trip liveness: the daemon's uptime and algorithm list."""
        send_frame(self._sock, {"op": "ping"})
        return self._expect("pong")

    def stats(self) -> dict:
        """The daemon's current schema-v6 service stats document."""
        send_frame(self._sock, {"op": "stats"})
        return self._expect("stats")["document"]

    def shutdown(self) -> None:
        """Ask the daemon to stop serving and exit its accept loop."""
        send_frame(self._sock, {"op": "shutdown"})
        self._expect("bye")

    def join(
        self,
        algorithm: str,
        *,
        tenant: Optional[str] = None,
        scale: Optional[float] = None,
        seed: Optional[int] = None,
        disks: Optional[int] = None,
        distribution: Optional[str] = None,
        priority: Optional[int] = None,
        stream_pairs: bool = False,
        with_stats: bool = False,
        on_pairs: Optional[Callable[[List[tuple]], None]] = None,
        request_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.25,
    ) -> JoinReply:
        """Run one join; block until its result frame arrives.

        With ``stream_pairs``, pair batches arrive before the result;
        they accumulate on the reply unless ``on_pairs`` consumes them.
        (A retried attempt re-streams from the start, so an ``on_pairs``
        callback may see batches redelivered across attempts; the reply
        only ever holds the final attempt's pairs.)

        ``request_id`` defaults to a fresh UUID; every retry re-submits
        the *same* id, which is what lets a restarted daemon replay or
        resume the request instead of redoing it.  Only transport
        failures retry (``retries`` reconnect attempts, exponential
        ``backoff_s`` doubling per attempt); daemon-classified errors
        raise immediately.  ``deadline_s`` bounds the whole call —
        backoff and all — and is propagated to the daemon, which tightens
        its tenant deadline to the remaining budget.
        """
        if request_id is None:
            request_id = "c-" + uuid.uuid4().hex
        started = time.perf_counter()
        backoff = max(0.0, backoff_s)
        attempt = 0
        while True:
            attempt += 1
            remaining = None
            if deadline_s is not None:
                remaining = deadline_s - (time.perf_counter() - started)
                if remaining <= 0:
                    raise ClientError(
                        f"deadline of {deadline_s}s expired after "
                        f"{attempt - 1} attempt(s)",
                        code="deadline",
                    )
            try:
                reply = self._attempt_join(
                    algorithm,
                    tenant=tenant, scale=scale, seed=seed, disks=disks,
                    distribution=distribution, priority=priority, stream_pairs=stream_pairs,
                    with_stats=with_stats, on_pairs=on_pairs,
                    request_id=request_id, deadline_s=remaining,
                    started=started,
                )
                reply.attempts = attempt
                return reply
            except ClientError as error:
                if error.code is not None or attempt > retries:
                    raise
                pause = backoff * (2 ** (attempt - 1))
                if deadline_s is not None:
                    budget = deadline_s - (time.perf_counter() - started)
                    if budget <= 0:
                        raise ClientError(
                            f"deadline of {deadline_s}s expired retrying "
                            f"after: {error}",
                            code="deadline",
                        )
                    pause = min(pause, budget)
                if pause > 0:
                    time.sleep(pause)
                try:
                    self._reconnect()
                except ClientError:
                    continue  # next attempt retries the connect too

    def _attempt_join(
        self,
        algorithm: str,
        *,
        tenant, scale, seed, disks, distribution, priority,
        stream_pairs: bool, with_stats: bool, on_pairs,
        request_id: str, deadline_s: Optional[float], started: float,
    ) -> JoinReply:
        request = {
            "op": "join",
            "algorithm": algorithm,
            "request_id": request_id,
        }
        for key, value in (
            ("tenant", tenant),
            ("scale", scale),
            ("seed", seed),
            ("disks", disks),
            ("distribution", distribution),
            ("priority", priority),
            ("deadline_s", deadline_s),
        ):
            if value is not None:
                request[key] = value
        if stream_pairs:
            request["stream_pairs"] = True
        if with_stats:
            request["with_stats"] = True
        try:
            send_frame(self._sock, request)
        except OSError as error:
            raise ClientError(f"cannot send request: {error}")
        accepted = self._expect("accepted")
        pairs: List[tuple] = []
        while True:
            frame = self._recv()
            kind = frame.get("kind")
            if kind == "pairs":
                count = frame.get("count")
                if (
                    not isinstance(count, int)
                    or len(self._block) != count * PAIR_RECORD.size
                ):
                    raise ClientError(
                        f"pairs frame announces {count!r} pairs but carries "
                        f"{len(self._block)} bytes "
                        f"({PAIR_RECORD.size} per pair)",
                        code="bad-frame",
                    )
                batch = list(PAIR_RECORD.iter_unpack(self._block))
                if on_pairs is not None:
                    on_pairs(batch)
                else:
                    pairs.extend(batch)
            elif kind == "result":
                return JoinReply(
                    request_id=frame.get("request_id", accepted["request_id"]),
                    tenant=frame["tenant"],
                    algorithm=frame["algorithm"],
                    pair_count=frame["pair_count"],
                    checksum=frame["checksum"],
                    wall_ms=frame["wall_ms"],
                    request_ms=(time.perf_counter() - started) * 1000.0,
                    kernel_mode=frame["kernel_mode"],
                    streamed_pairs=frame.get("streamed_pairs", 0),
                    stream_ms=frame.get("stream_ms", 0.0),
                    reused_store=frame.get("reused_store", False),
                    admission=frame.get("admission"),
                    queued_ms=frame.get("queued_ms", 0.0),
                    degradations=frame.get("degradations", 0),
                    retries=frame.get("retries", 0),
                    timeouts=frame.get("timeouts", 0),
                    inline_fallbacks=frame.get("inline_fallbacks", 0),
                    replayed=frame.get("replayed", False),
                    resumed=frame.get("resumed", False),
                    passes_skipped=frame.get("passes_skipped", 0),
                    stats_document=frame.get("stats_document"),
                    pairs=pairs,
                )
            elif kind == "error":
                raise ClientError(
                    frame.get("error", "join failed"), code=frame.get("code")
                )
            else:
                raise ClientError(
                    f"unexpected frame kind {kind!r} while awaiting result"
                )

    # -------------------------------------------------------------- plumbing

    def _recv(self) -> dict:
        try:
            frame = recv_frame(self._sock, self._block)
        except (ProtocolError, OSError) as error:
            raise ClientError(f"conversation with the daemon broke: {error}")
        if frame is None:
            raise ClientError("daemon closed the connection mid-conversation")
        return frame

    def _expect(self, kind: str) -> dict:
        frame = self._recv()
        if frame.get("kind") == "error":
            raise ClientError(
                frame.get("error", "request refused"), code=frame.get("code")
            )
        if frame.get("kind") != kind:
            raise ClientError(
                f"expected a {kind!r} frame, got {frame.get('kind')!r}"
            )
        return frame
