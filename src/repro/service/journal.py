"""Durable request journal for the join-service daemon.

One file per request id under ``<service root>/journal/``, written with
the same tmp-write/atomic-rename protocol as segments and checkpoint
manifests, so a reader only ever sees a complete entry.  The journal is
what makes client-generated request ids *idempotent* across daemon
crashes:

* ``begin`` records a request the moment it is accepted (state
  ``running``), with everything needed to re-execute it — algorithm,
  workload arguments, tenant;
* ``finish`` flips the entry to ``done`` and caches the terminal result
  frame, so a retry of an already-completed id replays the stored
  answer instead of re-running the join;
* an entry still ``running`` when a daemon starts up is an *interrupted*
  request: the join died with the previous daemon.  Its warm store may
  hold a pass-level checkpoint manifest, so the retry that re-submits
  the id runs with ``resume=True`` and skips the passes the dead daemon
  already proved.

Failed requests are *forgotten* (the entry is deleted): an error frame
is not a result worth replaying, and a retry should re-execute from
scratch rather than be served last time's failure.

One daemon owns a ``--root`` (``sweep_service_root`` assumes the same),
so the directory is scanned once, when the journal is opened: stale
``*.json.tmp`` files are deleted, ``running`` ids are noted for
:meth:`RequestJournal.interrupted`, and the ``done`` ids become an
in-memory index, oldest ``finished_at`` first.  From then on a request
costs the daemon's one idempotency read (:meth:`RequestJournal.get`)
plus two writes, whatever the journal's size.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional

JOURNAL_DIR = "journal"

#: Completed entries kept for idempotent replay; the oldest beyond this
#: are pruned at each ``finish`` so the journal cannot grow unboundedly.
DONE_ENTRIES_KEPT = 256

#: Client-generated ids become file names; anything outside this set is
#: rejected before it can traverse paths or collide with sweeps.
_REQUEST_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.:-]{0,127}")


def valid_request_id(request_id: object) -> bool:
    """Whether ``request_id`` is safe to journal (and thus to accept)."""
    return isinstance(request_id, str) and bool(
        _REQUEST_ID.fullmatch(request_id)
    )


class RequestJournal:
    """The daemon's on-disk request log, one JSON file per request id."""

    def __init__(self, root: str | Path) -> None:
        self.dir = Path(root) / JOURNAL_DIR
        self.dir.mkdir(parents=True, exist_ok=True)
        # Request threads finish and forget concurrently.
        self._lock = threading.Lock()
        # No writer is live before the daemon accepts: a tmp is what a
        # crash between write and rename left behind.
        for tmp in self.dir.glob("*.json.tmp"):
            tmp.unlink(missing_ok=True)
        done = []
        self._running: List[str] = []
        for path in sorted(self.dir.glob("*.json")):
            entry = self.get(path.stem)
            if entry is None:
                continue
            if entry["state"] == "done":
                done.append((entry.get("finished_at", 0.0), path.stem))
            else:
                self._running.append(path.stem)
        #: Done ids, oldest ``finished_at`` first.
        self._done: OrderedDict[str, None] = OrderedDict.fromkeys(
            rid for _, rid in sorted(done)
        )

    def path(self, request_id: str) -> Path:
        return self.dir / f"{request_id}.json"

    def _write(self, request_id: str, entry: dict) -> None:
        target = self.path(request_id)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(entry, indent=1))
        os.replace(tmp, target)

    def begin(self, request_id: str, record: dict) -> dict:
        """Journal an accepted request before any work starts; the entry
        returned is what :meth:`finish` completes."""
        entry = {
            "state": "running",
            "started_at": time.time(),
            "request": record,
        }
        self._write(request_id, entry)
        return entry

    def finish(self, request_id: str, entry: dict, result_frame: dict) -> None:
        """Flip ``entry`` (from :meth:`begin`) to ``done``, caching the
        frame a retry replays, then drop the oldest ``done`` entries
        beyond the kept count."""
        self._write(request_id, dict(
            entry, state="done", finished_at=time.time(), result=result_frame,
        ))
        with self._lock:
            self._done.pop(request_id, None)
            self._done[request_id] = None
            pruned = [
                self._done.popitem(last=False)[0]
                for _ in range(len(self._done) - DONE_ENTRIES_KEPT)
            ]
        for old_id in pruned:
            self._unlink(old_id)

    def forget(self, request_id: str) -> None:
        """Drop an entry (failed request — nothing worth replaying)."""
        with self._lock:
            self._done.pop(request_id, None)
        self._unlink(request_id)

    def _unlink(self, request_id: str) -> None:
        target = self.path(request_id)
        target.unlink(missing_ok=True)
        target.with_name(target.name + ".tmp").unlink(missing_ok=True)

    def get(self, request_id: str) -> Optional[dict]:
        """The entry for ``request_id``, or None (absent/unreadable)."""
        try:
            entry = json.loads(self.path(request_id).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("state") not in (
            "running", "done",
        ):
            return None
        return entry

    def interrupted(self) -> List[str]:
        """Request ids ``running`` when the journal was opened — in flight
        when a daemon died.

        The daemon opens its journal at startup, before the socket accepts
        anything, when no request can legitimately be running; each id
        names a join whose store may hold a resumable checkpoint manifest.
        """
        return list(self._running)
