"""The benchmark's own spans, kept in memory and written once at the end.

Spans are recorded around calls *into* the program from the benchmark's
side of the boundary; nothing here reaches into ``src/``.  The one place
program-made numbers enter is :meth:`SpanLog.attach_stages`, which hangs
the stage and task durations of a traced join's stats document under the
``join:<plan>`` span that caused them.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from stats import self_time


@dataclass
class Span:
    id: int
    name: str
    start_us: float
    end_us: float
    parent: Optional[int]
    lane: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us


class SpanLog:
    """Append-only span list with a per-thread stack of open spans."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def add(self, name: str, start_us: float, end_us: float,
            parent: Optional[int], lane: str, args: dict) -> Span:
        """Record a span with given times (``span()`` is the usual way in)."""
        with self._lock:
            span = Span(len(self.spans), name, start_us, end_us, parent, lane, args)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        """Time the body; the enclosing open span of this thread is the parent."""
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        parent = stack[-1] if stack else None
        lane = parent.lane if parent else threading.current_thread().name
        span = self.add(name, self._now_us(), 0.0,
                        parent.id if parent else None, lane, args)
        stack.append(span)
        try:
            yield span
        finally:
            span.end_us = self._now_us()
            stack.pop()

    def attach_stages(self, join: Span, document: dict) -> None:
        """Hang a traced join's stages and tasks under its ``join:`` span.

        The stats document carries durations but no start times, so the
        layout is synthetic: stages are placed back to back from the join
        span's start, and every task of a stage starts with its stage, one
        lane per worker slot.  Durations are the program's own.
        """
        cursor = join.start_us
        for label, stage in document["per_pass"].items():
            end = cursor + stage["wall_ms"] * 1e3
            stage_span = self.add(f"stage:{label}", cursor, end, join.id,
                                  join.lane, {"synthetic_start": True})
            for slot, worker in document["per_worker"].get(label, {}).items():
                self.add(f"task:{label}", cursor,
                         cursor + worker["wall_ms"] * 1e3, stage_span.id,
                         f"{join.lane}/slot-{slot}",
                         {"synthetic_start": True, "slot": slot})
            cursor = end

    def accounted_share(self, root_name: str) -> float:
        """Σ self times of every span under the ``root_name`` spans, over
        those spans' own durations — 1.0 when every microsecond of a round
        belongs to exactly one named span.  ``task:`` spans run in parallel
        inside their stage, so they are left out and the stage stands for them."""
        roots = [s for s in self.spans if s.name == root_name]
        total = sum(s.dur_us for s in roots)
        if not total:
            return 1.0
        children: Dict[Optional[int], List[Span]] = {}
        for s in self.spans:
            if not s.name.startswith("task:"):
                children.setdefault(s.parent, []).append(s)
        accounted = 0.0
        frontier = list(roots)
        while frontier:
            span = frontier.pop()
            below = children.get(span.id, [])
            accounted += self_time(span.start_us, span.end_us,
                                   [(c.start_us, c.end_us) for c in below])
            frontier.extend(below)
        return accounted / total

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Chrome trace-event JSON (open in https://ui.perfetto.dev)."""
        lanes = {lane: i for i, lane in enumerate(
            dict.fromkeys(s.lane for s in self.spans))}
        events = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": lane}}
            for lane, tid in lanes.items()
        ]
        for s in self.spans:
            events.append({
                "ph": "X", "name": s.name, "cat": s.name.split(":")[0],
                "pid": 1, "tid": lanes[s.lane],
                "ts": s.start_us, "dur": s.dur_us,
                "args": {"id": s.id, "parent": s.parent,
                         "workload": self.workload, **s.args},
            })
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                **metadata,
                "note": "stage:* and task:* spans carry the program's own "
                        "durations but synthetic start times (stages back "
                        "to back from their join's start, tasks starting "
                        "with their stage); all other spans are the "
                        "benchmark's perf_counter readings.",
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
