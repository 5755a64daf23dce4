"""Benchmark-local span recorder for the ledger's traced pass.

Spans ``(name, start, end, parent, job_id)`` are recorded around the
calls the benchmark makes into each layer's public functions — no file
under ``src/`` carries a hook. They stay in memory for the whole run
and are written once, at exit, as Chrome/Perfetto trace JSON (the
format ``repro.obs`` already emits and ``validate_trace`` accepts).

A span's *self time* is its duration minus the part of that interval
its direct children cover, so the self times of one thread's spans add
up to the duration of that thread's outermost span.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

TRACE_PID = 1


@dataclass
class Span:
    """One timed call across a layer boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job_id: str | None
    lane: int


class SpanRecorder:
    """Collects nested spans, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lanes: dict[int, int] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The calling thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, job_id: str | None = None, parent=None):
        """Time the enclosed block as one span.

        The parent defaults to the innermost open span of the calling
        thread; ``parent`` names one explicitly (a client thread's
        outermost span hangs off the main thread's pass span). The
        job id is inherited from the parent when not given.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if job_id is None and parent is not None:
            job_id = parent.job_id
        with self._lock:
            ident = threading.get_ident()
            lane = self._lanes.setdefault(ident, len(self._lanes) + 1)
            record = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=parent.id if parent is not None else None,
                job_id=job_id,
                lane=lane,
            )
            self.spans.append(record)
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    # analysis

    def self_times(self, same_lane_only: bool = False) -> dict[int, float]:
        """Span id -> duration minus the union of its direct children.

        ``same_lane_only`` ignores children recorded on other threads
        (the form :meth:`lane_closure_error` needs).
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(
                children.get(span.id, ()), key=lambda s: s.start
            ):
                if same_lane_only and child.lane != span.lane:
                    continue
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out[span.id] = (span.end - span.start) - covered
        return out

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, total duration, total self time."""
        selfs = self.self_times()
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += selfs[span.id]
        return table

    def lane_closure_error(self) -> float:
        """Worst relative gap, over threads, between the sum of a
        thread's self times and the duration of its outermost spans.

        Zero for well-nested spans; overlapping siblings or a child
        that outlives its parent show up here.
        """
        selfs = self.self_times(same_lane_only=True)
        by_id = {span.id: span for span in self.spans}
        worst = 0.0
        for lane in set(span.lane for span in self.spans):
            mine = [span for span in self.spans if span.lane == lane]
            outer = sum(
                span.end - span.start
                for span in mine
                if span.parent is None or by_id[span.parent].lane != lane
            )
            total = sum(selfs[span.id] for span in mine)
            if outer > 0:
                worst = max(worst, abs(total - outer) / outer)
        return worst

    # ------------------------------------------------------------------
    # export

    def to_chrome(self, label: str) -> dict:
        """The spans as a Chrome/Perfetto trace dict."""
        t0 = min((span.start for span in self.spans), default=0.0)
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": 0,
                "args": {"name": label},
            }
        ]
        for lane in sorted(set(span.lane for span in self.spans)):
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": lane,
                "args": {"name": "driver" if lane == 1 else f"client {lane}"},
            })
        for span in sorted(self.spans, key=lambda s: (s.lane, s.start, s.id)):
            events.append({
                "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "ph": "X",
                "pid": TRACE_PID,
                "tid": span.lane,
                "ts": int(round((span.start - t0) * 1e6)),
                "dur": int(round((span.end - span.start) * 1e6)),
                "args": {
                    "id": span.id,
                    "parent": span.parent,
                    "job_id": span.job_id,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path, label: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        path.write_text(json.dumps(self.to_chrome(label)))
