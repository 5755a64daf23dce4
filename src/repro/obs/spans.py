"""Span model: batch bus events → a Chrome/Perfetto batch trace.

The single-System :class:`~repro.obs.timeline.EventTimeline` draws
cycles; this module draws *wall time across the fleet*. The collector's
JSONL event stream is folded into a Chrome trace with one track per
worker process (``worker <pid>``) plus a ``runner`` track for the
parent: job executions become duration ("X") spans, retries and cached
skips become instant ("i") markers, pool rebuilds and worker deaths
land on the runner track, and a ``jobs done`` counter ("C") series
tracks batch progress. A job that was started but never finished —
the worker was SIGKILLed mid-span — is closed at the batch end with
``killed: true`` so the murder is visible instead of silently absent.

Timestamps are microseconds relative to the earliest event, matching
what ``chrome://tracing`` / Perfetto expect.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.bus import JOB_STATUS, BusEvent

TRACE_PID = 1
RUNNER_TID = 1
_WORKER_TID_BASE = 10

#: parent-side events drawn as instants on the runner track
_RUNNER_INSTANTS = {
    "job.cached", "job.retry", "job.quarantined", "job.cancelled",
    "worker.death", "pool.rebuild", "batch.start", "batch.end",
}

#: the job ends a worker emits: each closes the open span on its track
_CLOSERS = {
    kind: status for kind, status in JOB_STATUS.items()
    if kind not in _RUNNER_INSTANTS
}


def _as_events(events: Iterable) -> list[BusEvent]:
    out = []
    for event in events:
        if isinstance(event, dict):
            event = BusEvent.from_dict(event)
        out.append(event)
    return out


def build_batch_trace(
    events: Iterable[BusEvent | dict], label: str = "repro batch"
) -> dict:
    """Fold a batch event stream into a Chrome trace dict.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms", ...}``
    ready for :func:`json.dump` and accepted by
    :func:`repro.obs.timeline.validate_trace`.
    """
    records = _as_events(events)
    if records:
        t0 = min(event.ts for event in records)
        t_end = max(event.ts for event in records)
    else:
        t0 = t_end = 0.0

    def us(ts: float) -> int:
        return max(0, int(round((ts - t0) * 1e6)))

    # one track per worker pid, in order of first appearance
    worker_tids: dict[int, int] = {}

    def tid_for(pid: int) -> int:
        if pid not in worker_tids:
            worker_tids[pid] = _WORKER_TID_BASE + len(worker_tids)
        return worker_tids[pid]

    trace_events: list[dict] = []
    done = 0
    # open job spans per pid: pid -> (start event)
    open_spans: dict[int, BusEvent] = {}

    for event in records:
        kind = event.kind
        if kind == "job.start":
            # A second start on the same pid means the previous span's
            # terminator was lost (killed worker whose pid got reused,
            # or a dropped event) — close it defensively first.
            prior = open_spans.pop(event.pid, None)
            if prior is not None:
                trace_events.append(_span(prior, event.ts, us, tid_for,
                                          status="lost"))
            open_spans[event.pid] = event
        elif kind in _CLOSERS:
            start = open_spans.pop(event.pid, None)
            if start is not None:
                trace_events.append(
                    _span(start, event.ts, us, tid_for,
                          status=_CLOSERS[kind],
                          extra=event.fields)
                )
            else:
                # terminator without a start: draw an instant so the
                # event is not lost from the picture
                trace_events.append({
                    "name": kind, "cat": "job", "ph": "i", "s": "t",
                    "pid": TRACE_PID, "tid": tid_for(event.pid),
                    "ts": us(event.ts),
                    "args": dict(event.fields),
                })
            if kind == "job.finish":
                done += 1
                trace_events.append(_counter(us(event.ts), done))
        elif kind in _RUNNER_INSTANTS:
            if kind == "job.cached":
                done += 1
                trace_events.append(_counter(us(event.ts), done))
            scope = "g" if kind.startswith("batch.") else "t"
            trace_events.append({
                "name": kind,
                "cat": "retry" if kind == "job.retry" else "runner",
                "ph": "i", "s": scope,
                "pid": TRACE_PID, "tid": RUNNER_TID,
                "ts": us(event.ts),
                "args": dict(event.fields),
            })
        elif kind == "worker.spawn":
            tid_for(event.pid)  # reserve the track even if no job ran
            trace_events.append({
                "name": kind, "cat": "runner", "ph": "i", "s": "t",
                "pid": TRACE_PID, "tid": tid_for(event.pid),
                "ts": us(event.ts), "args": dict(event.fields),
            })
        # store-level events (cache.*, ckpt.*, trace.*) are counters in
        # the rollup, not spans — they stay off the drawing.

    # spans still open at batch end: the worker died mid-job
    for pid, start in open_spans.items():
        trace_events.append(
            _span(start, t_end, us, tid_for, status="killed")
        )

    # metadata: thread names so Perfetto labels the tracks
    meta = [{
        "name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": 0,
        "args": {"name": label},
    }, {
        "name": "thread_name", "ph": "M", "pid": TRACE_PID,
        "tid": RUNNER_TID, "args": {"name": "runner"},
    }]
    for pid, tid in worker_tids.items():
        meta.append({
            "name": "thread_name", "ph": "M", "pid": TRACE_PID,
            "tid": tid, "args": {"name": f"worker {pid}"},
        })

    trace_events.sort(key=lambda e: (e["tid"], e["ts"]))
    return {
        "traceEvents": meta + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.spans", "label": label},
    }


def _span(start: BusEvent, end_ts: float, us, tid_for,
          status: str, extra: dict | None = None) -> dict:
    args = dict(start.fields)
    args["status"] = status
    if status == "killed":
        args["killed"] = True
    if extra:
        for key in ("wall_seconds", "error"):
            if key in extra:
                args[key] = extra[key]
    attempt = start.fields.get("attempt", 1)
    cat = "retry" if isinstance(attempt, int) and attempt > 1 else "job"
    return {
        "name": start.fields.get("job", "job"),
        "cat": cat,
        "ph": "X",
        "pid": TRACE_PID,
        "tid": tid_for(start.pid),
        "ts": us(start.ts),
        "dur": max(1, us(end_ts) - us(start.ts)),
        "args": args,
    }


def _counter(ts: int, done: int) -> dict:
    return {
        "name": "jobs done", "cat": "progress", "ph": "C",
        "pid": TRACE_PID, "tid": RUNNER_TID, "ts": ts,
        "args": {"done": done},
    }


def write_batch_trace(
    events: Iterable[BusEvent | dict],
    path: str | Path,
    label: str = "repro batch",
) -> int:
    """Build and write the batch trace; returns the event count."""
    trace = build_batch_trace(events, label)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace), encoding="utf-8")
    return len(trace["traceEvents"])
