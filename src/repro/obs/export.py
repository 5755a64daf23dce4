"""Rollups and Prometheus-style text exposition for batch telemetry.

:class:`Tally` is the one fold of a batch event stream (the bus, the
live view and ``rollup_events`` all count through it);
``prometheus_text`` renders its counters in the text exposition format
(``# TYPE`` headers, labelled samples) so a scrape-and-diff workflow —
or an actual Prometheus textfile collector pointed at the results
directory — can consume a batch without parsing JSON. No client
library involved: the format is five lines of spec.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.obs.bus import JOB_STATUS, BusEvent


class Tally:
    """Running counters over a bus event stream, one event at a time:
    counts by kind (:meth:`snapshot` reads every other counter off
    them), worker pids, finished-job wall time and the time span."""

    def __init__(self) -> None:
        self.by_kind: dict[str, int] = {}
        self.workers: set[int] = set()
        self.wall_sum = 0.0
        self.wall_count = 0
        self._t_min = math.inf
        self._t_max = -math.inf

    def add(self, event: BusEvent) -> None:
        """Fold one event in."""
        kind = event.kind
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self._t_min = min(self._t_min, event.ts)
        self._t_max = max(self._t_max, event.ts)
        if kind == "job.finish":
            wall = event.fields.get("wall_seconds")
            if isinstance(wall, (int, float)):
                self.wall_sum += wall
                self.wall_count += 1
        elif kind in ("job.start", "worker.spawn"):
            self.workers.add(event.pid)

    def snapshot(self) -> dict:
        """The JSON-serializable counters (fresh dicts, keys sorted)."""
        by_kind = dict(sorted(self.by_kind.items()))
        return {
            "events": sum(by_kind.values()),
            "by_kind": by_kind,
            "jobs": dict(sorted(
                (JOB_STATUS[kind], count)
                for kind, count in by_kind.items() if kind in JOB_STATUS
            )),
            # op label on repro_cache_ops_total: hit, miss, store, ...
            "cache_ops": {
                kind.partition(".")[2]: count
                for kind, count in by_kind.items()
                if kind.startswith("cache.")
            },
            "store_ops": {
                kind: count for kind, count in by_kind.items()
                if kind.startswith(("ckpt.", "trace."))
            },
            "retries": by_kind.get("job.retry", 0),
            "pool_rebuilds": by_kind.get("pool.rebuild", 0),
            "worker_deaths": by_kind.get("worker.death", 0),
            "workers": len(self.workers),
            "job_wall_seconds_sum": self.wall_sum,
            "job_wall_seconds_count": self.wall_count,
            "batch_wall_seconds": (
                self._t_max - self._t_min if by_kind else 0.0
            ),
        }


def rollup_events(events: Iterable[BusEvent | dict]) -> dict:
    """Reduce a finished batch event stream to :class:`Tally`'s
    counters."""
    tally = Tally()
    for event in events:
        if isinstance(event, dict):
            event = BusEvent.from_dict(event)
        tally.add(event)
    return tally.snapshot()


def header(lines: list[str], name: str, kind: str, help_text: str) -> None:
    """Append metric ``name``'s ``# HELP`` / ``# TYPE`` pair."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def sample(
    lines: list[str], name: str, value, labels: dict | None = None
) -> None:
    """Append one sample: labels sorted by key, a float as its repr."""
    label_text = ""
    if labels:
        pairs = sorted(labels.items())
        label_text = "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"
    rendered = repr(value) if isinstance(value, float) else str(value)
    lines.append(f"{name}{label_text} {rendered}")


def prometheus_text(rollup: dict, prefix: str = "repro") -> str:
    """Render a batch rollup in Prometheus text exposition format."""
    lines: list[str] = []
    p = f"{prefix}_"

    header(lines, p + "jobs_total", "counter", "Jobs by terminal status.")
    for status, count in rollup.get("jobs", {}).items():
        sample(lines, p + "jobs_total", count, {"status": status})

    header(lines, p + "cache_ops_total", "counter", "ResultCache operations.")
    for op, count in rollup.get("cache_ops", {}).items():
        sample(lines, p + "cache_ops_total", count, {"op": op})

    header(lines, p + "store_ops_total", "counter",
           "Checkpoint and trace store operations.")
    for label, count in rollup.get("store_ops", {}).items():
        store, op = label.split(".", 1)
        sample(lines, p + "store_ops_total", count, {"store": store, "op": op})

    for name, kind, help_text, key in (
        ("job_retries_total", "counter", "Job retry decisions.", "retries"),
        ("pool_rebuilds_total", "counter",
         "Worker pool rebuilds after crashes.", "pool_rebuilds"),
        ("worker_deaths_total", "counter",
         "Workers observed dead by the parent.", "worker_deaths"),
        ("workers", "gauge", "Distinct worker processes seen.", "workers"),
    ):
        header(lines, p + name, kind, help_text)
        sample(lines, p + name, rollup.get(key, 0))

    header(lines, p + "job_wall_seconds", "summary",
           "Wall time of finished (non-cached) jobs.")
    sample(lines, p + "job_wall_seconds_sum",
           float(rollup.get("job_wall_seconds_sum", 0.0)))
    sample(lines, p + "job_wall_seconds_count",
           rollup.get("job_wall_seconds_count", 0))

    header(lines, p + "batch_wall_seconds", "gauge",
           "First-to-last event span of the batch.")
    sample(lines, p + "batch_wall_seconds",
           float(rollup.get("batch_wall_seconds", 0.0)))

    return "\n".join(lines) + "\n"
