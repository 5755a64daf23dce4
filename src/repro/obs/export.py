"""Rollups and Prometheus-style text exposition for batch telemetry.

``rollup_events`` reduces a batch event stream to the counter dict
``repro obs report --batch`` prints and the daemon's ``/v1/metrics``
serves; ``prometheus_text`` renders the same numbers in
the text exposition format (``# TYPE`` headers, labelled samples) so a
scrape-and-diff workflow — or an actual Prometheus textfile collector
pointed at the results directory — can consume a batch without parsing
JSON. No client library involved: the format is five lines of spec.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.bus import BusEvent

#: job terminator kind → status label on repro_jobs_total
_JOB_STATUS = {
    "job.finish": "ok",
    "job.fail": "failed",
    "job.timeout": "timeout",
    "job.cached": "cached",
    "job.quarantined": "quarantined",
    "job.cancelled": "cancelled",
}


def rollup_events(events: Iterable[BusEvent | dict]) -> dict:
    """Reduce a batch event stream to JSON-serializable counters."""
    jobs: dict[str, int] = {}
    cache_ops: dict[str, int] = {}
    store_ops: dict[str, int] = {}
    retries = 0
    rebuilds = 0
    deaths = 0
    workers: set[int] = set()
    wall_sum = 0.0
    wall_count = 0
    t_min: float | None = None
    t_max: float | None = None

    for event in events:
        if isinstance(event, dict):
            event = BusEvent.from_dict(event)
        kind = event.kind
        t_min = event.ts if t_min is None else min(t_min, event.ts)
        t_max = event.ts if t_max is None else max(t_max, event.ts)
        if kind in _JOB_STATUS:
            status = _JOB_STATUS[kind]
            jobs[status] = jobs.get(status, 0) + 1
            wall = event.fields.get("wall_seconds")
            if kind == "job.finish" and isinstance(wall, (int, float)):
                wall_sum += wall
                wall_count += 1
        elif kind.startswith("cache."):
            # op label on repro_cache_ops_total: hit, miss, store, ...
            op = kind.partition(".")[2]
            cache_ops[op] = cache_ops.get(op, 0) + 1
        elif kind.startswith(("ckpt.", "trace.")):
            store_ops[kind] = store_ops.get(kind, 0) + 1
        elif kind == "job.retry":
            retries += 1
        elif kind == "pool.rebuild":
            rebuilds += 1
        elif kind == "worker.death":
            deaths += 1
        if kind in ("job.start", "worker.spawn"):
            workers.add(event.pid)

    return {
        "jobs": dict(sorted(jobs.items())),
        "cache_ops": dict(sorted(cache_ops.items())),
        "store_ops": dict(sorted(store_ops.items())),
        "retries": retries,
        "pool_rebuilds": rebuilds,
        "worker_deaths": deaths,
        "workers": len(workers),
        "job_wall_seconds_sum": wall_sum,
        "job_wall_seconds_count": wall_count,
        "batch_wall_seconds": (
            (t_max - t_min) if t_min is not None else 0.0
        ),
    }


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

    header(lines, p + "job_retries_total", "counter", "Job retry decisions.")
    sample(lines, p + "job_retries_total", rollup.get("retries", 0))

    header(lines, p + "pool_rebuilds_total", "counter",
           "Worker pool rebuilds after crashes.")
    sample(lines, p + "pool_rebuilds_total", rollup.get("pool_rebuilds", 0))

    header(lines, p + "worker_deaths_total", "counter",
           "Workers observed dead by the parent.")
    sample(lines, p + "worker_deaths_total", rollup.get("worker_deaths", 0))

    header(lines, p + "workers", "gauge", "Distinct worker processes seen.")
    sample(lines, p + "workers", rollup.get("workers", 0))

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
