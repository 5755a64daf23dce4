"""``repro obs report`` / ``validate`` / ``tail`` / ``export``.

``report`` runs one observed simulation in this process and prints its
per-phase utilization, or with ``--batch`` summarizes a batch's JSONL
event log instead; ``validate`` checks a trace or event log against
its schema; ``tail`` and ``export`` render an event log as readable
lines or as Prometheus / JSON rollups. See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.command.jobargs import MACHINE, add_flags, job_from_args
from repro.errors import ReproError


def register(subparsers) -> None:
    """Declare ``obs`` and its four sub-verbs."""
    parser = subparsers.add_parser(
        "obs", help="observability: phase reports, batch telemetry, "
                    "trace validation",
    )
    parser.set_defaults(run=run)
    sub = parser.add_subparsers(dest="obs_command", required=True)
    report = sub.add_parser(
        "report",
        help="run one observed simulation and print per-phase "
             "utilization, or summarize a batch event log (--batch)",
    )
    add_flags(report, MACHINE, required=False)
    report.add_argument(
        "--sample-interval", type=int, default=1000, metavar="N",
        help="sampling interval in cycles (default 1000)",
    )
    report.add_argument(
        "--phases", type=int, default=8,
        help="number of equal-time phases in the summary (default 8)",
    )
    report.add_argument(
        "--events", metavar="PATH", default=None,
        help="also record the event timeline to PATH",
    )
    report.add_argument(
        "--batch", metavar="EVENTS", default=None,
        help="summarize this batch JSONL event log instead of running "
             "an observed simulation",
    )
    report.set_defaults(verb=_report)
    validate = sub.add_parser(
        "validate",
        help="check a trace (single-run or batch Perfetto JSON) or a "
             "batch JSONL event log against its schema",
    )
    validate.add_argument(
        "path", help="trace JSON or JSONL event log to validate"
    )
    validate.set_defaults(verb=_validate)
    tail = sub.add_parser(
        "tail", help="print a batch JSONL event log as readable lines"
    )
    tail.add_argument("path", help="batch JSONL event log")
    tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep watching for new events until the batch ends",
    )
    tail.add_argument(
        "--lines", "-N", type=int, default=0, metavar="N",
        help="only the last N events (default: all)",
    )
    tail.set_defaults(verb=_tail)
    export = sub.add_parser("export", help="export batch telemetry rollups")
    export.add_argument("path", help="batch JSONL event log")
    export.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="prom = Prometheus text exposition (default), "
             "json = rollup object",
    )
    export.add_argument(
        "--prefix", default="repro", metavar="NAME",
        help="metric name prefix for --format prom (default: repro)",
    )
    export.set_defaults(verb=_export)


def run(args: argparse.Namespace) -> int:
    """Dispatch to the sub-verb."""
    return args.verb(args)


def _events(path: str) -> list:
    """The events of a JSONL log; an unreadable one is the user's
    error, not a traceback."""
    from repro.obs import read_events

    try:
        return read_events(path)
    except OSError as error:
        raise ReproError(str(error)) from None


def _report(args: argparse.Namespace) -> int:
    from repro.obs import ObsConfig, format_phase_table, format_rollup

    if args.batch is not None:
        return _batch_report(args.batch)
    if args.workload is None or args.arch is None:
        raise ReproError(
            "obs report needs --workload and --arch "
            "(or --batch EVENTS for a batch summary)"
        )
    job = job_from_args(args)
    # The live system, not the result record: the phase table needs
    # the sampler's full series, which a result carries only rolled up.
    system = job.build(obs=ObsConfig(
        sample_interval=args.sample_interval, events_path=args.events
    ))
    stats = system.run()
    obs = system.obs
    if args.events is not None:
        obs.write_events(
            args.events, label=f"{job.workload}/{job.arch}/{job.cpu_model}"
        )
    print(f"{job.workload} on {job.arch} ({job.cpu_model}, {job.scale}): "
          f"{stats.cycles} cycles, {stats.instructions} instructions")
    print()
    print(format_phase_table(obs.sampler, phases=args.phases))
    print()
    print(format_rollup(obs.rollup()))
    if args.events is not None:
        print(f"events written to {args.events}")
    return 0


def _batch_report(path: str) -> int:
    from repro.obs import rollup_events

    events = _events(path)
    if not events:
        print(f"{path}: no events")
        return 1
    rollup = rollup_events(events)
    print(f"batch report: {path}")
    print(
        f"  {rollup['events']} event(s) across {rollup['workers']} "
        f"worker(s), {rollup['batch_wall_seconds']:.2f}s wall"
    )
    jobs = rollup["jobs"]
    if jobs:
        total = sum(jobs.values())
        mix = ", ".join(
            f"{count} {status}" for status, count in jobs.items()
        )
        print(f"  jobs: {total} finished ({mix})")
    if rollup["job_wall_seconds_count"]:
        mean = (
            rollup["job_wall_seconds_sum"]
            / rollup["job_wall_seconds_count"]
        )
        print(
            f"  job wall: {rollup['job_wall_seconds_sum']:.2f}s total, "
            f"{mean:.2f}s mean over "
            f"{rollup['job_wall_seconds_count']} run(s)"
        )
    cache = rollup["cache_ops"]
    if cache:
        ops = ", ".join(f"{count} {op}" for op, count in cache.items())
        hits = cache.get("hit", 0)
        probes = hits + cache.get("miss", 0)
        rate = f" ({100.0 * hits / probes:.0f}% hit)" if probes else ""
        print(f"  result cache: {ops}{rate}")
    stores = rollup["store_ops"]
    if stores:
        ops = ", ".join(
            f"{count} {label}" for label, count in stores.items()
        )
        print(f"  stores: {ops}")
    if rollup["retries"] or rollup["pool_rebuilds"]:
        print(
            f"  faults: {rollup['retries']} retry(ies), "
            f"{rollup['worker_deaths']} worker death(s), "
            f"{rollup['pool_rebuilds']} pool rebuild(s)"
        )
    return 0


def _is_event_log(path: str) -> bool:
    """``True`` when ``path`` looks like a JSONL event log rather than
    a Chrome trace (one bus event object per line vs. a single object
    with ``traceEvents``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.loads(handle.readline())
    except (OSError, ValueError):
        return False
    return isinstance(record, dict) and "kind" in record


def _validate(args: argparse.Namespace) -> int:
    from repro.obs import validate_events, validate_trace

    if _is_event_log(args.path):
        errors, label = validate_events(args.path), "event log"
    else:
        errors, label = validate_trace(args.path), "trace"
    for error in errors:
        print(f"invalid: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"{args.path}: valid {label}")
    return 0


def _event_line(event, t0: float) -> str:
    fields = " ".join(
        f"{key}={value}" for key, value in sorted(event.fields.items())
    )
    line = (
        f"#{event.seq or 0:<5} +{event.ts - t0:8.3f}s "
        f"pid {event.pid:<7} {event.kind:<16}"
    )
    return f"{line} {fields}".rstrip()


def _tail(args: argparse.Namespace) -> int:
    from repro.obs.bus import parse_events

    try:
        log = open(args.path, "rb")
    except OSError as error:
        raise ReproError(str(error)) from None
    with log:
        data = log.read()
        # a follow holds an unfinished last line until its newline lands
        head, _, partial = data.rpartition(b"\n")
        events = parse_events(head if args.follow else data)
        t0 = events[0].ts if events else 0.0
        shown = events[-args.lines:] if args.lines > 0 else events
        for event in shown:
            print(_event_line(event, t0))
        ended = any(event.kind == "batch.end" for event in events)
        while args.follow and not ended:
            time.sleep(0.2)
            head, _, partial = (partial + log.read()).rpartition(b"\n")
            events = parse_events(head)
            if events and t0 == 0.0:
                t0 = events[0].ts
            for event in events:
                print(_event_line(event, t0), flush=True)
                ended = ended or event.kind == "batch.end"
    return 0


def _export(args: argparse.Namespace) -> int:
    from repro.obs import prometheus_text, rollup_events

    rollup = rollup_events(_events(args.path))
    if args.format == "json":
        print(json.dumps(rollup, indent=2, sort_keys=True))
    else:
        sys.stdout.write(prometheus_text(rollup, prefix=args.prefix))
    return 0
