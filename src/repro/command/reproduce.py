"""``repro reproduce``: regenerate every figure and the results gallery.

The whole evaluation (:data:`repro.core.paper.FIGURES`) goes to the
runner as ONE batch — every (figure, architecture) simulation is an
independent job, so ``--jobs N`` divides the wall clock by roughly the
core count — and comes back as ``<DIR>/<figure>.{txt,csv,svg}``, the
one-page ``index.html`` to eyeball against the paper, and one more
entry of the ``bench_runner.json`` wall-clock trajectory
(``scripts/bench_gate.py`` reads it). Serial and uncached that is ~20 s
with ``--quick``, a few minutes in full.

Re-running is resuming: finished jobs are published to the result
cache as they land, so the same command after a kill simulates only
what had not finished (``--cache-dir`` gives a batch a completion
record of its own), and ``--checkpoint-every`` lets the job that was
in flight restart mid-run instead of from cycle 0 — see
docs/CHECKPOINTING.md. ``--telemetry`` / ``--live`` turn on the batch
event bus (docs/OBSERVABILITY.md, "Batch telemetry").
"""

from __future__ import annotations

import argparse
import html
import json
import time
from pathlib import Path

from repro.command.jobargs import (
    POLICY,
    RUNNER,
    add_flags,
    policy_from_args,
    runner_from_args,
)
from repro.core.configs import ARCHITECTURES
from repro.core.paper import FIGURES, figure_jobs, write_figure


def register(subparsers) -> None:
    """Declare ``reproduce``."""
    parser = subparsers.add_parser(
        "reproduce",
        help="regenerate every table and figure plus an HTML gallery",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "out", nargs="?", default="benchmarks/results", metavar="DIR",
        help="where the figures, index.html and bench_runner.json go "
             "(default: benchmarks/results)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the MXS runs (Figure 11)",
    )
    add_flags(parser, POLICY + RUNNER)
    parser.add_argument(
        "--obs-sample", type=int, default=0, metavar="N",
        help="attach the utilization sampler to every job at this "
             "interval (0 = off); rollups land in bench_runner.json",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="stream batch telemetry over the event bus: writes "
             "batch_events.jsonl + batch_trace.json (Perfetto, one "
             "track per worker) and records the rollup in "
             "bench_runner.json",
    )
    parser.add_argument(
        "--telemetry-dir", metavar="PATH", default=None,
        help="where the telemetry artifacts go (default: DIR; implies "
             "--telemetry)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="live progress view fed by the event bus (implies "
             "--telemetry): per-worker state, done/total, cache hit "
             "rate, ETA",
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    """Simulate the figure batch, render it, record the wall clock."""
    started = time.perf_counter()
    out = Path(args.out)
    figures = [
        figure for figure in FIGURES.values()
        if not (args.quick and figure.cpu_model == "mxs")
    ]
    batch = figure_jobs(
        figures, obs_sample=args.obs_sample, **policy_from_args(args)
    )
    bus = live = None
    telemetry_dir = Path(args.telemetry_dir or out)
    if args.telemetry or args.telemetry_dir or args.live:
        from repro.obs import EventBus, LiveView

        if args.live:
            live = LiveView(total=len(batch))
        bus = EventBus(
            log_path=telemetry_dir / "batch_events.jsonl",
            on_event=live.on_event if live is not None else None,
        ).start()
    runner = runner_from_args(
        args,
        progress=(
            None if live is not None
            else lambda line: print(f"  {line}", flush=True)
        ),
        bus=bus,
    )
    print(f"Running {len(batch)} simulations "
          f"({len(figures)} figures x {len(ARCHITECTURES)} architectures) "
          f"on {runner.n_jobs} worker(s)...")
    try:
        report = runner.run(batch)
    finally:
        if bus is not None:
            bus.stop()
            if live is not None:
                live.finish()
    if bus is not None:
        from repro.obs import rollup_events, write_batch_trace

        trace_path = telemetry_dir / "batch_trace.json"
        write_batch_trace(bus.events, trace_path, label="reproduce")
        report.telemetry = {
            **bus.rollup(),
            "rollup": rollup_events(bus.events),
            "trace_path": str(trace_path),
        }
        print(f"telemetry: {bus.log_path} + {trace_path} "
              f"({report.telemetry['events']} events, "
              f"{report.telemetry['workers']} worker(s))")
    print("Rendering figures...")
    timings = _render(figures, report.outcomes, out)
    _build_index(figures, out)
    total_wall = time.perf_counter() - started
    _append_baseline(
        out / "bench_runner.json", total_wall, timings, report, args
    )
    print(f"done in {total_wall:.1f}s ({report.summary()})")
    return 1 if report.failures else 0


def _render(figures, outcomes, out: Path) -> dict[str, float]:
    """Group per-arch outcomes back into figures and write each one.

    Returns per-figure simulation seconds (sum over the three
    architecture jobs; 0.0 for fully cached figures).
    """
    timings: dict[str, float] = {}
    cursor = iter(outcomes)
    for figure in figures:
        results, walls, failed = {}, 0.0, []
        for arch in ARCHITECTURES:
            outcome = next(cursor)
            if outcome.result is None:
                failed.append(f"{arch}: {outcome.error}")
                continue
            results[arch] = outcome.result
            walls += outcome.wall_seconds
        if failed:
            # A figure with a failed architecture cannot be rendered;
            # report it and keep going so the rest of the gallery
            # still regenerates.
            print(f"  [skip  ] {figure.name}: " + "; ".join(failed))
            continue
        write_figure(figure, results, out)
        print(f"  [{walls:5.1f}s] {figure.name}")
        timings[figure.name] = round(walls, 3)
    return timings


def _build_index(figures, out: Path) -> None:
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>repro results</title>",
        "<style>body{font-family:sans-serif;max-width:900px;margin:2em "
        "auto;} pre{background:#f6f6f6;padding:1em;overflow-x:auto;} "
        "h2{border-bottom:1px solid #ccc;}</style></head><body>",
        "<h1>Evaluation of Design Alternatives for a Multiprocessor "
        "Microprocessor — measured reproduction</h1>",
        "<p>Generated by <code>python -m repro reproduce</code>. "
        "Paper-vs-measured commentary lives in EXPERIMENTS.md.</p>",
    ]
    for figure in figures:
        parts.append(f"<h2>{html.escape(figure.name)}</h2>")
        svg = out / f"{figure.name}.svg"
        if svg.exists():
            parts.append(svg.read_text())
        txt = out / f"{figure.name}.txt"
        if txt.exists():
            parts.append(f"<pre>{html.escape(txt.read_text())}</pre>")
    parts.append("</body></html>")
    (out / "index.html").write_text("\n".join(parts))
    print(f"gallery: {out / 'index.html'}")


def _append_baseline(
    path: Path,
    total_wall: float,
    timings: dict[str, float],
    report,
    args: argparse.Namespace,
) -> None:
    """Append this run's wall-clock record to ``bench_runner.json``.

    The file accumulates one entry per invocation so future changes to
    the runner or the simulator have a measured trajectory to compare
    against.
    """
    entry = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": args.quick,
        # Which execution backend produced these timings. Replayed and
        # generated (interpreter) runs are different experiments at
        # very different speeds; trajectory comparisons (bench_gate)
        # must never mix the two.
        "backend": "replay" if args.replay else "interpreter",
        "jobs": report.workers,
        "cache": not args.no_cache,
        "total_wall_seconds": round(total_wall, 3),
        "sim_seconds": round(report.busy_seconds, 3),
        "utilization": round(report.utilization(), 3),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "failures": len(report.failures),
        "worker_crashes": report.worker_crashes,
        "figures": timings,
        # Per-job host wall time and simulation speed (cycles per host
        # second; null for cache hits) — the per-run record that makes
        # hot-path regressions attributable to a specific simulation.
        "per_job": report.to_dict()["per_job"],
    }
    if report.cache_stats is not None:
        # ResultCache counter rollup (hits/misses/stores/evictions and
        # bytes moved) for the trajectory record.
        entry["result_cache"] = report.cache_stats
    if report.telemetry is not None:
        entry["telemetry"] = report.telemetry
    try:
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"perf baseline appended: {path}")
