"""``repro reproduce``: regenerate every table, figure and ablation.

The whole evaluation (:data:`repro.core.paper.STUDIES`) goes to the
runner as ONE batch — the union of the studies' jobs, a job two studies
share once, every one an independent simulation, so ``--jobs N``
divides the wall clock by roughly the core count — and comes back as
``<DIR>/<study>.txt`` (``.csv``/``.svg`` too for a figure),
``paper_claims.txt``, the one-page ``index.html`` to eyeball against
the paper, and one more entry of the ``bench_runner.json`` wall-clock
trajectory (``scripts/bench_gate.py`` reads it). Every study's claims
are evaluated on its results and printed; the exit status is non-zero
when a simulation failed or a claim reads ``DEV``. Serial and uncached
that is ~27 s in full, ~20 s with ``--quick``.

Re-running is resuming: finished jobs are published to the result
cache as they land, so the same command after a kill — or after an
edit to one study — simulates only what is not there yet
(``--cache-dir`` gives a batch a completion record of its own), and
``--checkpoint-every`` lets the job that was in flight restart mid-run
instead of from cycle 0 — see docs/CHECKPOINTING.md. ``--telemetry`` /
``--live`` turn on the batch event bus (docs/OBSERVABILITY.md, "Batch
telemetry").
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
from repro.core.paper import (
    STUDIES,
    batch_of,
    format_check_report,
    write_paper_claims,
)


def register(subparsers) -> None:
    """Declare ``reproduce``."""
    parser = subparsers.add_parser(
        "reproduce",
        help="regenerate every table, figure and ablation, check every "
             "claim, build an HTML gallery",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "out", nargs="?", default="benchmarks/results", metavar="DIR",
        help="where the studies, index.html and bench_runner.json go "
             "(default: benchmarks/results)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the MXS studies (Figure 11, the multichip ablation)",
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
    """Simulate the catalog's batch, render and check every study,
    record the wall clock."""
    started = time.perf_counter()
    out = Path(args.out)
    studies = [
        study.stamped(obs_sample=args.obs_sample, **policy_from_args(args))
        for study in STUDIES.values()
        if not (args.quick and study.mxs)
    ]
    batch = batch_of(studies)
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
          f"({len(studies)} studies reading "
          f"{sum(len(study.jobs) for study in studies)} results) "
          f"on {runner.n_jobs} worker(s)...")
    try:
        report = runner.run(list(batch.values()))
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
    print("Rendering studies...")
    out.mkdir(parents=True, exist_ok=True)
    timings, deviations = _render(
        studies, dict(zip(batch, report.outcomes)), out
    )
    _build_index(studies, out)
    total_wall = time.perf_counter() - started
    _append_baseline(
        out / "bench_runner.json", total_wall, timings, report, args
    )
    print(f"done in {total_wall:.1f}s ({report.summary()})")
    for study, claim in deviations:
        print(f"claim does not hold: {study}: {claim}")
    return 1 if report.failures or deviations else 0


def _render(studies, landed, out: Path):
    """Hand every study its results (``landed``: job key -> outcome),
    write it, evaluate its claims.

    Returns per-study simulation seconds (the sum over the jobs it
    reads; 0.0 where all were cached) and the (study, claim) pairs
    that do not hold.
    """
    timings: dict[str, float] = {}
    deviations: list[tuple[str, str]] = []
    figure_rows = {}
    for study in studies:
        outcomes = [landed[job.key()] for job in study.jobs]
        failed = [
            f"{outcome.job.label()}: {outcome.error}"
            for outcome in outcomes if outcome.failed
        ]
        if failed:
            # A study with a failed job cannot be rendered; report it
            # and keep going so the rest of the gallery still
            # regenerates.
            print(f"  [skip  ] {study.name}: " + "; ".join(failed))
            continue
        results = study.results(lambda job: landed[job.key()].result)
        study.write(results, out)
        claims = study.report(results)
        if study.checks:
            # (a figure's text carries the paper's claims already)
            print("claims:")
            print(format_check_report(claims[-len(study.checks):]))
        deviations += [
            (study.name, label) for label, ok, _detail in claims if not ok
        ]
        if study.claims is not None:
            figure_rows[study.claims] = study.drawn(results)
        walls = sum(outcome.wall_seconds for outcome in outcomes)
        print(f"  [{walls:5.1f}s] {study.name}")
        timings[study.name] = round(walls, 3)
    write_paper_claims(figure_rows, out)
    return timings, deviations


def _build_index(studies, out: Path) -> None:
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
    for study in studies:
        parts.append(f"<h2>{html.escape(study.name)}</h2>")
        svg = out / f"{study.name}.svg"
        if svg.exists():
            parts.append(svg.read_text())
        txt = out / f"{study.name}.txt"
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
