"""``repro reproduce``: regenerate every table, figure and ablation.

The whole evaluation (:data:`repro.core.paper.STUDIES`) goes to the
runner as ONE batch — the union of the studies' jobs, a job two studies
share once, every one an independent simulation, so ``--jobs N``
divides the wall clock by roughly the core count — and comes back as
``<DIR>/<study>.txt`` (``.csv``/``.svg`` too for a figure),
``paper_claims.txt`` and the one-page ``index.html`` to eyeball against
the paper — nothing else, so the committed ``benchmarks/results/`` is
the golden output. Every study's claims are evaluated on its results
and printed; the exit status is non-zero when a simulation failed or a
claim reads ``DEV``. Under ``--replay`` the studies that measure what a
trace freezes run generated, and are named. Serial and uncached that
is ~27 s in full, ~20 s with ``--quick``.

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
        help="where the studies and index.html go "
             "(default: benchmarks/results)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="skip the MXS studies (Figure 11, the multichip ablation)",
    )
    add_flags(parser, POLICY + RUNNER)
    parser.add_argument(
        "--telemetry", action="store_true",
        help="stream batch telemetry over the event bus: writes "
             "batch_events.jsonl + batch_trace.json (Perfetto, one "
             "track per worker)",
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
    """Simulate the catalog's batch, render and check every study."""
    started = time.perf_counter()
    out = Path(args.out)
    policy = policy_from_args(args)
    studies = [
        study.stamped(**policy)
        for study in STUDIES.values()
        if not (args.quick and study.mxs)
    ]
    if policy.get("replay"):
        print("Not replayable, run generated: " + ", ".join(
            study.name for study in studies if not study.replayable
        ))
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
        from repro.obs import read_events, write_batch_trace

        trace_path = telemetry_dir / "batch_trace.json"
        events = read_events(bus.log_path)
        write_batch_trace(events, trace_path, label="reproduce")
        print(f"telemetry: {bus.log_path} + {trace_path} "
              f"({report.telemetry['events']} events, "
              f"{report.telemetry['workers']} worker(s))")
    print("Rendering studies...")
    out.mkdir(parents=True, exist_ok=True)
    deviations = _render(studies, dict(zip(batch, report.outcomes)), out)
    _build_index(studies, out)
    print(f"done in {time.perf_counter() - started:.1f}s "
          f"({report.summary()})")
    for study, claim in deviations:
        print(f"claim does not hold: {study}: {claim}")
    return 1 if report.failures or deviations else 0


def _render(studies, landed, out: Path):
    """Hand every study its results (``landed``: job key -> outcome),
    write it, evaluate its claims.

    Returns the (study, claim) pairs that do not hold.
    """
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
    write_paper_claims(figure_rows, out)
    return deviations


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

