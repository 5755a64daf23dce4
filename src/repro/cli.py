"""Command-line interface.

Subcommands::

    python -m repro list
        Show the available workloads, topology presets, scales and
        models.

    python -m repro run --workload eqntott --arch shared-l1
        Run one simulation and print its statistics (breakdown, miss
        rates, synchronization traffic). ``--topology`` is an alias
        for ``--arch``: any registered topology preset is accepted
        (``cluster-l1``, ``shared-l3``, ... — see ``repro list``), and
        ``--cpus`` defaults to the preset's natural core count.

    python -m repro compare --workload ear --scale bench [--svg out.svg]
        Run a topology matrix for one workload and print the
        paper-style breakdown, miss-rate table, resource utilization
        and a bar chart; optionally render the figure as SVG.
        ``--archs`` selects the topologies (default: the paper's
        three).

    python -m repro sweep --workload mp3d --field l2_assoc 1 2 4
        Sweep one MemConfig field on every paper architecture.

    python -m repro scaling --workload fft --archs cluster-l1 \
            --counts 4 8 16 [--svg out.svg]
        Run topologies across several core counts and print the
        cycles/speedup table; optionally render the paper-style
        cycles-versus-cores figure as SVG.

``run``, ``compare`` and ``sweep`` accept ``--jobs N`` to execute the
underlying simulations in N worker processes, and cache results
on disk keyed by the full job spec (``--no-cache`` bypasses,
``--cache-dir`` relocates; see repro.core.runner). ``run --profile``
executes the simulation in-process under cProfile and prints the
hottest functions, after a ``spin waits`` line saying how many spin
iterations were accounted for in bulk instead of issued (see
docs/PERFORMANCE.md); ``--profile-out PATH`` also writes the full
report to a file.

``run`` can attach observability (see docs/OBSERVABILITY.md):
``--sample-interval N`` samples per-component utilization every N
cycles; ``--events out.json`` additionally records the event timeline
as Chrome/Perfetto trace JSON.

    python -m repro obs report --workload eqntott --arch shared-l1
        Run one observed simulation and print the per-phase
        utilization summary.

    python -m repro obs report --batch results/batch_events.jsonl
        Summarize a batch telemetry log (jobs by status, cache and
        store traffic, retries, workers) instead of running anything.

    python -m repro obs validate trace.json
        Check a recorded event file against the trace-format rules.
        Accepts both Chrome/Perfetto traces (single-run timelines and
        batch span traces) and batch JSONL event logs — the format is
        sniffed from the file.

    python -m repro obs tail results/batch_events.jsonl [--follow]
        Print a batch's JSONL event log as human-readable lines;
        ``--follow`` keeps watching until the batch ends.

    python -m repro obs export results/batch_events.jsonl --format prom
        Render batch telemetry in Prometheus text exposition format.

    python -m repro ckpt save --workload eqntott --arch shared-l1 \
            --at 100000 --dir ckpts/
        Run to a cycle, snapshot, and print the checkpoint digest.

    python -m repro ckpt resume <digest> --dir ckpts/
        Restore a checkpoint and run it to completion.

    python -m repro ckpt inspect <digest> --dir ckpts/
        Print a checkpoint's metadata (cycle, arch, versions).

``run`` supports fault-tolerant long runs (see docs/CHECKPOINTING.md):
``--checkpoint-every N --checkpoint-dir PATH`` snapshots periodically
and auto-resumes from the latest checkpoint after a kill;
``--from-checkpoint DIGEST`` restores an explicit snapshot; and
``--timeout SECONDS`` bounds the wall-clock time.

    python -m repro trace --workload eqntott --limit 60
        Dump a workload's instruction stream (no simulation).

    python -m repro serve --port 8765
        Run the simulation service daemon (see docs/SERVICE.md):
        an async priority job queue and a persistent warm worker
        pool behind a JSON HTTP API. SIGINT/SIGTERM shut it down
        gracefully, persisting unfinished jobs for ``--resume``.

    python -m repro client submit --workload fft --arch shared-l2 --wait
        Submit a job to a running daemon (plus ``status``, ``result``,
        ``cancel``, ``watch`` and ``queue`` subcommands). Identical
        specs dedup server-side to a single simulation.

    python -m repro cache stats
        Inspect the shared result cache: on-disk entries and bytes,
        or a running daemon's live counters with ``--server``.

    python -m repro selfcheck
        Run the fast invariant battery (seconds; meant for CI).

All output is plain text, suitable for piping into reports.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.configs import ARCHITECTURES, CPU_MODELS
from repro.core.experiment import run_architecture_comparison
from repro.core.runner import Job, ResultCache, Runner, default_cache_dir
from repro.core.sweeps import sweep_cpu_count, sweep_mem_field, speedup_table
from repro.mem.topology import get_builder, get_preset, topology_names
from repro.core.report import (
    format_bar_chart,
    format_breakdown_table,
    format_ipc_table,
    format_miss_rate_table,
    format_resource_table,
    normalized_times,
)
from repro.errors import ReproError
from repro.workloads import WORKLOADS

_SCALES = ("test", "bench", "paper")


def _add_common(
    parser: argparse.ArgumentParser, workload_required: bool = True
) -> None:
    parser.add_argument(
        "--workload", "-w", required=workload_required,
        choices=sorted(WORKLOADS),
        help="which of the paper's workloads to run",
    )
    parser.add_argument(
        "--scale", "-s", default="test", choices=_SCALES,
        help="size preset (test=1/32, bench=1/8, paper=full)",
    )
    parser.add_argument(
        "--cpu", "-c", default="mipsy", choices=CPU_MODELS,
        help="CPU model (mipsy=simple in-order, mxs=dynamic superscalar)",
    )
    parser.add_argument(
        "--cpus", "-n", type=int, default=None,
        help="number of processors (default: the topology preset's "
             "natural core count, 4 for the paper's three)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=50_000_000,
        help="safety cap on simulated cycles",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes (default: all cores; 1 = in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help=f"result cache location (default: {default_cache_dir()})",
    )


def _add_replay(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--replay", action="store_true",
        help="trace-replay lane: record the workload's reference "
             "stream once (automatic, cached in the trace store) and "
             "re-simulate it on the target topology instead of "
             "re-executing the program — several times faster for "
             "geometry/policy sweeps; see docs/REPLAY.md for when the "
             "approximation is valid",
    )
    parser.add_argument(
        "--trace-dir", metavar="PATH", default=None,
        help="trace artifact store for --replay "
             "(default: <cache>/traces)",
    )


def _parse_override(text: str) -> tuple[str, int]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override must look like field=value, got {text!r}"
        )
    field, _, value = text.partition("=")
    try:
        return field, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"override value must be an integer, got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Evaluation of Design Alternatives for a "
            "Multiprocessor Microprocessor' (ISCA 1996)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="show workloads, topology presets and scales"
    )

    run_p = sub.add_parser(
        "run", help="run one (topology, workload) simulation"
    )
    _add_common(run_p)
    run_p.add_argument(
        "--arch", "-a", "--topology", required=True,
        choices=topology_names(),
        help="memory-system topology preset (--topology is an alias)",
    )
    run_p.add_argument(
        "--set", dest="overrides", type=_parse_override, action="append",
        default=[], metavar="FIELD=VALUE",
        help="override a MemConfig field (repeatable)",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="run in-process under cProfile and print the hottest "
             "functions (ignores --jobs and the result cache)",
    )
    run_p.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="also write the full cProfile report to PATH "
             "(implies --profile)",
    )
    run_p.add_argument(
        "--sample-interval", type=int, default=None, metavar="N",
        help="attach observability, sampling component utilization "
             "every N cycles (see docs/OBSERVABILITY.md)",
    )
    run_p.add_argument(
        "--events", metavar="PATH", default=None,
        help="record the event timeline to PATH as Chrome/Perfetto "
             "trace JSON (runs in-process; implies observability)",
    )
    run_p.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="CYCLES",
        help="snapshot the run every CYCLES simulated cycles "
             "(requires --checkpoint-dir; see docs/CHECKPOINTING.md)",
    )
    run_p.add_argument(
        "--checkpoint-dir", metavar="PATH", default=None,
        help="checkpoint store location; with --checkpoint-every the "
             "run auto-resumes from its latest checkpoint after a kill",
    )
    run_p.add_argument(
        "--from-checkpoint", metavar="DIGEST", default=None,
        help="restore this checkpoint digest before running "
             "(requires --checkpoint-dir; runs in-process)",
    )
    run_p.add_argument(
        "--timeout", type=float, default=0.0, metavar="SECONDS",
        help="abort the simulation after this much wall-clock time",
    )
    _add_replay(run_p)

    cmp_p = sub.add_parser(
        "compare", help="run a topology matrix and compare"
    )
    _add_common(cmp_p)
    cmp_p.add_argument(
        "--archs", "--topologies", nargs="+", choices=topology_names(),
        default=list(ARCHITECTURES), metavar="PRESET",
        help="topology presets to compare (default: the paper's three; "
             f"choose from {', '.join(topology_names())})",
    )
    cmp_p.add_argument(
        "--set", dest="overrides", type=_parse_override, action="append",
        default=[], metavar="FIELD=VALUE",
        help="override a MemConfig field (repeatable)",
    )
    cmp_p.add_argument(
        "--svg", metavar="PATH",
        help="also render the comparison as an SVG figure",
    )
    cmp_p.add_argument(
        "--claims", action="store_true",
        help="evaluate the paper's Section-4 claims for this workload",
    )

    sweep_p = sub.add_parser(
        "sweep", help="sweep one MemConfig field across all architectures"
    )
    _add_common(sweep_p)
    sweep_p.add_argument(
        "--field", required=True, help="MemConfig field to sweep"
    )
    sweep_p.add_argument(
        "values", nargs="+", type=int, help="values to sweep over"
    )
    _add_replay(sweep_p)

    scaling_p = sub.add_parser(
        "scaling",
        help="run topologies across core counts (cycles vs cores)",
    )
    _add_common(scaling_p)
    scaling_p.add_argument(
        "--archs", "--topologies", nargs="+", choices=topology_names(),
        default=list(ARCHITECTURES), metavar="PRESET",
        help="topology presets to scale (default: the paper's three; "
             f"choose from {', '.join(topology_names())})",
    )
    scaling_p.add_argument(
        "--counts", nargs="+", type=int, default=[2, 4, 8, 16],
        metavar="N", help="core counts to run (default: 2 4 8 16)",
    )
    scaling_p.add_argument(
        "--svg", metavar="PATH",
        help="also render the cycles-versus-cores figure as an SVG",
    )

    sub.add_parser(
        "selfcheck",
        help="run the fast invariant battery (seconds; for CI)",
    )

    ckpt_p = sub.add_parser(
        "ckpt", help="checkpoints: save, resume, inspect"
    )
    ckpt_sub = ckpt_p.add_subparsers(dest="ckpt_command", required=True)
    ckpt_save_p = ckpt_sub.add_parser(
        "save", help="run a simulation to a cycle and snapshot it"
    )
    ckpt_save_p.add_argument(
        "--workload", "-w", required=True, choices=sorted(WORKLOADS)
    )
    ckpt_save_p.add_argument(
        "--arch", "-a", "--topology", required=True,
        choices=topology_names(),
    )
    ckpt_save_p.add_argument(
        "--cpu", "-c", default="mipsy", choices=CPU_MODELS
    )
    ckpt_save_p.add_argument("--cpus", "-n", type=int, default=None)
    ckpt_save_p.add_argument(
        "--scale", "-s", default="test", choices=_SCALES
    )
    ckpt_save_p.add_argument(
        "--set", dest="overrides", type=_parse_override, action="append",
        default=[], metavar="FIELD=VALUE",
        help="override a MemConfig field (repeatable)",
    )
    ckpt_save_p.add_argument(
        "--at", type=int, required=True, metavar="CYCLE",
        help="cycle to pause and snapshot at",
    )
    ckpt_save_p.add_argument(
        "--dir", required=True, metavar="PATH",
        help="checkpoint store directory",
    )
    ckpt_resume_p = ckpt_sub.add_parser(
        "resume", help="restore a checkpoint and run it to completion"
    )
    ckpt_resume_p.add_argument("digest", help="checkpoint digest to resume")
    ckpt_resume_p.add_argument(
        "--dir", required=True, metavar="PATH",
        help="checkpoint store directory",
    )
    ckpt_resume_p.add_argument(
        "--max-cycles", type=int, default=50_000_000,
        help="safety cap on simulated cycles",
    )
    ckpt_inspect_p = ckpt_sub.add_parser(
        "inspect", help="print a checkpoint's metadata"
    )
    ckpt_inspect_p.add_argument("digest", help="checkpoint digest")
    ckpt_inspect_p.add_argument(
        "--dir", required=True, metavar="PATH",
        help="checkpoint store directory",
    )

    obs_p = sub.add_parser(
        "obs", help="observability: phase reports, batch telemetry, "
                    "trace validation",
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    report_p = obs_sub.add_parser(
        "report",
        help="run one observed simulation and print per-phase "
             "utilization, or summarize a batch event log (--batch)",
    )
    _add_common(report_p, workload_required=False)
    report_p.add_argument(
        "--arch", "-a", "--topology", default=None,
        choices=topology_names(),
        help="memory-system topology preset (--topology is an alias)",
    )
    report_p.add_argument(
        "--set", dest="overrides", type=_parse_override, action="append",
        default=[], metavar="FIELD=VALUE",
        help="override a MemConfig field (repeatable)",
    )
    report_p.add_argument(
        "--sample-interval", type=int, default=1000, metavar="N",
        help="sampling interval in cycles (default 1000)",
    )
    report_p.add_argument(
        "--phases", type=int, default=8,
        help="number of equal-time phases in the summary (default 8)",
    )
    report_p.add_argument(
        "--events", metavar="PATH", default=None,
        help="also record the event timeline to PATH",
    )
    report_p.add_argument(
        "--batch", metavar="EVENTS", default=None,
        help="summarize this batch JSONL event log instead of running "
             "an observed simulation",
    )
    validate_p = obs_sub.add_parser(
        "validate",
        help="check a trace (single-run or batch Perfetto JSON) or a "
             "batch JSONL event log against its schema",
    )
    validate_p.add_argument(
        "path", help="trace JSON or JSONL event log to validate"
    )
    tail_p = obs_sub.add_parser(
        "tail", help="print a batch JSONL event log as readable lines"
    )
    tail_p.add_argument("path", help="batch JSONL event log")
    tail_p.add_argument(
        "--follow", "-f", action="store_true",
        help="keep watching for new events until the batch ends",
    )
    tail_p.add_argument(
        "--lines", "-N", type=int, default=0, metavar="N",
        help="only the last N events (default: all)",
    )
    export_p = obs_sub.add_parser(
        "export", help="export batch telemetry rollups"
    )
    export_p.add_argument("path", help="batch JSONL event log")
    export_p.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="prom = Prometheus text exposition (default), "
             "json = rollup object",
    )
    export_p.add_argument(
        "--prefix", default="repro", metavar="NAME",
        help="metric name prefix for --format prom (default: repro)",
    )

    trace_p = sub.add_parser(
        "trace", help="dump a workload's instruction stream (no simulation)"
    )
    trace_p.add_argument(
        "--workload", "-w", required=True, choices=sorted(WORKLOADS)
    )
    trace_p.add_argument("--scale", "-s", default="test", choices=_SCALES)
    trace_p.add_argument(
        "--cpus", "-n", type=int, default=4,
        help="number of processors the workload is built for",
    )
    trace_p.add_argument("--cpu", type=int, default=0, help="which CPU")
    trace_p.add_argument(
        "--limit", type=int, default=60, help="instructions to print"
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation service daemon (HTTP job queue; "
             "see docs/SERVICE.md)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (default: 8765; 0 = ephemeral)",
    )
    serve_p.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="warm pool worker processes (default: all cores)",
    )
    serve_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache (dedup of in-flight identical "
             "specs still applies)",
    )
    serve_p.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help=f"result cache location (default: {default_cache_dir()})",
    )
    serve_p.add_argument(
        "--state-dir", metavar="PATH", default=None,
        help="where the queue manifest and telemetry log live "
             "(default: <cache-dir>/serve)",
    )
    serve_p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="crash retries per job before quarantine (default: 2)",
    )
    serve_p.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="CYCLES",
        help="daemon policy: checkpoint accepted jobs every CYCLES "
             "(requires --checkpoint-dir; crash retries resume)",
    )
    serve_p.add_argument(
        "--checkpoint-dir", metavar="PATH", default=None,
        help="checkpoint store for --checkpoint-every",
    )
    serve_p.add_argument(
        "--trace-dir", metavar="PATH", default=None,
        help="trace artifact store stamped onto replay jobs "
             "(default: <cache>/traces)",
    )
    serve_p.add_argument(
        "--resume", action="store_true",
        help="re-enqueue jobs persisted by the last shutdown's queue "
             "manifest",
    )
    serve_p.add_argument(
        "--grace", type=float, default=30.0, metavar="SECONDS",
        help="shutdown drain budget before in-flight work is killed "
             "and persisted (default: 30)",
    )

    client_p = sub.add_parser(
        "client", help="talk to a running repro serve daemon"
    )
    client_sub = client_p.add_subparsers(
        dest="client_command", required=True
    )

    def _add_server(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--server", default="http://127.0.0.1:8765", metavar="URL",
            help="daemon base URL (default: http://127.0.0.1:8765)",
        )

    submit_p = client_sub.add_parser(
        "submit", help="submit one job to the daemon"
    )
    submit_p.add_argument(
        "--workload", "-w", required=True, choices=sorted(WORKLOADS),
        help="which of the paper's workloads to run",
    )
    submit_p.add_argument(
        "--arch", "-a", "--topology", required=True,
        choices=topology_names(),
        help="memory-system topology preset (--topology is an alias)",
    )
    submit_p.add_argument(
        "--cpu", "-c", default="mipsy", choices=CPU_MODELS,
        help="CPU model",
    )
    submit_p.add_argument(
        "--cpus", "-n", type=int, default=None,
        help="number of processors (default: the preset's natural "
             "core count)",
    )
    submit_p.add_argument(
        "--scale", "-s", default="test", choices=_SCALES,
        help="size preset",
    )
    submit_p.add_argument(
        "--set", dest="overrides", type=_parse_override, action="append",
        default=[], metavar="FIELD=VALUE",
        help="override a MemConfig field (repeatable)",
    )
    submit_p.add_argument(
        "--max-cycles", type=int, default=None,
        help="safety cap on simulated cycles",
    )
    submit_p.add_argument(
        "--replay", action="store_true",
        help="run on the trace-replay backend (see docs/REPLAY.md)",
    )
    submit_p.add_argument(
        "--timeout", type=float, default=0.0, metavar="SECONDS",
        help="per-job wall-clock budget enforced by the worker",
    )
    submit_p.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="queue priority (lower runs sooner; default: 0)",
    )
    submit_p.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and print its result",
    )
    _add_server(submit_p)

    for name, help_text in (
        ("status", "print a job's lifecycle status"),
        ("result", "fetch and print a finished job's statistics"),
        ("cancel", "cancel a queued or running job"),
        ("watch", "follow a job's live event stream"),
    ):
        verb_p = client_sub.add_parser(name, help=help_text)
        verb_p.add_argument("job_id", help="content-addressed job id")
        _add_server(verb_p)
    queue_p = client_sub.add_parser(
        "queue", help="print the daemon's queue summary"
    )
    _add_server(queue_p)

    cache_p = sub.add_parser(
        "cache", help="result cache: stats"
    )
    cache_sub = cache_p.add_subparsers(
        dest="cache_command", required=True
    )
    cache_stats_p = cache_sub.add_parser(
        "stats",
        help="entry count, bytes and age of the on-disk store (or a "
             "daemon's live counters with --server)",
    )
    cache_stats_p.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help=f"result cache location (default: {default_cache_dir()})",
    )
    cache_stats_p.add_argument(
        "--server", default=None, metavar="URL",
        help="query a running repro serve daemon instead of local disk",
    )
    cache_stats_p.add_argument(
        "--json", action="store_true",
        help="machine-readable output",
    )
    return parser


# ----------------------------------------------------------------------


def _runner_for(args: argparse.Namespace) -> Runner:
    """Build the experiment runner the flags describe."""
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
    return Runner(jobs=args.jobs, cache=cache)


def _default_cpus(args: argparse.Namespace) -> int:
    """``--cpus``, defaulting to the selected preset's core count."""
    if args.cpus is not None:
        return args.cpus
    return get_preset(args.arch).default_cpus


def _cmd_list() -> int:
    print("workloads:")
    for name in sorted(WORKLOADS):
        doc = (WORKLOADS[name].__module__ or "").split(".")[-1]
        print(f"  {name:<10} (repro.workloads.{doc})")
    print("topologies:")
    kinds = []
    for name in topology_names():
        preset = get_preset(name)
        paper = "paper" if name in ARCHITECTURES else "extra"
        print(f"  {name:<12} [{preset.kind}, {preset.default_cpus} "
              f"cpus, {paper}] {preset.description}")
        if preset.kind not in kinds:
            kinds.append(preset.kind)
    print("coherence disciplines (a topology's kind):")
    for kind in kinds:
        builder = get_builder(kind)
        summary = " ".join((builder.__doc__ or "").split("\n\n")[0].split())
        print(f"  {kind:<17} {builder.__name__}: {summary}")
    print(f"cpu models:    {', '.join(CPU_MODELS)}")
    print(f"scales:        {', '.join(_SCALES)}")
    return 0


def _print_result_stats(result, title: str) -> None:
    """Print one result's statistics block (``run`` and ``client``)."""
    stats = result.stats
    print(f"{title}:")
    print(f"  cycles        {stats.cycles}")
    print(f"  instructions  {stats.instructions}")
    print(f"  machine IPC   {stats.ipc:.3f}")
    breakdown = stats.aggregate_breakdown()
    total = max(breakdown.total, 1)
    for name, value in breakdown.as_dict().items():
        print(f"  {name:<13} {value:>10}  ({100 * value / total:5.1f}%)")
    l1 = stats.aggregate_caches(".l1d")
    l2 = stats.aggregate_caches(".l2")
    print(f"  L1 data: {l1.accesses} refs, "
          f"L1R {100 * l1.miss_rate_repl:.2f}%  "
          f"L1I {100 * l1.miss_rate_inval:.2f}%")
    print(f"  L2:      {l2.accesses} refs, "
          f"L2R {100 * l2.miss_rate_repl:.2f}%  "
          f"L2I {100 * l2.miss_rate_inval:.2f}%")
    sync = result.extras.get("sync", {})
    if sync:
        print("  synchronization:")
        for name, info in sorted(sync.items()):
            fields = "  ".join(
                f"{key}={value}" for key, value in info.items()
                if key != "kind"
            )
            print(f"    {name:<20} [{info['kind']}] {fields}")
    ckpt = result.extras.get("checkpoint")
    if ckpt:
        line = f"  checkpoints   {ckpt['saved']} saved"
        if ckpt.get("resumed_from"):
            line += f", resumed from {ckpt['resumed_from'][:12]}"
        print(line)
    print(f"  wall time     {result.wall_seconds:.2f}s")


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.checkpoint_every or args.from_checkpoint) and not \
            args.checkpoint_dir:
        print(
            "error: --checkpoint-every/--from-checkpoint require "
            "--checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    job = Job(
        arch=args.arch,
        workload=args.workload,
        cpu_model=args.cpu,
        scale=args.scale,
        n_cpus=_default_cpus(args),
        overrides=dict(args.overrides),
        max_cycles=args.max_cycles,
        obs_sample=args.sample_interval or 0,
        replay=args.replay,
        timeout_s=args.timeout,
        ckpt_every=args.checkpoint_every,
        ckpt_dir=args.checkpoint_dir,
        trace_dir=args.trace_dir,
    )
    profile = args.profile or args.profile_out is not None
    obs_config = None
    if args.events is not None:
        from repro.obs import DEFAULT_SAMPLE_INTERVAL, ObsConfig

        obs_config = ObsConfig(
            sample_interval=(
                args.sample_interval
                if args.sample_interval is not None
                else DEFAULT_SAMPLE_INTERVAL
            ),
            events_path=args.events,
        )
    profile_text = None
    try:
        if profile:
            # Profiling wants the simulation in *this* process with no
            # cache shortcut — a cache hit would profile JSON parsing.
            from repro.perf import profile_call

            result, profile_text = profile_call(
                lambda: job.run(obs=obs_config)
            )
            report = None
        elif obs_config is not None or args.from_checkpoint is not None:
            # The event file is written by the run itself (and an
            # explicit checkpoint restore changes where the run starts),
            # so these run in this process and never come from the
            # cache.
            result = job.run(
                obs=obs_config, resume_from=args.from_checkpoint
            )
            report = None
        else:
            report = _runner_for(args).run([job])
            outcome = report.outcomes[0]
            if outcome.result is None:
                kind = "timeout" if outcome.timed_out else "failed"
                print(f"error ({kind}): {outcome.error}", file=sys.stderr)
                return 2
            result = outcome.result
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_result_stats(
        result, f"{args.workload} on {args.arch} ({args.cpu}, {args.scale})"
    )
    if report is not None:
        print(f"  runner        {report.summary()}")
    obs_rollup = result.extras.get("obs")
    if obs_rollup:
        from repro.obs import format_rollup

        print()
        print(format_rollup(obs_rollup))
        if args.events is not None:
            print(f"events written to {args.events}")
    if profile_text is not None:
        spin = result.extras.get("spin")
        if spin is not None:
            # Why a run with long waits was fast: how much of its
            # spinning was accounted for instead of issued.
            print(
                f"  spin waits    {spin['parks']} parks, "
                f"{spin['settled_iterations']} iterations settled in "
                f"bulk ({spin['disturbed_wakes']} woken by another CPU, "
                f"{spin['deadline_wakes']} at their own deadline)"
            )
        print()
        print(profile_text, end="")
        if args.profile_out is not None:
            with open(args.profile_out, "w", encoding="utf-8") as handle:
                handle.write(profile_text)
            print(f"profile written to {args.profile_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        runner = _runner_for(args)
        results = run_architecture_comparison(
            args.workload,
            cpu_model=args.cpu,
            scale=args.scale,
            n_cpus=args.cpus if args.cpus is not None else 4,
            archs=tuple(args.archs),
            max_cycles=args.max_cycles,
            mem_config_overrides=dict(args.overrides) or None,
            runner=runner,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    title = f"{args.workload} ({args.cpu}, {args.scale} scale)"
    # Normalize to the paper's shared-memory baseline when it is part
    # of the matrix; otherwise to the first topology requested.
    baseline = (
        "shared-mem" if "shared-mem" in results else next(iter(results))
    )
    print(format_breakdown_table(results, baseline=baseline, title=title))
    print()
    print(format_miss_rate_table(results))
    if args.cpu == "mxs":
        print()
        print(format_ipc_table(results))
    print()
    print(format_resource_table(results, title="resource utilization"))
    print()
    print(format_bar_chart(normalized_times(results, baseline=baseline),
                           title="normalized execution time"))
    if args.svg:
        from repro.core.figures import render_comparison_figure

        render_comparison_figure(results, title, args.svg,
                                 baseline=baseline)
        print(f"figure written to {args.svg}")
    if args.claims:
        from repro.core.paper import (
            PAPER_EXPECTATIONS,
            check_figure,
            format_check_report,
        )

        figure = next(
            (
                fig for fig, exp in PAPER_EXPECTATIONS.items()
                if exp.workload == args.workload
            ),
            None,
        )
        print()
        if figure is None:
            print(f"(no encoded paper claims for {args.workload!r})")
        else:
            print(f"paper claims ({figure}):")
            print(format_check_report(check_figure(results, figure)))
    if runner.last_report is not None:
        print()
        print(f"runner: {runner.last_report.summary()}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    print(f"sweeping {args.field} over {args.values} "
          f"({args.workload}, {args.cpu}, {args.scale} scale)")
    try:
        runner = _runner_for(args)
        sweep = sweep_mem_field(
            args.workload,
            args.field,
            args.values,
            cpu_model=args.cpu,
            scale=args.scale,
            n_cpus=args.cpus if args.cpus is not None else 4,
            max_cycles=args.max_cycles,
            runner=runner,
            replay=args.replay,
            trace_dir=args.trace_dir,
        )
    except ReproError as error:
        # Sweep problems are reported in-band, not fatally (a bad field
        # or value is part of exploring the space).
        print(f"error: {error}")
        return 0
    header = f"{args.field:>12}" + "".join(
        f"{arch:>13}" for arch in ARCHITECTURES
    )
    print(header)
    print("-" * len(header))
    for value in sweep.values:
        row = f"{value:>12}"
        for arch in ARCHITECTURES:
            row += f"{sweep.cycles(value, arch):>13}"
        print(row)
    if runner.last_report is not None:
        print(f"runner: {runner.last_report.summary()}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    counts = sorted(set(args.counts))
    print(f"scaling {', '.join(args.archs)} over {counts} cores "
          f"({args.workload}, {args.cpu}, {args.scale} scale)")
    try:
        runner = _runner_for(args)
        table = sweep_cpu_count(
            args.workload,
            counts=counts,
            cpu_model=args.cpu,
            scale=args.scale,
            archs=tuple(args.archs),
            max_cycles=args.max_cycles,
            runner=runner,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    header = f"{'cores':>12}" + "".join(
        f"{arch:>13}" for arch in args.archs
    )
    print(header)
    print("-" * len(header))
    for count in counts:
        row = f"{count:>12}"
        for arch in args.archs:
            row += f"{table[arch][count].cycles:>13}"
        print(row)
    speedups = speedup_table(table)
    print(f"{'speedup':>12}" + "".join(
        f"{speedups[arch][counts[-1]]:>12.2f}x" for arch in args.archs
    ))
    if args.svg:
        from repro.core.figures import render_scaling_svg

        title = (f"{args.workload} scaling "
                 f"({args.cpu}, {args.scale} scale)")
        render_scaling_svg(table, title, args.svg)
        print(f"figure written to {args.svg}")
    if runner.last_report is not None:
        print(f"runner: {runner.last_report.summary()}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import format_phase_table, format_rollup
    from repro.obs.report import run_observed

    if args.obs_command == "validate":
        return _cmd_obs_validate(args.path)
    if args.obs_command == "tail":
        return _cmd_obs_tail(args)
    if args.obs_command == "export":
        return _cmd_obs_export(args)
    if args.batch is not None:
        return _cmd_obs_batch_report(args.batch)
    if args.workload is None or args.arch is None:
        print(
            "error: obs report needs --workload and --arch "
            "(or --batch EVENTS for a batch summary)",
            file=sys.stderr,
        )
        return 2

    try:
        system, stats = run_observed(
            args.workload,
            args.arch,
            cpu_model=args.cpu,
            scale=args.scale,
            n_cpus=_default_cpus(args),
            sample_interval=args.sample_interval,
            events_path=args.events,
            max_cycles=args.max_cycles,
            overrides=dict(args.overrides) or None,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    obs = system.obs
    print(f"{args.workload} on {args.arch} ({args.cpu}, {args.scale}): "
          f"{stats.cycles} cycles, {stats.instructions} instructions")
    print()
    print(format_phase_table(obs.sampler, phases=args.phases))
    print()
    print(format_rollup(obs.rollup()))
    if args.events is not None:
        print(f"events written to {args.events}")
    return 0


def _sniff_event_log(path: str) -> bool:
    """``True`` when ``path`` looks like a JSONL event log rather than
    a Chrome trace (one bus event object per line vs. a single object
    with ``traceEvents``)."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
    except OSError:
        return False
    try:
        record = json.loads(first)
    except ValueError:
        return False
    return isinstance(record, dict) and "kind" in record


def _cmd_obs_validate(path: str) -> int:
    from repro.obs import validate_events, validate_trace

    if _sniff_event_log(path):
        errors = validate_events(path)
        label = "event log"
    else:
        errors = validate_trace(path)
        label = "trace"
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    print(f"{path}: valid {label}")
    return 0


def _format_event_line(event, t0: float) -> str:
    fields = " ".join(
        f"{key}={value}" for key, value in sorted(event.fields.items())
    )
    line = (
        f"#{event.seq or 0:<5} +{event.ts - t0:8.3f}s "
        f"pid {event.pid:<7} {event.kind:<16}"
    )
    return f"{line} {fields}".rstrip()


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    import time as time_mod

    from repro.obs import read_events

    try:
        events = read_events(args.path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    t0 = events[0].ts if events else 0.0
    shown = events[-args.lines:] if args.lines > 0 else events
    for event in shown:
        print(_format_event_line(event, t0))
    if not args.follow:
        return 0
    seen = len(events)
    ended = any(event.kind == "batch.end" for event in events)
    while not ended:
        time_mod.sleep(0.2)
        try:
            events = read_events(args.path)
        except OSError:
            break
        if not events:
            continue
        if t0 == 0.0:
            t0 = events[0].ts
        for event in events[seen:]:
            print(_format_event_line(event, t0), flush=True)
            if event.kind == "batch.end":
                ended = True
        seen = len(events)
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    import json

    from repro.obs import prometheus_text, read_events, rollup_events

    try:
        rollup = rollup_events(read_events(args.path))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(rollup, indent=2, sort_keys=True))
    else:
        sys.stdout.write(prometheus_text(rollup, prefix=args.prefix))
    return 0


def _cmd_obs_batch_report(path: str) -> int:
    from repro.obs import read_events, rollup_events

    try:
        events = read_events(path)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not events:
        print(f"{path}: no events")
        return 1
    rollup = rollup_events(events)
    print(f"batch report: {path}")
    print(
        f"  {len(events)} event(s) across {rollup['workers']} "
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


def _build_ckpt_system(
    workload_name: str,
    arch: str,
    cpu_model: str,
    n_cpus: int,
    scale: str,
    overrides: dict | None = None,
    obs_meta: dict | None = None,
    max_cycles: int | None = None,
):
    """A fresh checkpoint-capable system for the ``ckpt`` subcommands."""
    from repro.core.configs import config_for_scale
    from repro.core.system import System
    from repro.mem.functional import FunctionalMemory

    config = config_for_scale(scale, n_cpus)
    if overrides:
        config = config.with_overrides(**overrides)
    obs_config = None
    if obs_meta:
        from repro.obs import ObsConfig

        obs_config = ObsConfig(
            sample_interval=obs_meta.get("sample_interval", 0),
            events=obs_meta.get("events", False),
        )
    functional = FunctionalMemory()
    workload = WORKLOADS[workload_name](n_cpus, functional, scale)
    return System(
        arch,
        workload,
        cpu_model=cpu_model,
        mem_config=config,
        max_cycles=max_cycles,
        obs=obs_config,
        checkpointing=True,
    )


def _cmd_ckpt(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.ckpt import CheckpointStore, restore_system, snapshot_system

    store = CheckpointStore(args.dir)
    try:
        if args.ckpt_command == "inspect":
            meta = store.inspect(args.digest)
            print(json_mod.dumps(meta, indent=2, sort_keys=True))
            return 0
        if args.ckpt_command == "save":
            overrides = dict(args.overrides)
            system = _build_ckpt_system(
                args.workload, args.arch, args.cpu, _default_cpus(args),
                args.scale, overrides=overrides,
            )
            system.run(pause_at=args.at)
            if not system.paused:
                print(
                    f"run finished at cycle {system._cycle} before "
                    f"reaching cycle {args.at}; nothing to checkpoint",
                    file=sys.stderr,
                )
                return 1
            extra = {"scale": args.scale}
            if overrides:
                extra["overrides"] = overrides
            digest = store.save(snapshot_system(system, extra_meta=extra))
            print(f"checkpoint saved at cycle {system._cycle}")
            print(digest)
            return 0
        # resume
        state = store.load(args.digest)
        meta = state["meta"]
        system = _build_ckpt_system(
            meta["workload"], meta["arch"], meta["cpu_model"],
            meta["n_cpus"], meta.get("scale", "test"),
            overrides=meta.get("overrides"),
            obs_meta=meta.get("obs"),
            max_cycles=args.max_cycles,
        )
        restore_system(system, state)
        stats = system.run()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"{meta['workload']} on {meta['arch']} ({meta['cpu_model']}): "
        f"resumed at cycle {meta['cycle']}, finished at {stats.cycles}"
    )
    print(f"  instructions  {stats.instructions}")
    print(f"  machine IPC   {stats.ipc:.3f}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.mem.functional import FunctionalMemory

    if not 0 <= args.cpu < args.cpus:
        print(
            f"error: --cpu {args.cpu} out of range for {args.cpus} CPUs",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](
        args.cpus, FunctionalMemory(), args.scale
    )
    program = workload.program(args.cpu)
    print(f"# {args.workload} cpu {args.cpu} of {args.cpus} "
          f"({args.scale} scale), "
          f"first {args.limit} instructions")
    print(f"{'#':>5} {'pc':>10} {'op':<8} {'operand':<14} {'deps'}")
    value = None
    feed = 0
    for index in range(args.limit):
        try:
            inst = program.send(value) if value is not None else next(program)
        except StopIteration:
            print(f"# program ended after {index} instructions")
            break
        value = None
        if inst.want_value:
            feed += 1
            value = (0, 1, 2, 3, 1 << 20)[feed % 5]
        operand = ""
        if inst.is_memory:
            operand = f"[{inst.addr:#x}]"
        elif inst.is_branch:
            operand = ("taken" if inst.taken else "not-taken")
        deps = ""
        if inst.src1 or inst.src2:
            deps = f"src-{inst.src1}" + (f",-{inst.src2}" if inst.src2 else "")
        print(f"{index:>5} {inst.pc:>#10x} {inst.op.name:<8} "
              f"{operand:<14} {deps}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from pathlib import Path

    from repro.serve import ServiceDaemon

    if args.checkpoint_every and not args.checkpoint_dir:
        print(
            "error: --checkpoint-every requires --checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    base = (
        Path(args.cache_dir).expanduser()
        if args.cache_dir
        else default_cache_dir()
    )
    state_dir = (
        Path(args.state_dir).expanduser()
        if args.state_dir
        else base / "serve"
    )
    daemon = ServiceDaemon(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache=cache,
        state_dir=state_dir,
        max_retries=args.max_retries,
        ckpt_every=args.checkpoint_every,
        ckpt_dir=args.checkpoint_dir,
        trace_dir=args.trace_dir,
    )
    try:
        daemon.start(resume=args.resume)
    except OSError as error:
        print(
            f"error: cannot bind {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    stop = threading.Event()

    def _handle_signal(signum, frame):
        stop.set()

    previous = {
        sig: signal.signal(sig, _handle_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    cache_text = "off" if cache is None else str(cache.root)
    print(
        f"repro serve listening on http://{args.host}:{daemon.port} "
        f"({daemon.runner.n_jobs} worker(s), cache {cache_text})",
        flush=True,
    )
    print(f"state dir {state_dir}", flush=True)
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("shutting down (draining queue)...", flush=True)
        daemon.shutdown(grace=args.grace)
        pending = len(daemon.queue.pending())
        if pending:
            print(
                f"{pending} unfinished job(s) persisted; restart with "
                "--resume to re-enqueue them",
                flush=True,
            )
        print("daemon stopped", flush=True)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if args.client_command == "submit":
            return _client_submit(client, args)
        if args.client_command == "status":
            status = client.status(args.job_id)
            for key in (
                "id", "label", "backend", "state", "priority",
                "attempts", "submits", "cached", "error",
                "cancel_requested",
            ):
                value = status.get(key)
                if value is not None and value != "":
                    print(f"  {key:<17} {value}")
            return 0
        if args.client_command == "result":
            status = client.status(args.job_id)
            result = client.result(args.job_id)
            _print_result_stats(
                result, f"{status['label']} [{status['state']}]"
            )
            return 0
        if args.client_command == "cancel":
            response = client.cancel(args.job_id)
            print(f"job {response['id'][:12]}: {response['state']}"
                  + (" (cancel requested)"
                     if response["cancel_requested"] else ""))
            return 0
        if args.client_command == "watch":
            return _client_watch(client, args.job_id)
        # queue
        document = client.queue()
        counts = ", ".join(
            f"{count} {state}"
            for state, count in document["counts"].items()
        ) or "empty"
        print(
            f"queue: {counts} "
            f"({document['workers']} worker(s), "
            f"{document['inflight']} in flight, "
            f"{document['executed']} executed, "
            f"accepting={str(document['accepting']).lower()})"
        )
        for job in document["jobs"]:
            print(
                f"  {job['id'][:12]} {job['state']:<11} "
                f"attempts={job['attempts']} {job['label']}"
            )
        return 0
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _client_submit(client, args: argparse.Namespace) -> int:
    """``repro client submit``: build the wire payload and send it."""
    payload: dict = {
        "workload": args.workload,
        "arch": args.arch,
        "cpu_model": args.cpu,
        "scale": args.scale,
    }
    if args.cpus is not None:
        payload["n_cpus"] = args.cpus
    if args.overrides:
        payload["overrides"] = dict(args.overrides)
    if args.max_cycles is not None:
        payload["max_cycles"] = args.max_cycles
    if args.replay:
        payload["replay"] = True
    if args.timeout:
        payload["timeout_s"] = args.timeout
    response = client.submit(payload, priority=args.priority)
    note = " (deduped)" if response["reused"] else ""
    print(f"job {response['id']}")
    print(f"  state  {response['state']}{note}")
    if not args.wait:
        return 0
    status = client.wait(response["id"])
    print(f"  final  {status['state']} "
          f"after {status['attempts']} attempt(s)")
    if status["state"] not in ("done", "cached"):
        if status.get("error"):
            print(f"error: {status['error']}", file=sys.stderr)
        return 1
    result = client.result(response["id"])
    _print_result_stats(
        result,
        f"{args.workload} on {args.arch} ({args.cpu}, {args.scale}, "
        "via service)",
    )
    return 0


def _client_watch(client, job_id: str) -> int:
    """``repro client watch``: print the live NDJSON event stream."""
    final_state = None
    for event in client.watch(job_id):
        kind = event.get("kind", "?")
        if kind == "serve.state":
            final_state = event.get("state")
        fields = " ".join(
            f"{key}={value}"
            for key, value in sorted(event.items())
            if key not in ("kind", "seq", "ts", "pid", "tag", "id")
        )
        print(f"{kind:<16} {fields}".rstrip(), flush=True)
    if final_state is None:
        print("stream ended before the job did", file=sys.stderr)
        return 1
    return 0 if final_state in ("done", "cached") else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    import json as json_mod

    if args.server:
        from repro.serve import ServiceClient, ServiceError

        try:
            info = ServiceClient(args.server).cache()
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        cache = ResultCache(args.cache_dir)
        info = {
            "enabled": True,
            "counters": cache.stats(),
            "disk": cache.disk_stats(),
        }
    if args.json:
        print(json_mod.dumps(info, indent=2, sort_keys=True))
        return 0
    if not info.get("enabled", True):
        print("result cache is disabled on the daemon")
        return 0
    disk = info["disk"]
    print(f"result cache at {disk['root']}")
    print(f"  entries  {disk['entries']}")
    print(f"  bytes    {disk['bytes']}")
    if disk.get("oldest_mtime") and disk.get("newest_mtime"):
        import time as time_mod

        age = time_mod.time() - disk["oldest_mtime"]
        print(f"  oldest   {age / 3600:.1f}h ago")
    counters = {
        key: value
        for key, value in sorted(info.get("counters", {}).items())
        if value
    }
    if counters:
        text = ", ".join(
            f"{value} {key}" for key, value in counters.items()
        )
        print(f"  session counters: {text}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch a parsed command; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "scaling":
        return _cmd_scaling(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "ckpt":
        return _cmd_ckpt(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "selfcheck":
        from repro.core.selfcheck import run_selfcheck

        return 0 if run_selfcheck() else 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
