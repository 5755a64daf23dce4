"""``repro run``: one simulation, its statistics printed.

Goes through the runner (worker pool, result cache) unless the run has
to happen in this process: under ``--profile``, with an ``--events``
file to write, or from an explicit ``--from-checkpoint``.
"""

from __future__ import annotations

import argparse
import sys

from repro.command.jobargs import (
    MACHINE,
    POLICY,
    RUNNER,
    add_flags,
    job_from_args,
    runner_from_args,
)


def register(subparsers) -> None:
    """Declare ``run``."""
    parser = subparsers.add_parser(
        "run", help="run one (topology, workload) simulation"
    )
    add_flags(parser, MACHINE + POLICY + RUNNER)
    parser.add_argument(
        "--from-checkpoint", metavar="DIGEST", default=None,
        help="restore this checkpoint digest before running "
             "(requires --checkpoint-dir; runs in-process)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run in-process under cProfile and print the hottest "
             "functions under a `spin waits` line (how many spin "
             "iterations were settled in bulk; docs/PERFORMANCE.md); "
             "ignores --jobs and the result cache",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="also write the full cProfile report to PATH "
             "(implies --profile)",
    )
    parser.add_argument(
        "--sample-interval", type=int, default=None, metavar="N",
        help="attach observability, sampling component utilization "
             "every N cycles (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--events", metavar="PATH", default=None,
        help="record the event timeline to PATH as Chrome/Perfetto "
             "trace JSON (runs in-process; implies observability)",
    )
    parser.set_defaults(run=run)


def print_result_stats(result, title: str) -> None:
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


def _profiled(fn):
    """``(fn(), report)``: ``fn`` run under cProfile, ``report`` the
    pstats text of its 30 hottest entries by cumulative time."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).strip_dirs().sort_stats(
        "cumulative"
    ).print_stats(30)
    return result, buffer.getvalue()


def run(args: argparse.Namespace) -> int:
    """Simulate the job the flags describe and print its statistics."""
    job = job_from_args(args, obs_sample=args.sample_interval or 0)
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
    report = profile_text = None
    if args.profile or args.profile_out is not None:
        # Profiling wants the simulation in *this* process with no
        # cache shortcut — a cache hit would profile JSON parsing.
        result, profile_text = _profiled(lambda: job.run(obs=obs_config))
    elif obs_config is not None or args.from_checkpoint is not None:
        # The event file is written by the run itself (and an explicit
        # checkpoint restore changes where the run starts), so these
        # run in this process and never come from the cache.
        result = job.run(obs=obs_config, resume_from=args.from_checkpoint)
    else:
        report = runner_from_args(args).run([job])
        outcome = report.outcomes[0]
        if outcome.result is None:
            kind = "timeout" if outcome.timed_out else "failed"
            print(f"error ({kind}): {outcome.error}", file=sys.stderr)
            return 2
        result = outcome.result
    print_result_stats(
        result,
        f"{job.workload} on {job.arch} ({job.cpu_model}, {job.scale})",
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
