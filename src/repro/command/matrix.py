"""``repro compare`` / ``sweep`` / ``scaling``: one workload over a
matrix of machines, each point a job of one runner batch.

``compare`` runs the chosen topology presets side by side, ``sweep``
one ``MemConfig`` field over values on the paper's three, ``scaling``
the chosen presets over core counts. Each verb hands the parsed flags'
``Job`` and its grid axes to the library helper in
:mod:`repro.core.sweeps`, so an omitted ``--cpus`` is each preset's own
natural count and a failed point is an error.
"""

from __future__ import annotations

import argparse

from repro.command.jobargs import (
    MACHINE,
    RUNNER,
    add_flags,
    job_from_args,
    runner_from_args,
)
from repro.core.configs import ARCHITECTURES
from repro.core.report import (
    format_bar_chart,
    format_breakdown_table,
    format_ipc_table,
    format_miss_rate_table,
    format_resource_table,
    normalized_times,
)
from repro.core.runner import job_grid
from repro.core.sweeps import (
    SweepResult,
    run_architecture_comparison,
    speedup_table,
    sweep_cpu_count,
    sweep_mem_field,
)
from repro.mem.topology import topology_names


def _without(dests, *dropped):
    return tuple(dest for dest in dests if dest not in dropped)


def register(subparsers) -> None:
    """Declare ``compare``, ``sweep`` and ``scaling``."""
    compare = subparsers.add_parser(
        "compare", help="run a topology matrix and compare"
    )
    add_flags(compare, _without(MACHINE, "arch") + RUNNER)
    compare.add_argument(
        "--claims", action="store_true",
        help="evaluate the paper's Section-4 claims for this workload",
    )
    compare.set_defaults(run=run, verb=_compare)

    sweep = subparsers.add_parser(
        "sweep", help="sweep one MemConfig field across all architectures"
    )
    add_flags(
        sweep,
        _without(MACHINE, "arch", "overrides")
        + ("replay", "trace_dir") + RUNNER,
    )
    sweep.add_argument(
        "--field", required=True, help="MemConfig field to sweep"
    )
    sweep.add_argument(
        "values", nargs="+", type=int, help="values to sweep over"
    )
    sweep.set_defaults(run=run, verb=_sweep)

    scaling = subparsers.add_parser(
        "scaling",
        help="run topologies across core counts (cycles vs cores)",
    )
    add_flags(
        scaling, _without(MACHINE, "arch", "n_cpus", "overrides") + RUNNER
    )
    scaling.add_argument(
        "--counts", nargs="+", type=int, default=[2, 4, 8, 16],
        metavar="N", help="core counts to run (default: 2 4 8 16)",
    )
    scaling.set_defaults(run=run, verb=_scaling)

    for parser, what in ((compare, "compare"), (scaling, "scale")):
        parser.add_argument(
            "--archs", "--topologies", nargs="+", choices=topology_names(),
            default=list(ARCHITECTURES), metavar="PRESET",
            help=f"topology presets to {what} (default: the paper's "
                 f"three; choose from {', '.join(topology_names())})",
        )
        parser.add_argument(
            "--svg", metavar="PATH",
            help="also render the figure as an SVG",
        )


def run(args: argparse.Namespace) -> int:
    """Run the verb's matrix on one runner and account for the batch."""
    runner = runner_from_args(args)
    code = args.verb(args, runner)
    print()
    print(f"runner: {runner.last_report.summary()}")
    return code


def _title(args: argparse.Namespace, base, archs) -> str:
    """``workload (cpu, scale)``, with each topology's CPU count when
    the presets' counts differ."""
    text = f"{args.workload} ({args.cpu_model}, {args.scale} scale"
    counts = {
        job.arch: job.n_cpus for job in job_grid(base, archs, args.n_cpus)
    }
    if len(set(counts.values())) > 1:
        text += "; " + " ".join(f"{a}@{n}" for a, n in counts.items())
    return text + ")"


def _compare(args: argparse.Namespace, runner) -> int:
    base = job_from_args(args, arch=args.archs[0])
    title = _title(args, base, args.archs)
    results = run_architecture_comparison(
        base, args.archs, args.n_cpus, runner
    )
    # Normalize to the paper's shared-memory baseline when it is part
    # of the matrix; otherwise to the first topology requested.
    baseline = (
        "shared-mem" if "shared-mem" in results else next(iter(results))
    )
    print(format_breakdown_table(results, baseline=baseline, title=title))
    print()
    print(format_miss_rate_table(results))
    if args.cpu_model == "mxs":
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
    return 0


def _sweep(args: argparse.Namespace, runner) -> int:
    base = job_from_args(args, arch=ARCHITECTURES[0])
    print(f"sweeping {args.field} over {args.values}: "
          f"{_title(args, base, ARCHITECTURES)}")
    sweep = sweep_mem_field(
        base, args.field, args.values, ARCHITECTURES, args.n_cpus, runner
    )
    print(sweep.table())
    return 0


def _scaling(args: argparse.Namespace, runner) -> int:
    counts = sorted(set(args.counts))
    setting = f"({args.cpu_model}, {args.scale} scale)"
    print(f"scaling {', '.join(args.archs)} over {counts} cores: "
          f"{args.workload} {setting}")
    table = sweep_cpu_count(
        job_from_args(args, arch=args.archs[0]), counts, args.archs, runner
    )
    print(SweepResult("cores", counts, {
        count: {arch: table[arch][count] for arch in args.archs}
        for count in counts
    }).table())
    speedups = speedup_table(table)
    print(f"{'speedup':>14}" + "".join(
        f"{speedups[arch][counts[-1]]:>12.2f}x" for arch in args.archs
    ))
    if args.svg:
        from repro.core.figures import render_scaling_svg

        render_scaling_svg(
            table, f"{args.workload} scaling {setting}", args.svg
        )
        print(f"figure written to {args.svg}")
    return 0
