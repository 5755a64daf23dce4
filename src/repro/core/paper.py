"""The paper's evaluation as data: its claims and its figures.

Every figure discussion in Section 4 makes specific claims — who wins,
which miss component dominates, which architecture pays which cost.
This module encodes those claims as data
(:data:`PAPER_EXPECTATIONS`) and provides :func:`check_figure`, which
evaluates a result set against them and reports which claims hold.
Beside them sits the figure catalog (:data:`FIGURES`): which workload
and CPU model each rendered figure runs, at what operating point
(:func:`figure_jobs`), and how its series is written out
(:func:`write_figure`) — read by ``repro reproduce``, ``repro list``
and the per-figure harnesses under ``benchmarks/``.

The benchmark harnesses assert the subset of claims the scaled
reproduction is expected to satisfy; users running their own
configurations can evaluate all of them:

    from repro.core.paper import check_figure
    report = check_figure(results, "fig4")
    for claim, ok, detail in report:
        print("OK " if ok else "DEV", claim, "-", detail)

(`DEV` marks a deviation, not an error: EXPERIMENTS.md documents the
known ones and why they appear at reduced scale.)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.core.configs import ARCHITECTURES
from repro.core.experiment import ExperimentResult
from repro.core.figures import render_comparison_figure
from repro.core.report import (
    format_breakdown_table,
    format_ipc_table,
    format_miss_rate_table,
    normalized_times,
)
from repro.core.runner import Job, job_grid
from repro.errors import ReproError

Check = Callable[[dict[str, ExperimentResult]], tuple[bool, str]]


def _times(results):
    return normalized_times(results)


def _tag(check: Check, label: str, quantitative: bool) -> Check:
    check.label = label
    #: quantitative claims hold at bench scale (the harness's tuned
    #: operating point); structural claims hold at any scale.
    check.quantitative = quantitative
    return check


def faster_than(arch: str, other: str) -> Check:
    """Claim: ``arch`` finishes in less time than ``other``."""

    def check(results):
        times = _times(results)
        ok = times[arch] < times[other]
        return ok, f"{arch}={times[arch]:.3f} vs {other}={times[other]:.3f}"

    return _tag(check, f"{arch} faster than {other}", quantitative=False)


def normalized_within(arch: str, low: float, high: float) -> Check:
    """Claim: ``arch``'s normalized time falls inside ``[low, high]``."""

    def check(results):
        value = _times(results)[arch]
        return low <= value <= high, f"{arch}={value:.3f} in [{low},{high}]"

    return _tag(
        check,
        f"{arch} normalized time within [{low}, {high}]",
        quantitative=True,
    )


def no_invalidation_misses(arch: str) -> Check:
    """Claim: ``arch`` takes no invalidation misses at all."""

    def check(results):
        l1 = results[arch].stats.aggregate_caches(".l1d")
        l2 = results[arch].stats.aggregate_caches(".l2")
        total = l1.misses_inval + l2.misses_inval
        return total == 0, f"{arch} invalidation misses = {total}"

    return _tag(
        check, f"{arch} has no invalidation misses", quantitative=False
    )


def l2_invalidation_dominated(arch: str) -> Check:
    """Claim: invalidations outnumber replacements in ``arch``'s L2."""

    def check(results):
        l2 = results[arch].stats.aggregate_caches(".l2")
        ok = l2.misses_inval > l2.misses_repl
        return ok, (
            f"{arch} L2I={l2.misses_inval} vs L2R={l2.misses_repl}"
        )

    return _tag(
        check,
        f"{arch} L2 misses dominated by invalidations",
        quantitative=True,
    )


def l2_invalidation_share_at_least(arch: str, floor: float) -> Check:
    """Claim: at least ``floor`` of ``arch``'s L2 misses are invalidations."""

    def check(results):
        l2 = results[arch].stats.aggregate_caches(".l2")
        misses = max(l2.misses, 1)
        share = l2.misses_inval / misses
        return share >= floor, (
            f"{arch} L2I share {share:.2f} >= {floor}"
        )

    return _tag(
        check,
        f"{arch} L2 invalidation share at least {100 * floor:.0f}%",
        quantitative=True,
    )


def l1_replacement_dominated(arch: str) -> Check:
    """Claim: replacements outnumber invalidations in ``arch``'s L1."""

    def check(results):
        l1 = results[arch].stats.aggregate_caches(".l1d")
        ok = l1.misses_repl > l1.misses_inval
        return ok, f"{arch} L1R={l1.misses_repl} vs L1I={l1.misses_inval}"

    return _tag(
        check,
        f"{arch} L1 misses dominated by replacements",
        quantitative=False,
    )


def l1_replacement_rate_at_most(arch: str, limit: float) -> Check:
    """Claim: ``arch``'s L1 replacement miss rate is at most ``limit``."""

    def check(results):
        rate = results[arch].stats.aggregate_caches(".l1d").miss_rate_repl
        return rate <= limit, f"{arch} L1R={100 * rate:.2f}% <= {100 * limit}%"

    return _tag(
        check, f"{arch} L1R at most {100 * limit:.0f}%", quantitative=True
    )


def l1_replacement_rate_at_least(arch: str, floor: float) -> Check:
    """Claim: ``arch``'s L1 replacement miss rate is at least ``floor``."""

    def check(results):
        rate = results[arch].stats.aggregate_caches(".l1d").miss_rate_repl
        return rate >= floor, f"{arch} L1R={100 * rate:.2f}% >= {100 * floor}%"

    return _tag(
        check, f"{arch} L1R at least {100 * floor:.0f}%", quantitative=True
    )


def memory_stall_share_below(arch: str, limit: float) -> Check:
    """Claim: ``arch`` spends under ``limit`` of its time in memory stalls."""

    def check(results):
        breakdown = results[arch].stats.aggregate_breakdown()
        share = breakdown.memory_stall / max(breakdown.total, 1)
        return share <= limit, f"{arch} stall share {share:.2f} <= {limit}"

    return _tag(
        check,
        f"{arch} memory stalls below {100 * limit:.0f}% of time",
        quantitative=True,
    )


def uses_cache_to_cache(arch: str) -> Check:
    """Claim: ``arch`` performed cache-to-cache transfers (bus sharing)."""

    def check(results):
        transfers = results[arch].stats.c2c_transfers
        return transfers > 0, f"{arch} c2c transfers = {transfers}"

    return _tag(
        check, f"{arch} communicates cache-to-cache", quantitative=False
    )


def istall_share_at_least(arch: str, floor: float) -> Check:
    """Claim: instruction stalls take at least ``floor`` of ``arch``'s time."""

    def check(results):
        breakdown = results[arch].stats.aggregate_breakdown()
        share = breakdown.istall / max(breakdown.total, 1)
        return share >= floor, f"{arch} istall share {share:.2f} >= {floor}"

    return _tag(
        check,
        f"{arch} instruction stalls at least {100 * floor:.0f}%",
        quantitative=True,
    )


@dataclass
class FigureExpectation:
    """One figure's claims from the paper's Section 4 discussion."""

    figure: str
    workload: str
    summary: str
    checks: list[Check] = field(default_factory=list)


PAPER_EXPECTATIONS: dict[str, FigureExpectation] = {
    "fig4": FigureExpectation(
        "fig4",
        "eqntott",
        "shared-L1 wins substantially; communication dominates the "
        "shared-memory machine's L2 misses",
        [
            faster_than("shared-l1", "shared-l2"),
            faster_than("shared-l2", "shared-mem"),
            normalized_within("shared-l1", 0.0, 0.9),
            l2_invalidation_dominated("shared-mem"),
            no_invalidation_misses("shared-l1"),
            uses_cache_to_cache("shared-mem"),
        ],
    ),
    "fig5": FigureExpectation(
        "fig5",
        "mp3d",
        "the shared-L1 advantage collapses (paper: 16% worse); "
        "L1 misses are replacement-dominated everywhere",
        [
            normalized_within("shared-l1", 0.85, 1.3),
            l1_replacement_dominated("shared-l1"),
            l1_replacement_dominated("shared-mem"),
            # "heavy communication requirements": a large invalidation
            # component in the shared-memory machine's L2.
            l2_invalidation_share_at_least("shared-mem", 0.25),
        ],
    ),
    "fig6": FigureExpectation(
        "fig6",
        "ocean",
        "large L1R everywhere, small communication; shared-L1 slightly "
        "ahead, shared-L2 behind it",
        [
            l1_replacement_rate_at_least("shared-l1", 0.03),
            l1_replacement_rate_at_least("shared-mem", 0.03),
            faster_than("shared-l1", "shared-l2"),
            normalized_within("shared-l1", 0.7, 1.05),
            normalized_within("shared-l2", 0.85, 1.15),
        ],
    ),
    "fig7": FigureExpectation(
        "fig7",
        "volpack",
        "small working set; the two shared caches close together, "
        "both ahead of shared memory",
        [
            l1_replacement_rate_at_most("shared-l1", 0.04),
            normalized_within("shared-l1", 0.0, 1.0),
            normalized_within("shared-l2", 0.0, 1.0),
        ],
    ),
    "fig8": FigureExpectation(
        "fig8",
        "ear",
        "shared-L1 has almost no memory stalls; private caches pay the "
        "suite's highest invalidation rate",
        [
            faster_than("shared-l1", "shared-l2"),
            faster_than("shared-l2", "shared-mem"),
            memory_stall_share_below("shared-l1", 0.15),
            no_invalidation_misses("shared-l1"),
        ],
    ),
    "fig9": FigureExpectation(
        "fig9",
        "fft",
        "all three fairly similar; shared caches slightly ahead",
        [
            normalized_within("shared-l1", 0.6, 1.1),
            normalized_within("shared-l2", 0.6, 1.15),
        ],
    ),
    "fig10": FigureExpectation(
        "fig10",
        "multiprog",
        "shared-L1 close to shared memory, shared-L2 behind both; "
        "instruction stalls visible; the pooled L1 pays no extra L1R",
        [
            normalized_within("shared-l1", 0.7, 1.1),
            # The paper's "pooled L1 holds the working sets" only holds
            # when the shared cache is big enough for the process count
            # — a capacity claim, hence quantitative.
            _tag(
                lambda results: faster_than("shared-l1", "shared-l2")(
                    results
                ),
                "shared-l1 faster than shared-l2",
                quantitative=True,
            ),
            istall_share_at_least("shared-l1", 0.05),
            istall_share_at_least("shared-mem", 0.05),
        ],
    ),
}


def check_figure(
    results: dict[str, ExperimentResult],
    figure: str,
    structural_only: bool = False,
) -> list[tuple[str, bool, str]]:
    """Evaluate one figure's claims; returns (label, ok, detail) rows.

    ``structural_only`` skips the quantitative claims, which are tuned
    for bench scale (the harness's operating point) and are not
    expected to hold at other scales.
    """
    try:
        expectation = PAPER_EXPECTATIONS[figure]
    except KeyError:
        raise ReproError(
            f"unknown figure {figure!r}; known: "
            f"{', '.join(sorted(PAPER_EXPECTATIONS))}"
        ) from None
    report = []
    for check in expectation.checks:
        if structural_only and getattr(check, "quantitative", False):
            continue
        ok, detail = check(results)
        report.append((check.label, ok, detail))
    return report


def format_check_report(report: list[tuple[str, bool, str]]) -> str:
    """Human-readable claim report (OK / DEV per claim)."""
    lines = []
    for label, ok, detail in report:
        status = " OK" if ok else "DEV"
        lines.append(f"[{status}] {label} ({detail})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The figures as the reproduction renders them


@dataclass(frozen=True)
class Figure:
    """One rendered figure: ``name`` is the artifact stem
    (``<name>.txt/.csv/.svg``), ``claims`` the
    :data:`PAPER_EXPECTATIONS` entry printed under its series
    (``None`` for Figure 11, whose IPC bars carry no encoded claims)."""

    name: str
    title: str
    workload: str
    cpu_model: str = "mipsy"
    claims: str | None = None


#: Figures 4-10 under Mipsy, then Figure 11's three MXS applications.
FIGURES: dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure("fig04_eqntott", "Figure 4 - Eqntott (Mipsy)",
               "eqntott", claims="fig4"),
        Figure("fig05_mp3d", "Figure 5 - MP3D (Mipsy)",
               "mp3d", claims="fig5"),
        Figure("fig06_ocean", "Figure 6 - Ocean (Mipsy)",
               "ocean", claims="fig6"),
        Figure("fig07_volpack", "Figure 7 - Volpack (Mipsy)",
               "volpack", claims="fig7"),
        Figure("fig08_ear", "Figure 8 - Ear (Mipsy)",
               "ear", claims="fig8"),
        Figure("fig09_fft", "Figure 9 - FFT (Mipsy)",
               "fft", claims="fig9"),
        Figure("fig10_multiprog",
               "Figure 10 - Multiprogramming + OS (Mipsy)",
               "multiprog", claims="fig10"),
        *(
            Figure(f"fig11_{app}_mxs",
                   f"Figure 11 - {app} (MXS, ideal IPC = 2)", app, "mxs")
            for app in ("multiprog", "eqntott", "ear")
        ),
    )
}

#: Per-workload memory-config overrides at the figures' operating
#: point. Ocean runs at the 1/4 cache scale because its
#: boundary-to-area ratio (the paper's "small amount of communication
#: at the edges") cannot be preserved on a 1/8-scale grid.
BENCH_OVERRIDES: dict[str, dict] = {
    "ocean": {
        "l1d_size": 4096,
        "l1i_size": 4096,
        "l2_size": 512 * 1024,
    },
}

#: Hard ceiling so a regression can never hang a figure run.
BENCH_MAX_CYCLES = 30_000_000


def figure_jobs(figures: Iterable[Figure], **policy) -> list[Job]:
    """One bench-scale job per (figure, paper architecture), figure by
    figure — the evaluation as a batch. ``policy`` is execution policy
    (and ``obs_sample``) stamped onto every job."""
    return [
        job
        for figure in figures
        for job in job_grid(
            Job(
                ARCHITECTURES[0], figure.workload, figure.cpu_model, "bench",
                overrides=dict(BENCH_OVERRIDES.get(figure.workload, {})),
                max_cycles=BENCH_MAX_CYCLES, **policy,
            ),
            ARCHITECTURES,
        )
    ]


def write_figure(
    figure: Figure,
    results: dict[str, ExperimentResult],
    out_dir: str | Path,
) -> str:
    """Format, print and persist one figure's data series:
    ``<name>.txt`` (the paper's rows plus its claims), ``.csv`` (the
    machine-readable companion) and ``.svg`` under ``out_dir``."""
    out_dir = Path(out_dir)
    mxs = figure.cpu_model == "mxs"
    lines = [figure.title, "=" * len(figure.title), ""]
    if mxs:
        lines.append(format_ipc_table(results))
    else:
        lines.append(format_breakdown_table(results))
        lines.append("")
        lines.append(format_miss_rate_table(results))
    times = normalized_times(results)
    lines.append("")
    lines.append(
        "normalized time vs shared-mem: "
        + "  ".join(f"{arch}={value:.3f}" for arch, value in times.items())
    )
    lines.append(
        "host speed: "
        + "  ".join(
            f"{arch}={result.wall_seconds:.2f}s"
            f"/{result.cycles / max(result.wall_seconds, 1e-9) / 1e6:.1f}Mc/s"
            for arch, result in results.items()
        )
    )
    if figure.claims is not None:
        lines.append("")
        lines.append("paper claims:")
        lines.append(
            format_check_report(check_figure(results, figure.claims))
        )
    text = "\n".join(lines)
    print()
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{figure.name}.txt").write_text(text + "\n")
    with (out_dir / f"{figure.name}.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "arch", "cycles", "instructions", "ipc",
            "busy", "istall", "l1d", "l2", "mem", "c2c", "storebuf",
            "l1r_pct", "l1i_pct", "l2r_pct", "l2i_pct",
        ])
        for arch, result in results.items():
            breakdown = result.stats.aggregate_breakdown()
            l1 = result.stats.aggregate_caches(".l1d")
            l2 = result.stats.aggregate_caches(".l2")
            writer.writerow([
                arch,
                result.cycles,
                result.instructions,
                f"{result.stats.ipc:.4f}",
                breakdown.busy,
                breakdown.istall,
                breakdown.l1d,
                breakdown.l2,
                breakdown.mem,
                breakdown.c2c,
                breakdown.storebuf,
                f"{100 * l1.miss_rate_repl:.3f}",
                f"{100 * l1.miss_rate_inval:.3f}",
                f"{100 * l2.miss_rate_repl:.3f}",
                f"{100 * l2.miss_rate_inval:.3f}",
            ])
    try:
        render_comparison_figure(
            results, figure.title, out_dir / f"{figure.name}.svg"
        )
    except ReproError:
        pass  # e.g. a single-architecture sweep with no baseline
    return text
