"""Render sampled utilization as per-phase summaries.

``repro obs report`` runs one simulation in-process with the sampler
attached, splits the run into a handful of equal time spans
("phases"), and prints the mean of every sampled series per phase —
the quickest way to see *when* the crossbar conflicts or the bus
saturates, without opening the full Perfetto trace.
"""

from __future__ import annotations

from repro.obs.sampler import UtilizationSampler


def phase_means(
    sampler: UtilizationSampler, phases: int
) -> tuple[list[int], dict[str, list[float]]]:
    """Mean of every series over ``phases`` equal spans of the run.

    Returns ``(phase_ends, means)`` where ``phase_ends[p]`` is the last
    sampled cycle of phase ``p`` and ``means[name][p]`` the mean of
    that series inside the phase (0.0 for empty spans).
    """
    n = sampler.n_samples
    phases = max(1, min(phases, max(n, 1)))
    ends: list[int] = []
    cuts: list[tuple[int, int]] = []
    for p in range(phases):
        lo = p * n // phases
        hi = (p + 1) * n // phases
        cuts.append((lo, hi))
        if hi > lo:
            ends.append(sampler.boundaries[hi - 1])
        else:
            ends.append(ends[-1] if ends else 0)
    means: dict[str, list[float]] = {}
    for name in sorted(sampler.series):
        values = sampler.series[name]
        row = []
        for lo, hi in cuts:
            span = values[lo:hi]
            row.append(sum(span) / len(span) if span else 0.0)
        means[name] = row
    return ends, means


def format_phase_table(
    sampler: UtilizationSampler, phases: int = 8
) -> str:
    """A fixed-width per-phase utilization table (one row per series)."""
    if sampler.n_samples == 0:
        return "(no samples taken — run longer than one interval)"
    ends, means = phase_means(sampler, phases)
    width = 9
    name_width = max(len(name) for name in means)
    header = "phase end".ljust(name_width) + "".join(
        f"{end:>{width}}" for end in ends
    )
    lines = [header, "-" * len(header)]
    for name, row in means.items():
        lines.append(
            name.ljust(name_width)
            + "".join(f"{value:>{width}.3f}" for value in row)
        )
    return "\n".join(lines)


def format_rollup(rollup: dict, top: int = 12) -> str:
    """Compact text summary of an :meth:`Observation.rollup` payload:
    the busiest sampled series plus event/metric counts."""
    lines = []
    utilization = rollup.get("utilization", {})
    if utilization:
        busiest = sorted(
            utilization.items(),
            key=lambda kv: kv[1]["mean"],
            reverse=True,
        )[:top]
        lines.append(
            f"sampled series: {len(utilization)} "
            f"(interval {rollup.get('sample_interval', 0)}, "
            f"{rollup.get('samples', 0)} samples)"
        )
        for name, stats in busiest:
            lines.append(
                f"  {name:<24} mean {stats['mean']:>8.3f}  "
                f"max {stats['max']:>8.3f}"
            )
    events = rollup.get("events")
    if events:
        lines.append(
            f"events: {events['emitted']} emitted on {events['tracks']} "
            f"track(s), {events['dropped']} dropped"
        )
    metrics = rollup.get("metrics", {})
    for name, value in sorted(metrics.get("counters", {}).items()):
        lines.append(f"  counter {name:<22} {value}")
    for name, hist in sorted(metrics.get("histograms", {}).items()):
        lines.append(
            f"  histogram {name:<20} n={hist['count']} "
            f"mean={hist['mean']:.1f}"
        )
    return "\n".join(lines) if lines else "(no observability data)"
