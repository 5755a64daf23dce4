#!/usr/bin/env python
"""Compare a fresh microbenchmark run against the committed baseline.

Reads two JSON files produced by ``benchmarks/micro.py`` and compares
host wall time per (scenario, arch, cpu_model) record. A record that
runs more than ``--tolerance`` slower than its baseline (default 15%)
is a regression; any regression makes the gate exit non-zero unless
``--warn-only`` is given (CI uses warn-only because shared runners
have noisy clocks — the hard gate is for developer machines).

If ``--current`` is not given, the gate runs the quick microbenchmarks
itself in a subprocess and compares the result. Records present on one
side only are reported but never fail the gate (new benchmarks must be
landable without first rewriting the baseline).

The gate also checks the ``python -m repro reproduce`` wall-clock
trajectory in ``benchmarks/results/bench_runner.json``: the latest
entry is compared against the most recent earlier entry with the
*same profile* — (quick, jobs, cache, backend, batch size) must all
match, so a replayed run is never judged against an interpreter
baseline (or vice versa), cached runs never race uncached ones, and a
batch is never judged against a smaller catalog's. Entries written
before the backend field existed count as ``interpreter``.
``--skip-runner`` disables this check.

Typical use::

    PYTHONPATH=src python scripts/bench_gate.py              # run + compare
    python scripts/bench_gate.py --current fresh.json        # compare only
    python scripts/bench_gate.py --warn-only                 # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = ROOT / "benchmarks" / "results" / "microbench.json"
DEFAULT_RUNNER = ROOT / "benchmarks" / "results" / "bench_runner.json"


def load_records(path: pathlib.Path) -> dict[tuple, dict]:
    """Index a micro.py JSON payload by (name, arch, cpu_model)."""
    payload = json.loads(path.read_text())
    records = {}
    for record in payload.get("benches", []):
        key = (record["name"], record["arch"], record["cpu_model"])
        records[key] = record
    return records


def run_quick_micro() -> pathlib.Path:
    """Run the quick microbenchmarks in a subprocess; return the JSON path."""
    out = pathlib.Path(tempfile.mkdtemp()) / "microbench.json"
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "micro.py"),
            "--quick",
            "--out",
            str(out),
        ],
        check=True,
        cwd=ROOT,
    )
    return out


def compare(
    baseline: dict[tuple, dict],
    current: dict[tuple, dict],
    tolerance: float,
    min_delta: float = 0.05,
) -> list[tuple[str, str]]:
    """Return ``(record_name, message)`` per regression (empty = pass).

    A record regresses only if it is both ``tolerance`` *relatively*
    slower and ``min_delta`` seconds *absolutely* slower — on
    millisecond-sized records a large percentage is pure timer noise.
    """
    regressions = []
    for key in sorted(baseline.keys() | current.keys()):
        label = "/".join(key)
        base = baseline.get(key)
        fresh = current.get(key)
        if base is None:
            print(f"  new bench (no baseline): {label}")
            continue
        if fresh is None:
            print(f"  missing from current run: {label}")
            continue
        base_wall = base["wall_seconds"]
        fresh_wall = fresh["wall_seconds"]
        if base_wall <= 0:
            continue
        ratio = fresh_wall / base_wall
        regressed = (
            ratio > 1 + tolerance and fresh_wall - base_wall > min_delta
        )
        marker = " <-- REGRESSION" if regressed else ""
        print(
            f"  {label:<40} {base_wall:7.3f}s -> {fresh_wall:7.3f}s "
            f"({100 * (ratio - 1):+6.1f}%){marker}"
        )
        if marker:
            regressions.append((
                key[0],
                f"{label}: {base_wall:.3f}s -> {fresh_wall:.3f}s "
                f"({100 * (ratio - 1):+.1f}%, tolerance "
                f"{100 * tolerance:.0f}%)",
            ))
    return regressions


def runner_profile(entry: dict) -> tuple:
    """What must match before two bench_runner entries are comparable.

    The backend defaults to ``interpreter`` for entries written before
    the replay lane existed; replayed and generated runs are different
    experiments at very different speeds, so the gate never compares
    across backends — nor across batches of different sizes (the
    catalog ``repro reproduce`` runs has grown more than once).
    """
    return (
        bool(entry.get("quick")),
        entry.get("jobs"),
        bool(entry.get("cache", True)),
        entry.get("backend", "interpreter"),
        len(entry.get("per_job", ())),
    )


def check_runner_trajectory(
    path: pathlib.Path,
    tolerance: float,
    min_delta: float = 0.5,
) -> list[tuple[str, str]]:
    """Compare the newest bench_runner entry against its own profile.

    Returns regression messages (empty = passes). The newest entry is
    judged only against the *most recent* earlier entry whose
    :func:`runner_profile` matches exactly — trajectory, not
    best-ever, because entries span package versions whose feature
    sets differ. With no comparable history the check passes.
    """
    if not path.exists():
        print(f"no runner baseline at {path}; skipping trajectory check")
        return []
    entries = json.loads(path.read_text())
    if not entries:
        return []
    latest = entries[-1]
    profile = runner_profile(latest)
    quick, jobs, cache, backend, _batch_size = profile
    label = (
        f"{'quick' if quick else 'full'}/jobs={jobs}/"
        f"{'cached' if cache else 'uncached'}/{backend}"
    )
    prior = [e for e in entries[:-1] if runner_profile(e) == profile]
    print(f"runner trajectory ({label}):")
    if not prior:
        print("  no earlier entry with this profile; nothing to compare")
        return []
    previous = prior[-1]
    prev_wall = previous["total_wall_seconds"]
    fresh_wall = latest["total_wall_seconds"]
    if prev_wall <= 0:
        return []
    ratio = fresh_wall / prev_wall
    regressed = ratio > 1 + tolerance and fresh_wall - prev_wall > min_delta
    marker = " <-- REGRESSION" if regressed else ""
    print(
        f"  {previous['when']} {prev_wall:7.3f}s -> "
        f"{latest['when']} {fresh_wall:7.3f}s "
        f"({100 * (ratio - 1):+6.1f}%){marker}"
    )
    if regressed:
        return [(
            "runner",
            f"runner[{label}]: {prev_wall:.3f}s -> {fresh_wall:.3f}s "
            f"({100 * (ratio - 1):+.1f}%, tolerance {100 * tolerance:.0f}%)",
        )]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", metavar="PATH", default=str(DEFAULT_BASELINE),
        help=f"baseline JSON (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--current", metavar="PATH", default=None,
        help="fresh JSON to compare; default: run micro.py --quick now",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15, metavar="FRAC",
        help="allowed slowdown before a record regresses (default 0.15)",
    )
    parser.add_argument(
        "--min-delta", type=float, default=0.05, metavar="SECONDS",
        help="absolute slowdown a regression must also exceed "
             "(default 0.05s; filters timer noise on tiny records)",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but always exit 0 (for noisy CI hosts)",
    )
    parser.add_argument(
        "--enforce", action="append", default=[], metavar="PREFIX",
        help="record-name prefixes whose regressions fail the gate even "
             "under --warn-only (e.g. 'probe_' for the probe-core storms, "
             "which are tight in-process loops and far less noisy than "
             "the end-to-end records)",
    )
    parser.add_argument(
        "--runner-baseline", metavar="PATH", default=str(DEFAULT_RUNNER),
        help=f"bench_runner.json trajectory file (default {DEFAULT_RUNNER})",
    )
    parser.add_argument(
        "--skip-runner", action="store_true",
        help="skip the `repro reproduce` wall-clock trajectory check",
    )
    args = parser.parse_args(argv)

    regressions: list[tuple[str, str]] = []
    baseline_path = pathlib.Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to gate against")
    else:
        current_path = (
            pathlib.Path(args.current) if args.current else run_quick_micro()
        )
        baseline = load_records(baseline_path)
        current = load_records(current_path)
        if json.loads(baseline_path.read_text()).get("quick") != json.loads(
            current_path.read_text()
        ).get("quick"):
            print(
                "warning: baseline and current were recorded at different "
                "sizes (--quick mismatch); wall-time deltas are meaningless"
            )
        print(
            f"bench gate (tolerance {100 * args.tolerance:.0f}% "
            f"and > {args.min_delta:.2f}s):"
        )
        regressions.extend(compare(
            baseline, current, args.tolerance, min_delta=args.min_delta
        ))

    if not args.skip_runner:
        regressions.extend(check_runner_trajectory(
            pathlib.Path(args.runner_baseline), args.tolerance
        ))

    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for _, message in regressions:
            print(f"  {message}")
        enforced = [
            message
            for name, message in regressions
            if any(name.startswith(prefix) for prefix in args.enforce)
        ]
        if args.warn_only and not enforced:
            print("warn-only mode: exiting 0 anyway")
            return 0
        if args.warn_only:
            print(
                f"{len(enforced)} regression(s) match an --enforce prefix; "
                "failing despite --warn-only"
            )
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
