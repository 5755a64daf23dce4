#!/usr/bin/env python3
"""Quickstart: compare the three multiprocessor architectures.

Runs the paper's Eqntott workload (fine-grained master/slave bit-vector
comparison) on the shared-L1, shared-L2 and shared-memory architectures
with the simple Mipsy CPU model, and prints the normalized
execution-time breakdown and miss-rate tables of Figure 4.

Usage:
    python examples/quickstart.py [workload] [scale]

    workload: eqntott (default), mp3d, ocean, volpack, ear, fft, multiprog
    scale:    test (default, seconds) or bench (tens of seconds)
"""

import sys

from repro.core.report import (
    format_breakdown_table,
    format_miss_rate_table,
    normalized_times,
)
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison
from repro.workloads import WORKLOADS


def main() -> int:
    workload = sys.argv[1] if len(sys.argv) > 1 else "eqntott"
    scale = sys.argv[2] if len(sys.argv) > 2 else "test"
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}")
        return 1

    print(f"Running {workload!r} at {scale!r} scale on all three "
          "architectures (Mipsy CPU model)...")
    results = run_architecture_comparison(Job(
        arch="shared-mem",
        workload=workload,
        cpu_model="mipsy",
        scale=scale,
        max_cycles=30_000_000,
    ))

    print()
    print(format_breakdown_table(
        results, title=f"{workload}: execution time (shared-mem = 1.0)"
    ))
    print()
    print(format_miss_rate_table(
        results, title=f"{workload}: local miss rates"
    ))
    print()
    times = normalized_times(results)
    winner = min(times, key=times.get)
    print(f"fastest architecture: {winner} "
          f"({1 / times[winner]:.2f}x the shared-memory baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
