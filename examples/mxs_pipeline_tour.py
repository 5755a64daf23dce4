#!/usr/bin/env python3
"""Mipsy vs. MXS: what dynamic scheduling changes (paper Section 4.4).

Runs Ear — the most fine-grained application — under both CPU models on
all three architectures and prints:

* the Mipsy execution-time ranking (Figure 8), where the shared-L1
  architecture is modeled optimistically (1-cycle hits, no bank
  contention) and wins decisively;
* the MXS IPC breakdown (Figure 11), where the real 3-cycle shared-L1
  hit time and bank contention are charged as pipeline stalls and eat a
  large part of that advantage, while the shared-L2 design keeps its
  gains.

Usage:
    python examples/mxs_pipeline_tour.py [scale]
"""

import sys

from repro.core.report import (
    format_breakdown_table,
    format_ipc_table,
    normalized_times,
)
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison


def main() -> int:
    scale = sys.argv[1] if len(sys.argv) > 1 else "test"

    print("Step 1: the simple in-order model (Mipsy, shared-L1 optimism)")
    mipsy = run_architecture_comparison(Job(
        arch="shared-mem", workload="ear", cpu_model="mipsy", scale=scale,
        max_cycles=30_000_000,
    ))
    print(format_breakdown_table(mipsy, title="Ear under Mipsy"))
    mipsy_times = normalized_times(mipsy)

    print()
    print("Step 2: the dynamic superscalar model (MXS, 2-way issue,")
    print("32-entry window/ROB, 1024-entry BTB, 4 MSHRs, real 3-cycle")
    print("shared-L1 hits + bank contention)")
    mxs = run_architecture_comparison(Job(
        arch="shared-mem", workload="ear", cpu_model="mxs", scale=scale,
        max_cycles=30_000_000,
    ))
    print(format_ipc_table(mxs, title="Ear under MXS (ideal IPC = 2)"))
    mxs_times = normalized_times(mxs)

    print()
    print(f"{'arch':<12}{'Mipsy time':>12}{'MXS time':>12}{'shift':>9}")
    for arch in mipsy_times:
        shift = mxs_times[arch] / mipsy_times[arch]
        print(f"{arch:<12}{mipsy_times[arch]:>12.3f}"
              f"{mxs_times[arch]:>12.3f}{shift:>9.2f}")
    print()
    print("The shared-L1 bar moves the most: the cost of sharing the")
    print("primary cache only appears once the detailed model charges")
    print("the crossbar hit time — the paper's central MXS finding.")

    mispredicts = sum(m.mispredicts for m in mxs["shared-l1"].stats.mxs)
    branches = sum(m.branches for m in mxs["shared-l1"].stats.mxs)
    print(f"(branch prediction on shared-l1: {branches} branches, "
          f"{mispredicts} mispredicts, "
          f"{100 * mispredicts / max(branches, 1):.1f}% miss rate)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
