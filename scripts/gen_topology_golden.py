#!/usr/bin/env python
"""Regenerate the golden stats for the topology differential suite.

Runs every paper preset x CPU model x {eqntott, fft} at test scale and
dumps the full ``SystemStats.to_dict()`` payload to
``tests/data/topology_golden.json``. The file committed in the repo was
produced by the pre-refactor string-dispatch code; the differential
suite (``tests/test_topology_regression.py``) asserts the composable
topology engine reproduces it bit-for-bit.

``--check`` regenerates to memory and exits non-zero when the result
differs from the committed file. Only rerun without it to *extend* the
matrix (new workloads/scales) — never to paper over a mismatch, which
is exactly the regression the suite exists to catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _golden import settle, wants_check
from repro.core.configs import ARCHITECTURES, CPU_MODELS, config_for_scale
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.workloads import WORKLOADS

GOLDEN_WORKLOADS = ("eqntott", "fft")
SCALE = "test"
N_CPUS = 4


def run_case(arch: str, cpu_model: str, workload_name: str) -> dict:
    config = config_for_scale(SCALE, N_CPUS)
    workload = WORKLOADS[workload_name](N_CPUS, FunctionalMemory(), SCALE)
    system = System(arch, workload, cpu_model=cpu_model, mem_config=config)
    stats = system.run()
    return stats.to_dict()


def main(argv: list[str]) -> int:
    check = wants_check(argv)
    golden: dict[str, dict] = {}
    for arch in ARCHITECTURES:
        for cpu_model in CPU_MODELS:
            for workload_name in GOLDEN_WORKLOADS:
                key = f"{arch}/{cpu_model}/{workload_name}"
                print(f"running {key} ...", flush=True)
                golden[key] = run_case(arch, cpu_model, workload_name)
    text = json.dumps(
        {"scale": SCALE, "n_cpus": N_CPUS, "cases": golden},
        indent=1,
        sort_keys=True,
    )
    target = (
        Path(__file__).resolve().parent.parent
        / "tests"
        / "data"
        / "topology_golden.json"
    )
    return settle({target: (text + "\n").encode("utf-8")}, check)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
