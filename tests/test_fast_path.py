"""Differential proof that the L1 fast lane is behaviorally invisible.

The per-CPU lanes ``MemorySystem.fast_lanes`` hands out must be pure
shortcuts: with ``MemConfig.l1_fast_path`` forced off,
every architecture x CPU model x workload must produce *identical*
statistics — cycle counts, every cache counter, every stall bucket.
Any divergence means the fast lane changed simulated behavior, which
would silently corrupt the paper's figures.
"""

from __future__ import annotations

import pytest

from repro.core.configs import config_for_scale
from repro.core.runner import Job
from repro.workloads import WORKLOADS

ARCHS = ("shared-l1", "shared-l2", "shared-mem")
CPU_MODELS = ("mipsy", "mxs")
WORKLOAD_NAMES = ("eqntott", "fft")
CAP = 2_000_000


def _run_stats(arch: str, cpu_model: str, workload: str, fast: bool):
    result = Job(
        arch,
        WORKLOADS[workload],
        cpu_model=cpu_model,
        scale="test",
        overrides={} if fast else {"l1_fast_path": False},
        max_cycles=CAP,
    ).run()
    return result.stats


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize("arch", ARCHS)
def test_fast_path_is_behaviorally_invisible(arch, cpu_model, workload):
    fast = _run_stats(arch, cpu_model, workload, fast=True)
    slow = _run_stats(arch, cpu_model, workload, fast=False)
    assert fast.cycles == slow.cycles
    assert fast.instructions == slow.instructions
    assert fast.to_dict() == slow.to_dict()


def test_fast_path_default_on():
    assert config_for_scale("test", 4).l1_fast_path is True
    assert config_for_scale("bench", 4).l1_fast_path is True
