"""Figure 6 — Ocean under Mipsy.

Paper shape: Ocean streams subgrids much larger than any L1, so all
three architectures show large L1 replacement-miss traffic and the
differences are small. The shared-L1 machine ends slightly ahead of
shared-memory; the shared-L2 machine is hurt by its higher L2 hit time
and the write-through/port-bandwidth costs and lands behind shared-L1,
close to the shared-memory baseline. Communication (subgrid boundaries)
is a thin slice of the misses.

Run at the 1/4 cache scale (see harness.BENCH_OVERRIDES) so the
boundary-to-area ratio stays small, as in the paper's 130x130 grid.
"""

from harness import report, run_benchmarked
from repro.core.report import normalized_times


def test_fig06_ocean(benchmark):
    results = run_benchmarked(benchmark, "ocean")
    report("fig06_ocean", results)

    times = normalized_times(results)
    # Differences are modest; shared-L1 slightly ahead, shared-L2 the
    # worst of the two shared-cache designs.
    assert 0.7 < times["shared-l1"] < 1.0
    assert times["shared-l1"] < times["shared-l2"]
    assert times["shared-l2"] > 0.85

    # High replacement-miss rates everywhere; communication small.
    for arch, result in results.items():
        l1 = result.stats.aggregate_caches(".l1d")
        assert l1.miss_rate_repl > 0.03, arch
        assert l1.miss_rate_inval < l1.miss_rate_repl / 2, arch
