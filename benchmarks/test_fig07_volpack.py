"""Figure 7 — Volpack under Mipsy.

Paper shape: a compact working set (about 1% L1 replacement misses,
negligible L1 invalidations) makes the two shared-cache architectures
perform similarly, both somewhat ahead of the shared-memory machine,
which pays a visible L2 invalidation component for the intermediate
image rows that move between CPUs (task stealing + the warp step).
"""

from harness import report, run_benchmarked
from repro.core.report import normalized_times


def test_fig07_volpack(benchmark):
    results = run_benchmarked(benchmark, "volpack")
    report("fig07_volpack", results)

    times = normalized_times(results)
    assert times["shared-l1"] < 1.0
    assert times["shared-l2"] < 1.0
    # The two shared-cache designs are close to each other relative to
    # their distance from the baseline.
    assert abs(times["shared-l1"] - times["shared-l2"]) < 0.45

    # Small working set: low replacement rate on the shared L1.
    l1_sl1 = results["shared-l1"].stats.aggregate_caches(".l1d")
    assert l1_sl1.miss_rate_repl < 0.04
    # Shared-memory pays L2 invalidations for the shared image rows.
    l2_sm = results["shared-mem"].stats.aggregate_caches(".l2")
    assert l2_sm.misses_inval > 0
