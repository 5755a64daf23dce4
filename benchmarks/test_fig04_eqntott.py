"""Figure 4 — Eqntott under Mipsy.

Paper shape: the shared-L1 architecture wins substantially (the
fine-grained master/slave vector comparison communicates every few
hundred instructions), shared-L2 sits between, and the bus-based
shared-memory machine pays a cache-to-cache transfer for every vector
word the master rewrote. The shared-memory L2 miss rate is dominated by
invalidations; the shared-L1 architecture has no invalidation misses at
all (one cache, nothing to invalidate).
"""

from harness import report, run_benchmarked
from repro.core.report import normalized_times


def test_fig04_eqntott(benchmark):
    results = run_benchmarked(benchmark, "eqntott")
    report("fig04_eqntott", results)

    times = normalized_times(results)
    # Who wins, in order — and the baseline loses by a clear margin.
    assert times["shared-l1"] < times["shared-l2"] < 1.0
    assert times["shared-l1"] < 0.8

    # Communication fingerprints.
    stats_sm = results["shared-mem"].stats
    assert stats_sm.c2c_transfers > 0
    l2_sm = stats_sm.aggregate_caches(".l2")
    assert l2_sm.misses_inval > l2_sm.misses_repl  # invalidation-dominated
    l1_sl1 = results["shared-l1"].stats.aggregate_caches(".l1d")
    assert l1_sl1.misses_inval == 0
