"""Figure 8 — Ear under Mipsy.

Paper shape: the most fine-grained program in the study. On the
shared-L1 architecture there are almost no memory-system stalls at all
(the whole working set lives in the one cache); the private-L1
architectures show the highest L1 invalidation miss rate of any
application, because every filter phase reads channel state the
previous phase wrote on a different CPU. Shared-L2 is considerably
better than shared-memory but clearly behind shared-L1.
"""

from harness import report, run_benchmarked
from repro.core.report import normalized_times


def test_fig08_ear(benchmark):
    results = run_benchmarked(benchmark, "ear")
    report("fig08_ear", results)

    times = normalized_times(results)
    assert times["shared-l1"] < times["shared-l2"] < 1.0
    assert times["shared-l1"] < 0.7

    # Near-zero memory stalls on shared-L1.
    breakdown = results["shared-l1"].stats.aggregate_breakdown()
    assert breakdown.memory_stall < 0.15 * breakdown.total

    # Highest L1I of the suite on the private-cache architectures: at
    # least, invalidations are a substantial part of their L1 misses.
    l1_sm = results["shared-mem"].stats.aggregate_caches(".l1d")
    assert l1_sm.misses_inval > 0.3 * l1_sm.misses_repl
