"""Figure 9 — the NASA7 FFT kernel under Mipsy.

Paper shape: coarse-grained outer-loop parallelism with little shared
data — the three architectures perform fairly similarly, the shared
caches slightly ahead because the shared-memory machine adds L2R/L2I
misses when transforms and the spectral-exchange pass touch data other
CPUs produced. The transforms are computed for real and validated
against numpy (forward) and round-trip (inverse).
"""

from harness import report, run_benchmarked
from repro.core.report import normalized_times


def test_fig09_fft(benchmark):
    results = run_benchmarked(benchmark, "fft")
    report("fig09_fft", results)

    times = normalized_times(results)
    # All three in the same ballpark...
    for arch, value in times.items():
        assert 0.6 < value < 1.25, (arch, value)
    # ...with the shared caches at least matching the baseline.
    assert times["shared-l1"] <= 1.05
    assert times["shared-l2"] <= 1.1

    # Low miss rates (the per-transform arrays fit the L1s).
    l1_sl1 = results["shared-l1"].stats.aggregate_caches(".l1d")
    assert l1_sl1.miss_rate_repl < 0.12
