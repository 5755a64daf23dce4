"""Figure 11 — dynamic superscalar (MXS) results.

The paper's most important qualitative finding: once the detailed CPU
model charges the shared-L1 architecture its real 3-cycle hit time and
bank contention, the advantage Mipsy showed "can diminish
substantially":

* multiprogramming — with no sharing to exploit, the cost of sharing a
  cache is pure loss; the shared-memory machine ends up ahead;
* eqntott — the ordering survives but the gap narrows;
* ear — instruction- and data-cache stalls still vanish on shared-L1,
  but the extra hit latency shows up as pipeline stalls; the shared-L2
  architecture gets the same sharing benefit *without* that cost and
  achieves the best IPC overall.

The harness reproduces the IPC bars for the same three applications
and asserts those three statements.
"""

from harness import MAX_CYCLES, report
from repro.core.experiment import run_architecture_comparison
from repro.core.report import normalized_times
from repro.workloads import WORKLOADS

_APPS = ("multiprog", "eqntott", "ear")


def _run_both_models(app):
    mipsy = run_architecture_comparison(
        WORKLOADS[app], cpu_model="mipsy", scale="bench",
        max_cycles=MAX_CYCLES,
    )
    mxs = run_architecture_comparison(
        WORKLOADS[app], cpu_model="mxs", scale="bench",
        max_cycles=MAX_CYCLES,
    )
    return mipsy, mxs


def test_fig11_mxs(benchmark):
    runs = {}

    def once():
        for app in _APPS:
            runs[app] = _run_both_models(app)

    benchmark.pedantic(once, rounds=1, iterations=1)

    for app in _APPS:
        _mipsy, mxs = runs[app]
        report(f"fig11_{app}_mxs", mxs)

    def ipc(results, arch):
        return results[arch].per_cpu_ipc

    # The shared-L1 advantage shrinks under MXS where the paper says it
    # does most: multiprogramming (no sharing to pay for the hit time)
    # and ear (the hit time turns into pipeline stalls). Its relative
    # time moves toward (or past) the shared-memory baseline.
    for app in ("multiprog", "ear"):
        mipsy, mxs = runs[app]
        rel_mipsy = normalized_times(mipsy)["shared-l1"]
        rel_mxs = normalized_times(mxs)["shared-l1"]
        assert rel_mxs > rel_mipsy, (app, rel_mipsy, rel_mxs)

    # Eqntott keeps the Mipsy ordering under MXS (the paper: "the
    # performance of the three architectures stays in the same order").
    _mipsy, eq = runs["eqntott"]
    eq_times = normalized_times(eq)
    assert eq_times["shared-l1"] < eq_times["shared-l2"] < 1.0

    # Ear: shared-L2 achieves the best IPC overall (the paper's
    # concluding MXS result).
    _mipsy, ear_mxs = runs["ear"]
    assert ipc(ear_mxs, "shared-l2") >= ipc(ear_mxs, "shared-l1")
    assert ipc(ear_mxs, "shared-l2") > ipc(ear_mxs, "shared-mem")

    # Multiprogramming: with no sharing to exploit, the shared-L2
    # architecture no longer beats the shared-memory baseline.
    _mipsy, mp_mxs = runs["multiprog"]
    assert ipc(mp_mxs, "shared-l2") <= ipc(mp_mxs, "shared-mem") * 1.1

    # Eqntott: the shared caches still win on wall-clock cycles.
    _mipsy, eq_mxs = runs["eqntott"]
    times = normalized_times(eq_mxs)
    assert times["shared-l1"] < 1.0
    assert times["shared-l2"] < 1.0
