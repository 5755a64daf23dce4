"""Turn a pass's outcomes into ledger entries, and check them.

Three kinds of number come out of here:

* end-to-end metrics, from the untraced pass only;
* per-layer metrics, from the traced pass: span self times, the
  modelled machine's own event counts, and the home workload's
  micro-drives (:mod:`drives`);
* the correctness verdict: every job's ``SystemStats`` digest against
  ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path

from repro.core.experiment import ExperimentResult
from repro.core.paper import PAPER_EXPECTATIONS, check_figure

import drives
import hostspeed
import matrix
from passes import Context, Outcome

Metrics = dict[str, tuple[float, str]]

EXPECTED_PATH = Path(__file__).with_name("expected.json")

SERVICE = ("service_cold", "service_hit")


def scaled(metrics: Metrics, factor: float) -> Metrics:
    """Durations (by unit) put on the reference host speed."""
    return {
        name: (value * factor if unit in ("s", "ms", "ns") else value, unit)
        for name, (value, unit) in metrics.items()
    }


def merge(into: Metrics, new: Metrics) -> None:
    """Add ``new`` entries; a name may be emitted only once."""
    clash = set(into) & set(new)
    if clash:
        raise RuntimeError(f"metric(s) emitted twice: {sorted(clash)}")
    into.update(new)


# ----------------------------------------------------------------------
# correctness


def stats_digest(stats) -> str:
    """SHA-256 of the canonical JSON of ``SystemStats.to_dict()``."""
    text = json.dumps(
        stats.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def verify(outcomes: list[Outcome], expected: dict) -> dict:
    """Count attempted / failed / unverified jobs of one pass.

    A job fails when it raised, timed out, ended in a non-``done`` /
    ``cached`` state, was truncated, or produced statistics whose
    digest differs from the committed one. A job with no committed
    digest is *unverified*: it ran, but nothing vouches for it.
    """
    digests = expected.get("digests", {})
    failed = unverified = 0
    problems = []
    for outcome in outcomes:
        if outcome.error is not None or outcome.stats is None:
            failed += 1
            problems.append(f"{outcome.job_id}: {outcome.error}")
            continue
        want = digests.get(outcome.job_id)
        if want is None:
            unverified += 1
        elif stats_digest(outcome.stats) != want:
            failed += 1
            problems.append(f"{outcome.job_id}: stats digest mismatch")
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "unverified": unverified,
        "problems": problems,
    }


def claims_held(outcomes: list[Outcome], scale: str) -> tuple[int, int]:
    """How many of the paper's Section 4 claims hold on these results.

    The repository's only reference data are the paper's qualitative
    claims, so this is the ledger's accuracy figure; no numeric error
    against the paper is stated anywhere.
    """
    by_app: dict[str, dict] = {}
    for outcome in outcomes:
        app, arch = outcome.job_id.split("/")[:2]
        if outcome.stats is not None:
            by_app.setdefault(app, {})[arch] = ExperimentResult(
                arch, app, "mipsy", scale, outcome.stats
            )
    held = total = 0
    for figure, expectation in PAPER_EXPECTATIONS.items():
        results = by_app.get(expectation.workload, {})
        if len(results) < len(matrix.PAPER_PRESETS):
            total += len(expectation.checks)
            continue
        for _, ok, _ in check_figure(results, figure):
            held += bool(ok)
            total += 1
    return held, total


# ----------------------------------------------------------------------
# end to end


def distinct(outcomes: list[Outcome]) -> list[Outcome]:
    """First successful outcome per job id (rounds repeat the matrix)."""
    seen: dict[str, Outcome] = {}
    for outcome in outcomes:
        if outcome.stats is not None:
            seen.setdefault(outcome.job_id, outcome)
    return list(seen.values())


def end_to_end(
    name: str,
    scale: str,
    outcomes: list[Outcome],
    verdict: dict,
    setup_s: float,
    wall_raw_s: float,
    cpu_raw_s: float,
    peak_rss_mb: float,
    host_factor: float,
) -> tuple[Metrics, dict]:
    """The untraced pass's metrics, and the exact (must-be-identical)
    values beside them. A metric that does not apply to the workload is
    left out, never reported as 0.

    Host-time metrics are scaled by ``host_factor`` to the reference
    host speed (see :mod:`hostspeed`); ``setup_s`` arrives scaled, and
    the unscaled wall and CPU seconds are kept as ``*_raw_s``.
    """
    wall_s = wall_raw_s * host_factor
    out: Metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_raw_s * host_factor, "s"),
        "jobs_per_s": (len(outcomes) / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_raw_s": (wall_raw_s, "s"),
        "cpu_raw_s": (cpu_raw_s, "s"),
        "host_mops": (host_factor * hostspeed.REFERENCE_MOPS, "Mops"),
        "failed_frac": (
            verdict["failed"] / max(verdict["attempted"], 1), "ratio"
        ),
    }
    exact: dict = {
        metric: value for metric, (value, _) in model_counts(outcomes).items()
    }
    if name != "service_hit":
        instructions = sum(
            o.stats.instructions for o in outcomes if o.stats is not None
        )
        out["sim_kips"] = (instructions / wall_s / 1e3, "kinstr/s")
        exact["sim_cycles"] = sum(
            o.stats.cycles for o in distinct(outcomes)
        )
    if name in SERVICE:
        out["req_p50_ms"] = (
            statistics.median(o.latency_s for o in outcomes)
            * host_factor * 1e3,
            "ms",
        )
    if name == "fig_sweep_mipsy":
        held, total = claims_held(outcomes, scale)
        exact["claims_held_frac"] = held / total
    return out, exact


# ----------------------------------------------------------------------
# per layer


def model_counts(outcomes: list[Outcome]) -> Metrics:
    """The modelled components' own event counts and cycle buckets,
    summed over the distinct jobs: exact, and what host time should
    scale with."""
    totals = dict.fromkeys(
        (
            "l1d_accesses", "l1d_miss_repl", "l1d_miss_inval",
            "l2_accesses", "l2_misses", "c2c_transfers",
        ),
        0,
    )
    buckets = dict.fromkeys(
        ("busy", "istall", "l1d", "l2", "mem", "c2c", "storebuf"), 0
    )
    bus_util = bank_util = 0.0
    for outcome in distinct(outcomes):
        stats = outcome.stats
        l1 = stats.aggregate_caches(".l1d")
        l2 = stats.aggregate_caches(".l2")
        totals["l1d_accesses"] += l1.accesses
        totals["l1d_miss_repl"] += l1.misses_repl
        totals["l1d_miss_inval"] += l1.misses_inval
        totals["l2_accesses"] += l2.accesses
        totals["l2_misses"] += l2.misses
        totals["c2c_transfers"] += stats.c2c_transfers
        for key, value in stats.aggregate_breakdown().as_dict().items():
            buckets[key] += value
        for resource, value in outcome.resources.items():
            if resource == "bus":
                bus_util = max(bus_util, value)
            elif resource.startswith("l1.bank"):
                bank_util = max(bank_util, value)
    out: Metrics = {
        f"mem.{key}": (value, "count") for key, value in totals.items()
    }
    out["mem.bus_util_max"] = (bus_util, "ratio")
    out["mem.xbar_bank_util_max"] = (bank_util, "ratio")
    for key, value in buckets.items():
        name = "cpu.busy_cycles" if key == "busy" else f"mem.stall.{key}"
        out[name] = (value, "cycles")
    return out


def _self_s(by_name: dict, span_name: str) -> float:
    """Summed self time of every span called ``span_name``."""
    return by_name.get(span_name, {}).get("self_s", 0.0)


def span_layers(
    by_name: dict, attempted: int, traced_wall_s: float, state: dict
) -> Metrics:
    """Host time by layer from the traced pass's spans.

    Emitted by every workload; a layer the workload bypasses reads 0,
    which is the prediction a change to that layer is checked against.
    """

    def self_s(span_name: str) -> float:
        return _self_s(by_name, span_name)

    counters = state.get("counters", {})
    trace_dir = state.get("trace_dir")
    polls = by_name.get("serve.status", {}).get("count", 0)
    return {
        "workloads.build_s": (self_s("workloads.build"), "s"),
        "core.system.build_s": (self_s("core.system.build"), "s"),
        "core.system.run_s": (self_s("core.system.run"), "s"),
        "core.system.run_share": (
            self_s("core.system.run") / traced_wall_s, "ratio"
        ),
        "trace.record_s": (self_s("trace.record"), "s"),
        "trace.sidecar_load_s": (self_s("trace.load_packed"), "s"),
        "trace.kernel_s": (self_s("trace.kernel"), "s"),
        "trace.store_hits": (counters.get("hits", 0), "count"),
        "trace.store_misses": (counters.get("misses", 0), "count"),
        "trace.mb_on_disk": (
            drives.dir_bytes(trace_dir) / 1e6 if trace_dir else 0.0, "MB"
        ),
        "serve.submit_ms": (
            self_s("serve.submit") * 1e3 / attempted, "ms"
        ),
        "serve.result_ms": (
            self_s("serve.result") * 1e3 / attempted, "ms"
        ),
        "serve.polls_per_job": (polls / attempted, "count"),
    }


def _service_layers(
    name: str, by_name: dict, outcomes: list[Outcome], state: dict
) -> Metrics:
    """What the status documents and request latencies say about where
    a service request's time went."""
    status = by_name.get("serve.status", {"count": 0, "self_s": 0.0})
    done = [o for o in outcomes if o.error is None]
    out: Metrics = {
        "serve.daemon_start_ms": (state["daemon_start_s"] * 1e3, "ms"),
        "serve.shutdown_ms": (state["shutdown_s"] * 1e3, "ms"),
        "serve.status_ms": (
            status["self_s"] * 1e3 / max(status["count"], 1), "ms"
        ),
        "serve.result_kb": (
            statistics.mean(o.info["result_bytes"] for o in done) / 1024,
            "KB",
        ),
    }
    if name == "service_cold":
        docs = [o.info["status"] for o in done]
        out["serve.queue_wait_ms"] = (
            statistics.mean(
                d["started_at"] - d["submitted_at"] for d in docs
            ) * 1e3,
            "ms",
        )
        out["serve.run_ms"] = (
            statistics.mean(
                d["finished_at"] - d["started_at"] for d in docs
            ) * 1e3,
            "ms",
        )
        out["serve.overhead_ms"] = (
            statistics.mean(o.latency_s - o.run_s for o in done) * 1e3,
            "ms",
        )
    else:
        latencies = sorted(o.latency_s for o in done)
        out["serve.disk_hit_ms"] = (
            statistics.median(
                o.latency_s for o in done if not o.info["reused"]
            ) * 1e3,
            "ms",
        )
        reused = [o.latency_s for o in done if o.info["reused"]]
        if reused:  # a single round has no repeats
            out["serve.dedup_hit_ms"] = (
                statistics.median(reused) * 1e3, "ms"
            )
        out["serve.hit_p95_ms"] = (
            latencies[int(0.95 * (len(latencies) - 1))] * 1e3, "ms"
        )
    return out


def per_layer(
    name: str, ctx: Context, by_name: dict, traced, untraced
) -> Metrics:
    """Every per-layer entry of one workload's traced pass.

    ``traced`` and ``untraced`` are the two passes (``run.Pass``):
    ``wall_s`` in raw seconds, ``factor`` putting it (and every span)
    on the reference host speed. Inside the drives each timed call is
    scaled by the speed around it.
    """
    outcomes, state = traced.outcomes, traced.state
    traced_wall_s, host_factor = traced.wall_s, traced.factor
    untraced_s = untraced.wall_s * untraced.factor
    out: Metrics = {
        "tracing_overhead_ratio": (
            traced_wall_s * host_factor / untraced_s, "ratio"
        ),
    }
    merge(out, scaled(
        span_layers(by_name, len(outcomes), traced_wall_s, state),
        host_factor,
    ))
    merge(out, model_counts(outcomes))

    def self_s(span_name: str) -> float:
        return _self_s(by_name, span_name) * host_factor

    run_s = self_s("core.system.run")
    kernel_s = self_s("trace.kernel")
    done = distinct(outcomes)
    if name == "fig_sweep_mipsy":
        instructions = sum(o.stats.instructions for o in done)
        merge(out, {
            "cpu.mipsy.ns_per_instr": (run_s * 1e9 / instructions, "ns"),
        })
        merge(out, drives.isa_emit(ctx))
        merge(out, drives.generator_and_loop_bounds(ctx, run_s))
        merge(out, drives.ckpt_costs(ctx))
        merge(out, drives.obs_costs(ctx))
    elif name == "fig_sweep_mxs":
        cycles = sum(o.stats.cycles for o in done)
        ipcs = [
            statistics.mean(m.ipc for m in o.stats.mxs if m.cycles)
            for o in done
        ]
        merge(out, {
            "cpu.mxs.ns_per_cycle": (run_s * 1e9 / cycles, "ns"),
            "cpu.mxs.ipc_mean": (statistics.mean(ipcs), "ipc"),
        })
        merge(out, drives.mxs_over_mipsy(ctx, run_s))
    elif name == "coherence_storm":
        merge(out, drives.mem_probes(ctx))
        merge(out, drives.sim_engine(ctx))
        merge(out, drives.stats_roundtrip([o.stats for o in done]))
    elif name == "replay_warm":
        references = state["counters"]["references"]
        merge(out, {
            "trace.kernel_ns_per_ref": (kernel_s * 1e9 / references, "ns"),
        })
        # the drive pushes each stream once; the pass replays it per round
        merge(out, drives.mem_drive(
            ctx, state["trace_dir"], kernel_s * len(done) / len(outcomes)
        ))
    elif name == "replay_cold":
        merge(out, drives.trace_record_and_decode(
            ctx, state["trace_dir"], self_s("trace.record")
        ))
    elif name in SERVICE:
        layers = _service_layers(name, by_name, outcomes, state)
        # shutdown is a fixed wait, not work: host speed does not move it
        shutdown = {"serve.shutdown_ms": layers.pop("serve.shutdown_ms")}
        merge(out, scaled(layers, host_factor))
        merge(out, shutdown)
        if name == "service_cold":
            merge(out, drives.runner_costs(ctx, untraced_s))
    return out
