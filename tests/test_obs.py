"""Tests for the observability subsystem (repro.obs).

The load-bearing property is the overhead contract: the observed run
is the measured run. Attaching observability changes neither a
simulated statistic nor the code path — the L1 fast lane, Mipsy's
compute-run batching and its spin elision and parking all stay on —
and what it records equals what the stepped reference run (CPUs that
may not run ahead of the loop, ``cpu._batchable = False``) records.
On top of that: the Perfetto trace must be schema-valid with
monotonic timestamps per track, the sampler's series must cover
exactly ``cycles // interval`` boundaries, and the shadow crossbar
must surface the bank contention the optimistic shared-L1 path hides.
"""

from __future__ import annotations

import json

import pytest

from conftest import SharingWorkload
from test_spin_elision import FACTORIES, PARKING

from repro.cli import main
from repro.core.runner import Job, Runner
from repro.core.configs import config_for_scale
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import topology_names
from repro.obs import (
    DEFAULT_SAMPLE_INTERVAL,
    EventTimeline,
    ObsConfig,
    Registry,
    UtilizationSampler,
    validate_trace,
)
from repro.obs.report import format_phase_table, phase_means
from repro.workloads import WORKLOADS

ARCHS = ("shared-l1", "shared-l2", "shared-mem")
CPU_MODELS = ("mipsy", "mxs")
CAP = 2_000_000

#: eqntott on the shared L1, the observed run these tests look at
EQNTOTT_L1 = Job("shared-l1", "eqntott", max_cycles=CAP)


def _observed(sample_interval):
    """The live observed system (full sampler series, not the rollup
    a result carries) and its statistics."""
    system = EQNTOTT_L1.build(obs=ObsConfig(sample_interval=sample_interval))
    return system, system.run()


# ----------------------------------------------------------------------
# registry


def test_counter_and_gauge():
    registry = Registry()
    counter = registry.counter("x")
    counter.inc()
    counter.inc(4)
    registry.gauge("g").set(7)
    assert registry.counter("x") is counter
    snap = registry.snapshot()
    assert snap["counters"] == {"x": 5}
    assert snap["gauges"] == {"g": 7}


def test_histogram_buckets_are_log2():
    registry = Registry()
    hist = registry.histogram("h")
    for value in (0, 1, 2, 3, 4, 1000):
        hist.observe(value)
    assert hist.count == 6
    assert hist.total == 1010
    assert hist.mean == pytest.approx(1010 / 6)
    # 0 -> "0", 1 -> "1-1", 2..3 -> "2-3", 4 -> "4-7", 1000 -> "512-1023".
    assert hist.nonzero_buckets() == {
        "0": 1, "1-1": 1, "2-3": 2, "4-7": 1, "512-1023": 1,
    }


# ----------------------------------------------------------------------
# sampler


def test_sampler_series_cover_every_interval():
    sampler = UtilizationSampler(100)
    ticks = {"n": 0}
    sampler.add_rate("ticks", lambda: ticks["n"])
    sampler.add_gauge("level", lambda: 3)
    for cycle in range(0, 950):
        if cycle >= sampler.next_boundary:
            sampler.sample_until(cycle)
        ticks["n"] += 1
    sampler.finalize(950)
    assert sampler.n_samples == 950 // 100
    assert sampler.boundaries == [100 * (i + 1) for i in range(9)]
    assert sampler.series["ticks"] == pytest.approx([1.0] * 9)
    assert sampler.series["level"] == [3] * 9


def test_sampler_rollup_mean_max():
    sampler = UtilizationSampler(10)
    values = iter([5, 15])
    total = {"n": 0}

    def probe():
        return total["n"]

    sampler.add_rate("r", probe)
    total["n"] = 5
    sampler.sample_until(10)
    total["n"] = 20
    sampler.sample_until(20)
    rollup = sampler.rollup()
    assert rollup["r"]["mean"] == pytest.approx(1.0)
    assert rollup["r"]["max"] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# timeline


def test_timeline_drops_beyond_max_events():
    timeline = EventTimeline(max_events=2)
    track = timeline.track("cpu0")
    timeline.emit(track, "a", "mem", 1, 5)
    timeline.emit(track, "b", "mem", 2, 5)
    timeline.emit(track, "c", "mem", 3, 5)
    assert timeline.emitted == 2
    assert timeline.dropped == 1
    data = timeline.to_chrome("x")
    xs = [ev for ev in data["traceEvents"] if ev["ph"] == "X"]
    assert [ev["name"] for ev in xs] == ["a", "b"]


def test_validate_trace_accepts_own_output(tmp_path):
    timeline = EventTimeline()
    a = timeline.track("cpu0")
    b = timeline.track("bus")
    # Emitted out of order on purpose: export sorts per track.
    timeline.emit(a, "late", "mem", 50, 3)
    timeline.emit(b, "bus", "bus", 10, 2)
    timeline.emit(a, "early", "mem", 5, 1)
    path = tmp_path / "trace.json"
    timeline.write(path, "label")
    assert validate_trace(path) == []


def test_validate_trace_flags_broken_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [
        {"name": "a", "cat": "c", "ph": "X", "ts": 5, "dur": 1,
         "pid": 1, "tid": 1},
        {"name": "b", "cat": "c", "ph": "X", "ts": 2, "dur": 1,
         "pid": 1, "tid": 1},
    ]}))
    errors = validate_trace(bad)
    assert errors and any("monotonic" in e or "ts" in e for e in errors)
    bad.write_text("[]")
    assert validate_trace(bad)
    bad.write_text("not json")
    assert validate_trace(bad)


# ----------------------------------------------------------------------
# the overhead contract: observation changes no statistic


def _stats(arch, cpu_model, obs):
    result = Job(
        arch,
        WORKLOADS["eqntott"],
        cpu_model=cpu_model,
        scale="test",
        max_cycles=CAP,
    ).run(obs=obs)
    return result


@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize("arch", ARCHS)
def test_observation_is_behaviorally_invisible(arch, cpu_model):
    plain = _stats(arch, cpu_model, None)
    observed = _stats(
        arch, cpu_model, ObsConfig(sample_interval=500, events=True)
    )
    assert observed.stats.cycles == plain.stats.cycles
    assert observed.stats.to_dict() == plain.stats.to_dict()
    assert "obs" in observed.extras
    assert "obs" not in plain.extras


#: the workloads of the stepped-reference differential: few waits, a
#: coherence storm with barriers, a lock every CPU fights for
OBSERVED = ("eqntott", "storm", "locked-counter")


def _observed_run(arch, cpu_model, workload, stepped=False, obs=True):
    system = System(
        arch,
        FACTORIES[workload](4, FunctionalMemory(), "test"),
        cpu_model=cpu_model,
        mem_config=config_for_scale("test", 4),
        max_cycles=CAP,
        obs=ObsConfig(sample_interval=250, events=True) if obs else None,
    )
    if stepped:
        # The one stepped path: CPUs that may not run ahead of the loop.
        for cpu in system.cpus:
            cpu._batchable = False
    system.run()
    return system


def _recorded(system) -> dict:
    obs = system.obs
    return {
        "stats": system.stats.to_dict(),
        "boundaries": obs.sampler.boundaries,
        "series": obs.sampler.series,
        "metrics": obs.registry.snapshot(),
        "events": obs.timeline._events,
        "tracks": obs.timeline._tracks,
        "log": obs.run_log,
    }


@pytest.mark.parametrize("workload", OBSERVED)
@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize("arch", topology_names())
def test_observed_run_equals_its_stepped_reference(arch, cpu_model, workload):
    """Sampling every 250 cycles and recording every event, the
    default run — lanes, batching, elision and parking on — records
    exactly what the stepped run does, and simulates what the
    unobserved run does."""
    observed = _observed_run(arch, cpu_model, workload)
    recorded = _recorded(observed)
    stepped = _observed_run(arch, cpu_model, workload, stepped=True)
    assert recorded == _recorded(stepped)
    plain = _observed_run(arch, cpu_model, workload, obs=False)
    assert recorded["stats"] == plain.stats.to_dict()
    assert any(event[2] == "sync" for event in recorded["events"])
    assert observed.obs.waits == {}
    if cpu_model == "mipsy" and arch in PARKING:
        assert observed.spin_report()["parks"] > 0
    assert stepped.spin_report()["parks"] == 0


def test_sync_wait_is_a_spin_episode_named_after_its_region():
    system = _observed_run("shared-mem", "mipsy", "locked-counter")
    waits = [event for event in system.obs.timeline._events
             if event[2] == "sync"]
    assert {event[1] for event in waits} == {"sc.lock.acquire"}
    hist = system.obs.registry.snapshot()["histograms"]["sync.wait"]
    assert hist["count"] == len(waits)
    # Every episode spans at least one failed iteration and the read
    # that ended it: two cycles or more.
    assert min(event[4] for event in waits) >= 2


def test_obs_rollup_shape_and_series_length():
    system, stats = _observed(250)
    sampler = system.obs.sampler
    expected = stats.cycles // 250
    assert sampler.n_samples == expected
    for name, series in sampler.series.items():
        assert len(series) == expected, name
    rollup = system.obs.rollup()
    assert rollup["sample_interval"] == 250
    assert rollup["samples"] == expected
    assert set(rollup) >= {"utilization", "metrics", "log"}
    events = [entry["event"] for entry in rollup["log"]]
    assert events[0] == "run.start" and events[-1] == "run.end"


def test_shadow_crossbar_reports_hidden_contention():
    # The acceptance scenario: eqntott, shared-L1, Mipsy. The
    # optimistic timing never consults the crossbar, so non-zero
    # conflict and bank-occupancy numbers can only come from the
    # obs-only shadow crossbar.
    system, stats = _observed(250)
    util = system.obs.rollup()["utilization"]
    assert util["l1.xbar.conflict"]["mean"] > 0
    assert util["l1.xbar.grants"]["mean"] > 0
    assert sum(
        util[f"l1.bank{i}.busy"]["mean"] for i in range(4)
    ) > 0
    # ... and none of it altered the simulated machine.
    plain = Job(
        "shared-l1", WORKLOADS["eqntott"], scale="test", max_cycles=CAP
    ).run()
    assert stats.to_dict() == plain.stats.to_dict()


def test_observed_trace_is_perfetto_valid(tmp_path):
    path = tmp_path / "events.json"
    EQNTOTT_L1.run(obs=ObsConfig(sample_interval=500, events_path=str(path)))
    assert validate_trace(path) == []
    data = json.loads(path.read_text())
    xs = [ev for ev in data["traceEvents"] if ev["ph"] == "X"]
    assert xs
    # One metadata track name per CPU at minimum.
    names = {
        ev["args"]["name"]
        for ev in data["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    assert {"cpu0", "cpu1", "cpu2", "cpu3"} <= names
    # Timestamps are monotonic within each (pid, tid) track.
    last = {}
    for ev in xs:
        key = (ev["pid"], ev["tid"])
        assert ev["ts"] >= last.get(key, 0)
        last[key] = ev["ts"]


def test_sync_waits_recorded_for_contended_barrier():
    functional = FunctionalMemory()
    workload = SharingWorkload(4, functional)
    system = System(
        "shared-l2",
        workload,
        mem_config=config_for_scale("test", 4),
        max_cycles=CAP,
        obs=ObsConfig(sample_interval=500, events=True),
    )
    system.run()
    hists = system.obs.registry.snapshot()["histograms"]
    assert "sync.wait" in hists
    assert hists["sync.wait"]["count"] > 0


def test_phase_means_partition_the_run():
    system, _stats = _observed(250)
    sampler = system.obs.sampler
    ends, means = phase_means(sampler, 4)
    assert len(ends) <= 4
    for row in means.values():
        assert len(row) == len(ends)
    table = format_phase_table(sampler, phases=4)
    assert "cpu0.busy" in table
    assert "l1.xbar.conflict" in table


# ----------------------------------------------------------------------
# runner / report plumbing


def test_job_obs_sample_flows_through_runner():
    job = Job(
        arch="shared-l1",
        workload="eqntott",
        scale="test",
        max_cycles=CAP,
        obs_sample=500,
    )
    assert job.spec()["obs_sample"] == 500
    report = Runner(jobs=1).run([job])
    result = report.outcomes[0].result
    assert result.extras["obs"]["sample_interval"] == 500
    per_job = report.to_dict()["per_job"][0]
    assert per_job["obs"]["sample_interval"] == 500
    assert per_job["obs"]["utilization"]


def test_obs_rollup_survives_the_result_cache(tmp_path):
    from repro.core.runner import ResultCache

    job = Job(
        arch="shared-l1",
        workload="eqntott",
        scale="test",
        max_cycles=CAP,
        obs_sample=500,
    )
    cache = ResultCache(tmp_path / "cache")
    first = Runner(jobs=1, cache=cache).run([job])
    second = Runner(jobs=1, cache=cache).run([job])
    assert second.cache_hits == 1
    assert (
        second.outcomes[0].result.extras["obs"]["utilization"]
        == first.outcomes[0].result.extras["obs"]["utilization"]
    )
    # Unobserved jobs hash differently: no cross-contamination.
    plain = Job(
        arch="shared-l1", workload="eqntott", scale="test", max_cycles=CAP
    )
    assert plain.key() != job.key()


def test_obs_off_is_the_default():
    result = Job(
        "shared-l1", WORKLOADS["eqntott"], scale="test", max_cycles=CAP
    ).run()
    assert "obs" not in result.extras
    system = System(
        "shared-l1",
        WORKLOADS["eqntott"](4, FunctionalMemory(), "test"),
    )
    assert system.obs is None
    assert system.config.l1_fast_path is True


def test_obs_keeps_the_fast_lane():
    system = System(
        "shared-l1",
        WORKLOADS["eqntott"](4, FunctionalMemory(), "test"),
        obs=ObsConfig(sample_interval=500),
    )
    assert system.config.l1_fast_path is True
    lanes = system.memory.fast_lanes(0)
    assert lanes[1] is system.cpus[0]._lane_load
    # The optimistic lanes were rebuilt around the shadow crossbar.
    assert system.memory._shadow_xbar is not None


def _shadow_counters(fast: bool) -> dict:
    config = config_for_scale("test", 4, l1_fast_path=fast)
    system = System(
        "shared-l1",
        WORKLOADS["eqntott"](4, FunctionalMemory(), "test"),
        mem_config=config,
        max_cycles=CAP,
        obs=ObsConfig(sample_interval=250),
    )
    system.run()
    shadow = system.memory._shadow_xbar
    return {
        "requests": shadow.requests,
        "wait_cycles": shadow.wait_cycles,
        "banks": [
            (bank.busy_cycles, bank.requests, bank.next_free)
            for bank in shadow.banks.banks
        ],
        "ports": [
            (port.busy_cycles, port.requests, port.next_free)
            for port in shadow.ports
        ],
    }


def test_shadow_crossbar_counts_the_same_with_the_lane_on_or_off():
    on = _shadow_counters(fast=True)
    assert on["requests"] > 0 and on["wait_cycles"] > 0
    assert on == _shadow_counters(fast=False)


# ----------------------------------------------------------------------
# CLI


def test_cli_run_with_events_and_sampling(tmp_path, capsys):
    path = tmp_path / "ev.json"
    code = main([
        "run", "-w", "eqntott", "-a", "shared-l1", "-s", "test",
        "--sample-interval", "500", "--events", str(path),
        "--max-cycles", str(CAP),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampled series" in out
    assert f"events written to {path}" in out
    assert validate_trace(path) == []


def test_cli_run_profile_out(tmp_path, capsys):
    path = tmp_path / "profile.txt"
    code = main([
        "run", "-w", "eqntott", "-a", "shared-l1", "-s", "test",
        "--profile-out", str(path), "--max-cycles", str(CAP),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"profile written to {path}" in out
    assert "cumulative" in path.read_text()


def test_cli_obs_report(capsys):
    code = main([
        "obs", "report", "-w", "eqntott", "-a", "shared-l1", "-s", "test",
        "--sample-interval", "250", "--phases", "4",
        "--max-cycles", str(CAP),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "phase end" in out
    assert "l1.xbar.conflict" in out


def test_cli_obs_validate(tmp_path, capsys):
    good = tmp_path / "good.json"
    EQNTOTT_L1.run(obs=ObsConfig(sample_interval=1000, events_path=str(good)))
    assert main(["obs", "validate", str(good)]) == 0
    assert "valid trace" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["obs", "validate", str(bad)]) == 1


def test_obs_config_validation():
    with pytest.raises(Exception):
        ObsConfig(sample_interval=-1)
    config = ObsConfig(events_path="x.json")
    assert config.events is True
    assert ObsConfig().sample_interval == DEFAULT_SAMPLE_INTERVAL
