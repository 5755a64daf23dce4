"""Differential contract of Mipsy trace replay.

Under Mipsy a replayed CPU is a :class:`TraceCpu`: its tick reads the
packed trace columns instead of pulling instructions from a generator.
It claims *bit-identical* ``SystemStats`` with a stock
:class:`~repro.cpu.mipsy.MipsyCpu` running the same trace as a thread
program (``TraceWorkload.program``, through a workload that exposes
only that) — two ticks that share no code. This suite pins it on every
preset topology for both traced workloads, plus the surrounding
plumbing: the content-addressed :class:`TraceStore`, the
``Job(replay=True)`` lane and its cache-key separation, and
record -> replay -> record determinism.
"""

from __future__ import annotations

import pytest

from conftest import LoopWorkload

from repro.core.configs import config_for_scale
from repro.core.runner import Job
from repro.core.system import System
from repro.cpu.mipsy import MipsyCpu
from repro.errors import ConfigError
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import topology_names
from repro.mem.types import AccessKind
from repro.obs import ObsConfig
from repro.trace.format import canonical_order, read_trace, write_trace
from repro.trace.kernel import PackedTrace, load_packed, replay_kernel
from repro.trace.recorder import record_run
from repro.trace.replay import TraceCpu, TraceWorkload
from repro.trace.store import TraceStore
from repro.workloads.base import Workload

PRESETS = topology_names()
WORKLOADS = ("eqntott", "fft")
N_CPUS = 4


@pytest.fixture(scope="session")
def trace_store(tmp_path_factory):
    """One store for the whole session: recording is the slow part."""
    return TraceStore(tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="session")
def traces(trace_store):
    """Recorded test-scale traces, one per workload."""
    return {
        name: trace_store.get_or_record(name, "test", N_CPUS)
        for name in WORKLOADS
    }


class ProgramOnly(Workload):
    """A trace as nothing but thread programs, so ``System`` runs it on
    stock CPUs (a :class:`TraceWorkload` gets trace CPUs)."""

    name = TraceWorkload.name

    def __init__(self, trace: TraceWorkload) -> None:
        super().__init__(trace.n_cpus, trace.functional)
        self.trace = trace

    def program(self, cpu_id: int):
        return self.trace.program(cpu_id)


def reference_stats(arch, trace_path, cpu_model="mipsy", **overrides):
    """Replay through stock CPUs running ``TraceWorkload.program``."""
    trace = TraceWorkload.from_file(N_CPUS, FunctionalMemory(), trace_path)
    system = System(
        arch,
        ProgramOnly(trace),
        cpu_model=cpu_model,
        mem_config=config_for_scale("test", N_CPUS, **overrides),
        max_cycles=50_000_000,
    )
    system.run()
    assert not system.truncated
    assert all(type(cpu) is not TraceCpu for cpu in system.cpus)
    return system.stats


# ----------------------------------------------------------------------
# the differential contract


@pytest.mark.parametrize("line_size", (32, 64, 128))
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("arch", PRESETS)
def test_trace_cpu_bit_identical_to_stock_mipsy(
    arch, workload, line_size, traces
):
    """The load-bearing invariant: same trace, same config -> a
    replay on trace CPUs equals stock Mipsy CPUs running the trace as
    thread programs, field for field — at every point of the
    line-size sweep the lane exists for (one recording, replayed under
    each geometry)."""
    path = traces[workload]
    packed = PackedTrace.from_file(N_CPUS, path)
    outcome = replay_kernel(
        packed,
        arch,
        mem_config=config_for_scale("test", N_CPUS, line_size=line_size),
    )
    assert not outcome.truncated
    expected = reference_stats(arch, path, line_size=line_size)
    assert outcome.stats.to_dict() == expected.to_dict()


@pytest.mark.parametrize("arch", PRESETS)
def test_trace_cpu_fires_the_stock_observation_hooks(arch, traces):
    """Observed, the two replays also emit the same telemetry: every
    miss and stall event, the histograms and the sampled series."""
    def observed(workload):
        system = System(
            arch, workload, mem_config=config_for_scale("test", N_CPUS),
            obs=ObsConfig(sample_interval=250, events=True),
        )
        system.run()
        return system.obs.rollup(), system.obs.timeline._events

    def trace():
        return TraceWorkload.from_file(
            N_CPUS, FunctionalMemory(), traces["eqntott"]
        )

    rollup, events = observed(trace())
    assert events and rollup["metrics"]
    assert (rollup, events) == observed(ProgramOnly(trace()))


def test_a_trace_workload_runs_on_trace_cpus_under_mipsy_only(trace_store):
    """Plain, observed or checkpointed: there is no engine to select."""
    def cpus(cpu_model, **build):
        system = Job(
            "shared-l2", "fft", cpu_model=cpu_model, scale="test",
            n_cpus=N_CPUS, replay=True, trace_dir=str(trace_store.root),
        ).build(**build)
        return {type(cpu) for cpu in system.cpus}

    for build in ({}, {"obs": ObsConfig()}, {"checkpointing": True}):
        assert cpus("mipsy", **build) == {TraceCpu}
        assert TraceCpu not in cpus("mxs", **build)
    assert issubclass(TraceCpu, MipsyCpu)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("arch", PRESETS)
def test_mxs_replay_lane_matches_direct_interpreter(
    arch, workload, traces, trace_store
):
    """Under MXS the lane runs the trace's thread programs, and must
    produce exactly what a hand-built replay run produces."""
    job = Job(
        arch=arch,
        workload=workload,
        cpu_model="mxs",
        scale="test",
        n_cpus=N_CPUS,
        replay=True,
        trace_dir=str(trace_store.root),
    )
    result = job.run()
    expected = reference_stats(arch, traces[workload], cpu_model="mxs")
    assert result.stats.to_dict() == expected.to_dict()
    assert result.extras["backend"] == "replay"
    assert "engine" not in result.extras["replay"]


def test_mipsy_replay_lane_matches_the_reference(traces, trace_store):
    job = Job(
        arch="shared-l2",
        workload="eqntott",
        scale="test",
        n_cpus=N_CPUS,
        replay=True,
        trace_dir=str(trace_store.root),
    )
    result = job.run()
    assert result.extras["backend"] == "replay"
    assert result.extras["replay"] == {
        "trace": traces["eqntott"].name,
        "references": len(load_packed(N_CPUS, traces["eqntott"])),
    }
    assert result.workload == "eqntott"
    expected = reference_stats("shared-l2", traces["eqntott"])
    assert result.stats.to_dict() == expected.to_dict()


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
def test_a_built_replay_job_runs_what_job_run_runs(cpu_model, trace_store):
    """``build()`` and ``run()`` share one path in the replay lane too:
    the built machine replays the job's recorded trace."""
    job = Job(
        arch="shared-l1",
        workload="fft",
        cpu_model=cpu_model,
        scale="test",
        n_cpus=N_CPUS,
        replay=True,
        trace_dir=str(trace_store.root),
    )
    system = job.build()
    assert isinstance(system.workload, TraceWorkload)
    assert system.run().to_dict() == job.run().stats.to_dict()


def test_replay_kernel_runs_a_system_and_holds_no_loop_of_its_own():
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(replay_kernel))
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]


def test_kernel_identical_with_fast_lane_off(traces):
    """The fast lane is a pure host optimization under replay too."""
    path = traces["eqntott"]
    packed = PackedTrace.from_file(N_CPUS, path)
    with_lane = replay_kernel(
        packed, "shared-l2", mem_config=config_for_scale("test", N_CPUS)
    )
    config = config_for_scale("test", N_CPUS).with_overrides(
        l1_fast_path=False
    )
    without_lane = replay_kernel(packed, "shared-l2", mem_config=config)
    assert with_lane.stats.to_dict() == without_lane.stats.to_dict()


def test_kernel_rejects_cpu_count_mismatch(traces):
    """``System``'s own check: the trace was packed for four CPUs."""
    packed = PackedTrace.from_file(N_CPUS, traces["eqntott"])
    with pytest.raises(ConfigError, match="built for 4"):
        replay_kernel(
            packed, "shared-l2", mem_config=config_for_scale("test", 8)
        )


def test_kernel_truncation(traces):
    packed = PackedTrace.from_file(N_CPUS, traces["eqntott"])
    outcome = replay_kernel(
        packed,
        "shared-l2",
        mem_config=config_for_scale("test", N_CPUS),
        max_cycles=100,
    )
    assert outcome.truncated


# ----------------------------------------------------------------------
# determinism: record -> replay -> record is a fixed point


@pytest.mark.parametrize("arch", PRESETS)
def test_record_replay_record_byte_identical(arch, tmp_path):
    """Replaying a canonical trace and re-recording it reproduces the
    file byte for byte, on every preset (cluster-l1 at its full 16
    CPUs). Constant-pc replay plus canonical per-CPU ordering make a
    trace with no adjacent fetch rows — ``LoopWorkload``'s has none —
    a fixed point of the record cycle (a fold keeps only the last of
    adjacent fetches: see the tests below)."""
    n_cpus = 16 if arch == "cluster-l1" else 4
    config = config_for_scale("test", n_cpus)
    functional = FunctionalMemory()
    workload = LoopWorkload(n_cpus, functional, iterations=3)
    source = System(
        arch, workload, mem_config=config, max_cycles=2_000_000
    )
    recorder = record_run(source)
    assert not source.truncated
    first = tmp_path / "first.trace"
    write_trace(first, canonical_order(recorder.records))

    replay_config = config_for_scale("test", n_cpus)
    replay = System(
        arch,
        TraceWorkload.from_file(n_cpus, FunctionalMemory(), first),
        mem_config=replay_config,
        max_cycles=2_000_000,
    )
    re_recorder = record_run(replay)
    assert not replay.truncated
    second = tmp_path / "second.trace"
    write_trace(second, canonical_order(re_recorder.records))

    assert first.read_bytes() == second.read_bytes()


def _fetch_rows(recorder) -> list[tuple[int, int]]:
    return [
        (record.cpu, record.pc)
        for record in recorder.records
        if record.kind == AccessKind.IFETCH
    ]


def test_adjacent_fetches_fold_to_the_last(tmp_path):
    """Replay probes the I-cache at the last of adjacent fetch rows
    only: two fetches on different lines, then a load, replay one
    I-fetch — of the second line."""
    path = tmp_path / "fetches.trace"
    path.write_text("0 I 400000 400000\n0 I 400040 400040\n0 L 1000 0\n")
    replay = System(
        "shared-mem",
        TraceWorkload.from_file(1, FunctionalMemory(), path),
        mem_config=config_for_scale("test", 1),
    )
    recorder = record_run(replay)
    assert _fetch_rows(recorder) == [(0, 0x400040)]
    assert replay.stats.aggregate_caches(".l1i").accesses == 1


def test_rerecording_drops_only_folded_fetches_then_holds(traces, tmp_path):
    """A generated recording has adjacent fetch rows (fft's compute
    between references crosses lines); re-recording its replay keeps
    every data reference and drops those fetches, and from there the
    record cycle is a fixed point."""
    config = config_for_scale("test", N_CPUS)

    def rerecord(path):
        system = System(
            "shared-mem",
            TraceWorkload.from_file(N_CPUS, FunctionalMemory(), path),
            mem_config=config,
        )
        return record_run(system, tmp_path / f"re-{path.name}")

    first = rerecord(traces["fft"])
    second = rerecord(tmp_path / f"re-{traces['fft'].name}")
    original = list(read_trace(traces["fft"]))

    def data(records):
        return [r for r in records if r.kind != AccessKind.IFETCH]

    assert data(canonical_order(first.records)) == data(original)
    assert len(_fetch_rows(first)) < sum(
        r.kind == AccessKind.IFETCH for r in original
    )
    assert canonical_order(second.records) == canonical_order(first.records)


# ----------------------------------------------------------------------
# packed decode


def test_bulk_parser_matches_record_constructor(traces):
    path = traces["eqntott"]
    fast = PackedTrace.from_file(N_CPUS, path)
    slow = PackedTrace(N_CPUS, read_trace(path))
    assert fast.n_records == slow.n_records
    assert fast.kinds == slow.kinds
    assert fast.addrs == slow.addrs
    assert fast.pcs == slow.pcs


def test_load_packed_memoizes(traces):
    path = traces["fft"]
    first = load_packed(N_CPUS, path)
    again = load_packed(N_CPUS, path)
    assert again is first


def test_binary_sidecar_round_trips(tmp_path, traces):
    """A cold process loads the cached binary decode instead of
    re-parsing the text — and gets identical columns."""
    import shutil

    from repro.trace.kernel import (
        _DECODE_CACHE,
        _read_sidecar,
        _sidecar_path,
    )

    path = tmp_path / "t.trace"
    shutil.copy(traces["eqntott"], path)
    direct = PackedTrace.from_file(N_CPUS, path)
    loaded = load_packed(N_CPUS, path)  # decodes + writes the sidecar
    sidecar = _sidecar_path(path, N_CPUS)
    assert sidecar.is_file()

    _DECODE_CACHE.clear()  # simulate a fresh process
    import os

    from_sidecar = _read_sidecar(path, N_CPUS, os.stat(path))
    assert from_sidecar is not None
    assert from_sidecar.n_records == direct.n_records
    assert from_sidecar.kinds == direct.kinds
    assert from_sidecar.addrs == direct.addrs
    assert from_sidecar.pcs == direct.pcs

    # A re-recorded (touched) trace must not be served the stale decode.
    path.write_text(path.read_text() + "0 L 10 0\n")
    os.utime(path, ns=(1, 1))
    assert _read_sidecar(path, N_CPUS, os.stat(path)) is None
    fresh = load_packed(N_CPUS, path)
    assert fresh.n_records == loaded.n_records + 1


# ----------------------------------------------------------------------
# the trace store


def test_store_records_once(trace_store):
    first = trace_store.get_or_record("eqntott", "test", N_CPUS)
    mtime = first.stat().st_mtime_ns
    second = trace_store.get_or_record("eqntott", "test", N_CPUS)
    assert second == first
    assert second.stat().st_mtime_ns == mtime  # no re-record


def test_store_key_separates_specs(trace_store):
    base = trace_store.key("eqntott", "test", 4)
    assert trace_store.key("fft", "test", 4) != base
    assert trace_store.key("eqntott", "test", 8) != base
    assert trace_store.key("eqntott", "small", 4) != base
    assert trace_store.key("eqntott", "test", 4, {"vec_words": 64}) != base
    assert trace_store.key("eqntott", "test", 4, {}) == base


def test_parameterised_workloads_replay_their_own_recording(tmp_path):
    def replayed(sharing):
        return Job(
            "shared-mem", "synthetic", replay=True,
            trace_dir=str(tmp_path), workload_args={"sharing": sharing},
        ).run().stats

    private, shared = replayed(0.0), replayed(0.85)
    assert len(list(tmp_path.glob("??/*.trace"))) == 2
    assert private.c2c_transfers < shared.c2c_transfers
    assert replayed(0.85).to_dict() == shared.to_dict()
    assert len(list(tmp_path.glob("??/*.trace"))) == 2


def test_store_rejects_factory_workloads(trace_store):
    with pytest.raises(ConfigError):
        trace_store.spec(LoopWorkload, "test", 4)


def test_replay_job_rejects_factory_workloads(tmp_path):
    job = Job(
        arch="shared-l2",
        workload=lambda n, f, s: LoopWorkload(n, f),
        replay=True,
        trace_dir=str(tmp_path),
    )
    with pytest.raises(ConfigError):
        job.run()


# ----------------------------------------------------------------------
# cache-key separation of the replay lane


def test_replay_jobs_key_apart_from_generated_jobs():
    generated = Job(arch="shared-l2", workload="eqntott", scale="test")
    replayed = Job(
        arch="shared-l2", workload="eqntott", scale="test", replay=True
    )
    assert replayed.key() != generated.key()
    assert generated.spec()["backend"] == "interpreter"
    assert replayed.spec()["backend"] == "replay"
    assert replayed.label().endswith("(replay)")


def test_trace_dir_is_policy_not_identity():
    plain = Job(
        arch="shared-l2", workload="eqntott", scale="test", replay=True
    )
    pointed = Job(
        arch="shared-l2",
        workload="eqntott",
        scale="test",
        replay=True,
        trace_dir="/tmp/elsewhere",
    )
    assert pointed.key() == plain.key()


def test_kernel_leaves_the_callers_config_untouched(traces):
    """The Mipsy-optimistic shared L1 is set on the run's own copy."""
    import dataclasses

    packed = PackedTrace.from_file(N_CPUS, traces["eqntott"])
    config = config_for_scale("test", N_CPUS)
    before = dataclasses.asdict(config)
    assert config.shared_l1_optimistic is False
    replay_kernel(packed, "shared-l1", mem_config=config)
    assert dataclasses.asdict(config) == before
