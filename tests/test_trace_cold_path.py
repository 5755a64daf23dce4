"""The cold replay path, pinned on counts and bytes (never clocks).

``TraceStore.record`` runs the reference machine under a column
recorder, writes the canonical text from the columns and publishes the
decode (binary sidecar + per-process memo) in the same step. What must
hold: the text is the same bytes however the recording run was driven
(batched or not, fast lane or not), and a batched recording keeps each
CPU's references in the order a stepped run issues them; the first
``load_packed`` after a
recording — here or in another process — parses no text; the published
decode is exactly what a parse of the text gives; the size/mtime
guard still retires both caches when the text changes; and the columns
are 32-bit wherever the whole trace fits, 64-bit where it does not,
with one digest and one replay either way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from conftest import SharingWorkload

import repro
from repro.core.configs import config_for_scale
from repro.core.runner import Job
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemorySystem
from repro.mem.topology import topology_names
from repro.mem.types import AccessKind
from repro.obs import ObsConfig
from repro.trace import kernel
from repro.trace.format import TraceRecord, write_trace
from repro.trace.kernel import PackedTrace, load_packed, replay_kernel
from repro.trace.recorder import TraceRecorder
from repro.trace.store import (
    REFERENCE_ARCH,
    REFERENCE_CPU_MODEL,
    TraceStore,
)

APPS = ("eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "multiprog")
N_CPUS = 4
SRC = str(Path(repro.__file__).resolve().parents[1])


def build(arch, workload, fast_lane=True):
    """A fresh test-scale system; ``workload`` is a registry name or
    ``"sharing"`` for the sync-heavy toy."""
    functional = FunctionalMemory()
    if workload == "sharing":
        built = SharingWorkload(N_CPUS, functional, rounds=2)
    else:
        factory = Job(arch=arch, workload=workload).resolve_factory()
        built = factory(N_CPUS, functional, "test")
    config = config_for_scale("test", N_CPUS)
    if not fast_lane:
        config = config.with_overrides(l1_fast_path=False)
    return System(arch, built, mem_config=config, max_cycles=50_000_000)


def record(system, batched=True):
    """``record_run`` with the knob the tests turn."""
    recorder = TraceRecorder(system.memory)
    system.memory = recorder
    for cpu in system.cpus:
        cpu.bind_memory(recorder)
        if not batched:
            cpu._batchable = False
    system.run()
    assert not system.truncated
    return recorder


def recorded_text(system, tmp_path, **knobs):
    recorder = record(system, **knobs)
    path = tmp_path / "recorded.trace"
    assert recorder.save(path) == len(recorder)
    return path.read_bytes()


@pytest.fixture
def counted_parses(monkeypatch):
    """Counts ``PackedTrace.from_file`` calls (the text parse)."""
    calls = []
    original = PackedTrace.from_file.__func__

    def counting(cls, n_cpus, path):
        calls.append(path)
        return original(cls, n_cpus, path)

    monkeypatch.setattr(PackedTrace, "from_file", classmethod(counting))
    return calls


def same_columns(left: PackedTrace, right: PackedTrace) -> bool:
    return (
        left.n_cpus == right.n_cpus
        and left.n_records == right.n_records
        and left.kinds == right.kinds
        and left.addrs == right.addrs
        and left.pcs == right.pcs
    )


#: a fresh interpreter that loads each trace path given on argv with
#: the text parser booby-trapped, printing the record counts
FRESH_LOAD = """
import sys
from repro.trace import kernel

def trap(*args):
    raise AssertionError("text parse in a fresh process")

kernel.PackedTrace.from_file = trap
for path in sys.argv[1:]:
    print(kernel.load_packed(4, path).n_records)
"""


def in_fresh_process(script, *args):
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


# ----------------------------------------------------------------------
# (a) the text does not depend on how the recording run was driven


@pytest.mark.parametrize("workload", ("eqntott", "fft", "sharing"))
@pytest.mark.parametrize("arch", topology_names())
def test_text_identical_batched_or_not_and_lane_or_not(
    arch, workload, tmp_path
):
    system = build(arch, workload)
    reference = recorded_text(system, tmp_path)
    # the reference run really did batch compute runs under recording
    assert all(cpu._batchable for cpu in system.cpus)

    unbatched = recorded_text(build(arch, workload), tmp_path, batched=False)
    assert unbatched == reference
    no_lane = recorded_text(build(arch, workload, fast_lane=False), tmp_path)
    assert no_lane == reference


def reference(app, obs=None):
    """What ``TraceStore.record`` runs for ``app`` at test scale."""
    job = Job(REFERENCE_ARCH, app, n_cpus=N_CPUS)
    return System(
        REFERENCE_ARCH,
        job.resolve_factory()(N_CPUS, FunctionalMemory(), "test"),
        cpu_model=REFERENCE_CPU_MODEL,
        mem_config=job.mem_config(),
        obs=obs,
    )


@pytest.mark.parametrize("app", APPS)
def test_recording_parks_and_keeps_the_stepped_bytes(app, tmp_path):
    # the recorder forwards the spin port: a parked CPU's settled loads
    # are noted as the LOAD rows stepping issues through the lane
    stepped = record(reference(app), batched=False)
    store = TraceStore(tmp_path)
    path = store.record(app, "test", N_CPUS)
    stepped_path = tmp_path / "stepped.trace"
    stepped.save(stepped_path)
    assert path.read_bytes() == stepped_path.read_bytes()
    assert same_columns(
        load_packed(N_CPUS, path),
        PackedTrace.from_columns(stepped.kinds, stepped.addrs),
    )
    for obs in (None, ObsConfig(sample_interval=500)):
        system = reference(app, obs)
        noted = record(system)
        assert (noted.kinds, noted.addrs) == (stepped.kinds, stepped.addrs)
        if app == "eqntott":
            assert system.spin_report()["parks"] > 0


# ----------------------------------------------------------------------
# (b) record publishes the decode: no text parse here or elsewhere


def test_record_seeds_memo_and_sidecar_for_every_app(
    tmp_path, counted_parses
):
    store = TraceStore(tmp_path)
    paths = {app: store.record(app, "test", N_CPUS) for app in APPS}
    seeded = {app: load_packed(N_CPUS, paths[app]) for app in APPS}
    assert counted_parses == []

    for app in APPS:
        assert kernel._sidecar_path(paths[app], N_CPUS).is_file()
        parsed = PackedTrace.from_file(N_CPUS, paths[app])
        assert same_columns(seeded[app], parsed), app

    counts = in_fresh_process(FRESH_LOAD, *paths.values())
    assert counts == [str(seeded[app].n_records) for app in APPS]

    # stats() agrees with what is on disk: text and sidecar both count
    on_disk = sum(
        entry.stat().st_size
        for entry in tmp_path.rglob("*")
        if entry.suffix in (".trace", ".packed")
    )
    assert store.stats()["bytes_written"] == on_disk


# ----------------------------------------------------------------------
# (c) the size/mtime guard, and concurrent recorders of one key


def test_touch_and_re_record_retire_memo_and_sidecar(
    tmp_path, counted_parses
):
    store = TraceStore(tmp_path)
    path = store.record("fft", "test", N_CPUS)
    seeded = load_packed(N_CPUS, path)

    os.utime(path, ns=(1, 1))  # same bytes, another mtime
    assert kernel._read_sidecar(path, N_CPUS, os.stat(path)) is None
    reparsed = load_packed(N_CPUS, path)
    assert counted_parses == [path]
    assert reparsed is not seeded and same_columns(reparsed, seeded)
    # ... and that load re-published the sidecar under the new stat
    assert kernel._read_sidecar(path, N_CPUS, os.stat(path)) is not None

    again = store.record("fft", "test", N_CPUS)
    assert again == path
    assert kernel._read_sidecar(path, N_CPUS, os.stat(path)) is not None
    reseeded = load_packed(N_CPUS, path)
    assert counted_parses == [path]  # no further parse
    assert reseeded is not reparsed and same_columns(reseeded, seeded)


RECORD_FFT = """
import sys
from repro.trace.store import TraceStore

print(TraceStore(sys.argv[1]).record("fft", "test", 4))
"""


def test_concurrent_recorders_leave_a_loadable_trace(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", RECORD_FFT, str(tmp_path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(3)
    ]
    outputs = [racer.communicate(timeout=120) for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0, 0], outputs
    (path,) = {Path(out.strip()) for out, _ in outputs}

    # Whichever text and whichever sidecar won their renames, the
    # decode served is the decode of the text that is there.
    assert same_columns(
        load_packed(N_CPUS, path), PackedTrace.from_file(N_CPUS, path)
    )
    assert not list(tmp_path.rglob("*.tmp"))


# ----------------------------------------------------------------------
# (d) a batched recording keeps each CPU's references in issue order


class IssueOrderLog(MemorySystem):
    """An independent proxy that logs every reference in the order the
    run loop issues them; it steps its CPUs itself, so that order is
    the cross-CPU one."""

    def __init__(self, system):
        inner = system.memory
        super().__init__(inner.config, inner.stats)
        self.name = inner.name
        self.inner = inner
        self.log = []
        system.memory = self
        for cpu in system.cpus:
            cpu.bind_memory(self)
            cpu._batchable = False

    def access(self, cpu, kind, addr, at):
        self.log.append((cpu, int(kind), addr))
        return self.inner.access(cpu, kind, addr, at)

    def fast_lanes(self, cpu):
        def logging(lane, kind):
            def fast(addr, at):
                done = lane(addr, at)
                if done >= 0:
                    self.log.append((cpu, kind, addr))
                return done

            return fast

        return tuple(map(logging, self.inner.fast_lanes(cpu), (0, 1, 2)))

    def drain(self, at):
        return self.inner.drain(at)


@pytest.mark.parametrize("fast_lane", (True, False))
def test_recording_keeps_each_cpus_references_in_issue_order(fast_lane):
    logged = build("shared-l2", "sharing", fast_lane=fast_lane)
    issue_order = IssueOrderLog(logged).log
    logged.run()

    recorded = build("shared-l2", "sharing", fast_lane=fast_lane)
    recorder = record(recorded)
    assert all(cpu._batchable for cpu in recorded.cpus)
    assert recorded.stats.to_dict() == logged.stats.to_dict()

    kept = [(r.cpu, int(r.kind), r.addr) for r in recorder.records]
    assert kept == sorted(issue_order, key=lambda ref: ref[0])
    assert {kind for _, kind, _ in kept} >= {0, 1, 2}


# ----------------------------------------------------------------------
# (e) seeding respects the memo's cap


def test_seeded_memo_never_exceeds_its_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "_DECODE_CACHE", {})
    store = TraceStore(tmp_path)
    recordings = [(app, N_CPUS) for app in APPS] + [("fft", 2), ("ear", 2)]
    assert len(recordings) > kernel._DECODE_CACHE_CAP
    for app, n_cpus in recordings:
        path = store.record(app, "test", n_cpus)
        assert len(kernel._DECODE_CACHE) <= kernel._DECODE_CACHE_CAP
        # the newest recording is the one still seeded
        assert any(key[0] == os.fspath(path) for key in kernel._DECODE_CACHE)
    assert len(kernel._DECODE_CACHE) == kernel._DECODE_CACHE_CAP


# ----------------------------------------------------------------------
# (f) column width: 32 bits wherever the whole trace fits


def widened(packed: PackedTrace) -> PackedTrace:
    """The same stream with its address and pc columns 8 bytes wide."""
    wide = PackedTrace.__new__(PackedTrace)
    wide.n_cpus, wide.n_records = packed.n_cpus, packed.n_records
    wide._digest = None
    wide.kinds = packed.kinds
    wide.addrs = [array("q", column) for column in packed.addrs]
    wide.pcs = [array("q", column) for column in packed.pcs]
    return wide


def widths(packed: PackedTrace) -> set[str]:
    return {column.typecode for column in (*packed.addrs, *packed.pcs)}


@pytest.mark.parametrize("past", ("addr", "pc"))
def test_a_trace_past_32_bits_packs_wide_replays_and_round_trips(
    tmp_path, monkeypatch, past
):
    """One address (or fetch pc) at 2**32 or above, late in the
    stream, has the whole trace folded 8 bytes wide — every value, not
    just the ones after it — and the sidecar brings the width back."""
    monkeypatch.setattr(kernel, "_DECODE_CACHE", {})
    far = 1 << 32
    fetch, load, store = AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE
    records, expected = [], {cpu: ([], [], []) for cpu in range(N_CPUS)}
    for step in range(40):
        cpu = step % N_CPUS
        pc = 0x0040_0000 + 0x40 * step
        addr = 0x1000_0000 + 0x20 * step
        if step == 35:
            pc, addr = (pc, far + addr) if past == "addr" else (far + pc, addr)
        kind = load if step % 3 else store
        records += [
            TraceRecord(cpu, fetch, pc, pc),
            TraceRecord(cpu, kind, addr, pc),
        ]
        for column, value in zip(expected[cpu], (int(kind), addr, pc)):
            column.append(value)
    path = tmp_path / "far.trace"
    write_trace(path, records)

    packed = load_packed(N_CPUS, path)
    assert widths(packed) == {"q"}
    for cpu, (kinds, addrs, pcs) in expected.items():
        assert list(packed.kinds[cpu]) == kinds
        assert list(packed.addrs[cpu]) == addrs
        assert list(packed.pcs[cpu]) == pcs
    run = replay_kernel(packed, "shared-l2")
    assert not run.truncated
    assert run.stats.aggregate_caches(".l1d").accesses == len(packed)

    sidecar = kernel._read_sidecar(path, N_CPUS, os.stat(path))
    assert sidecar is not None and widths(sidecar) == {"q"}
    assert same_columns(sidecar, packed)
    assert sidecar.digest() == packed.digest()


def test_narrow_and_wide_packing_are_one_stream(tmp_path):
    """A stock recording packs 4 bytes wide; the same columns held
    8 bytes wide hash to the same digest and replay to the same
    ``SystemStats``."""
    path = TraceStore(tmp_path).record("eqntott", "test", N_CPUS)
    narrow = load_packed(N_CPUS, path)
    assert widths(narrow) == {kernel._NARROW}
    sidecar = kernel._read_sidecar(path, N_CPUS, os.stat(path))
    assert widths(sidecar) == {kernel._NARROW}
    wide = widened(narrow)
    assert widths(wide) == {"q"}
    assert wide.digest() == narrow.digest()
    assert (
        replay_kernel(wide, "shared-l2").stats.to_dict()
        == replay_kernel(narrow, "shared-l2").stats.to_dict()
    )
