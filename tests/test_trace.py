"""Tests for trace capture and replay."""

import pytest

from conftest import LoopWorkload, SharingWorkload, build_system

from repro.core.configs import test_config as make_test_config
from repro.core.system import System
from repro.errors import ReproError, WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemConfig, MemorySystem
from repro.mem.types import AccessKind, AccessResult, StallLevel
from repro.sim.stats import SystemStats
from repro.trace import (
    TraceRecord,
    TraceRecorder,
    TraceWorkload,
    read_trace,
    write_trace,
)
from repro.trace.kernel import PackedTrace
from repro.trace.recorder import record_run
from repro.trace.replay import replay_trace


# ----------------------------------------------------------------------
# format


def test_record_round_trips_through_text():
    record = TraceRecord(2, AccessKind.LOAD, 0x1000_0020, 0x400004)
    assert TraceRecord.from_line(record.to_line()) == record


def test_sc_round_trips_as_its_own_code():
    """Regression: store-conditionals used to collapse to plain stores
    on the way to disk, so a replayed sync-heavy stream issued cheaper
    references than the recorded run. They get their own code now."""
    record = TraceRecord(0, AccessKind.STORE_COND, 0x100, 0)
    line = record.to_line()
    assert line.split()[1] == "C"
    assert TraceRecord.from_line(line) == record


def test_malformed_lines_rejected():
    with pytest.raises(ReproError):
        TraceRecord.from_line("1 L deadbeef")
    with pytest.raises(ReproError):
        TraceRecord.from_line("1 X 10 0")


def test_write_and_read_trace(tmp_path):
    records = [
        TraceRecord(0, AccessKind.IFETCH, 0x400000, 0x400000),
        TraceRecord(0, AccessKind.LOAD, 0x1000, 0x400000),
        TraceRecord(1, AccessKind.STORE, 0x2000, 0x400010),
    ]
    path = tmp_path / "t.trace"
    assert write_trace(path, records) == 3
    assert list(read_trace(path)) == records


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("# header\n\n0 L 10 0\n")
    assert len(list(read_trace(path))) == 1


# ----------------------------------------------------------------------
# recorder


def test_recorder_is_transparent():
    plain = build_system("shared-l2", LoopWorkload, iterations=4)
    plain_stats = plain.run()

    recorded = build_system("shared-l2", LoopWorkload, iterations=4)
    recorder = record_run(recorded)
    assert recorded.stats.cycles == plain_stats.cycles
    assert recorded.stats.instructions == plain_stats.instructions
    assert len(recorder) > 0


def test_recorder_captures_all_kinds():
    system = build_system("shared-mem", LoopWorkload, iterations=3)
    recorder = record_run(system)
    kinds = {record.kind for record in recorder.records}
    assert AccessKind.LOAD in kinds
    assert AccessKind.STORE in kinds
    assert AccessKind.IFETCH in kinds


def test_recorder_save_and_reload(tmp_path):
    system = build_system("shared-l1", LoopWorkload, iterations=2)
    recorder = record_run(system, tmp_path / "run.trace")
    reloaded = list(read_trace(tmp_path / "run.trace"))
    assert len(reloaded) == len(recorder)


# ----------------------------------------------------------------------
# replay


def test_replay_reissues_the_stream(tmp_path):
    source = build_system("shared-l2", LoopWorkload, iterations=3)
    recorder = record_run(source, tmp_path / "run.trace")
    data_refs = sum(
        1 for r in recorder.records if r.kind != AccessKind.IFETCH
    )

    replayed = replay_trace(
        tmp_path / "run.trace", "shared-l2", mem_config=make_test_config()
    )
    assert replayed.stats.instructions == data_refs
    assert not replayed.truncated


def test_replay_on_a_different_architecture(tmp_path):
    source = build_system("shared-l2", LoopWorkload, iterations=3)
    record_run(source, tmp_path / "run.trace")
    replayed = replay_trace(
        tmp_path / "run.trace", "shared-mem", mem_config=make_test_config()
    )
    assert replayed.stats.instructions > 0


def _write_rows(path, n_cpus):
    path.write_text(
        "".join(
            f"{cpu} I 400000 400000\n{cpu} L {0x1000 + 64 * cpu:x} 0\n"
            for cpu in range(n_cpus)
        )
    )
    return path


@pytest.mark.parametrize("n_cpus", [1, 8])
def test_replay_trace_takes_its_cpu_count_from_either_argument(
    n_cpus, tmp_path
):
    """An ``n_cpus`` alone sizes the default config; a ``mem_config``
    alone sets the count (both used to raise ``ConfigError`` unless the
    other said 4)."""
    path = _write_rows(tmp_path / "rows.trace", n_cpus)
    by_count = replay_trace(path, "shared-mem", n_cpus=n_cpus)
    by_config = replay_trace(
        path, "shared-mem", mem_config=MemConfig(n_cpus=n_cpus)
    )
    for system in (by_count, by_config):
        assert system.config.n_cpus == n_cpus
        assert system.stats.instructions == n_cpus
    assert by_count.stats.to_dict() == by_config.stats.to_dict()


def test_replay_trace_defaults_to_the_presets_count(tmp_path):
    path = _write_rows(tmp_path / "rows.trace", 2)
    assert replay_trace(path, "shared-l2").config.n_cpus == 4
    assert replay_trace(path, "cluster-l1").config.n_cpus == 16


def test_replay_cache_sweep_shows_geometry_effects(tmp_path):
    """The classic use: one trace, two cache sizes, fewer misses with
    the bigger cache."""
    source = build_system("shared-mem", LoopWorkload, iterations=4,
                          array_words=256)
    record_run(source, tmp_path / "run.trace")

    def misses_with_l1(size):
        config = make_test_config()
        config.l1d_size = size
        system = replay_trace(
            tmp_path / "run.trace", "shared-mem", mem_config=config
        )
        return system.stats.aggregate_caches(".l1d").misses

    small = misses_with_l1(256)
    large = misses_with_l1(4096)
    assert large < small


def test_replay_rejects_empty_trace():
    with pytest.raises(WorkloadError):
        TraceWorkload(4, FunctionalMemory(), [])


def test_replay_rejects_out_of_range_cpu():
    records = [TraceRecord(7, AccessKind.LOAD, 0x100, 0)]
    with pytest.raises(WorkloadError):
        TraceWorkload(4, FunctionalMemory(), records)


def _from_file(build):
    """``build`` driven through a trace file holding the given lines."""

    def entry(lines, tmp_path):
        path = tmp_path / "hostile.trace"
        path.write_text("# hand-written\n0 I 400000 400000\n" + lines)
        return build(path)

    return entry


HOSTILE_ENTRIES = {
    "PackedTrace.from_file": _from_file(
        lambda path: PackedTrace.from_file(4, path)
    ),
    "TraceWorkload.from_file": _from_file(
        lambda path: TraceWorkload.from_file(4, FunctionalMemory(), path)
    ),
    "PackedTrace(records)": lambda lines, tmp_path: PackedTrace(
        4, map(TraceRecord.from_line, lines.splitlines())
    ),
    "TraceWorkload(records)": lambda lines, tmp_path: TraceWorkload(
        4, FunctionalMemory(), map(TraceRecord.from_line, lines.splitlines())
    ),
}


@pytest.mark.parametrize("entry", HOSTILE_ENTRIES)
@pytest.mark.parametrize(
    "line, error",
    [
        # used to land, silently, in the *last* CPU's stream
        ("-1 L 1000 0", WorkloadError),
        ("4 L 1000 0", WorkloadError),
        # used to escape as a bare ValueError
        ("0 L zz 0", ReproError),
        ("0 I 400000 qq", ReproError),
        # used to escape as OverflowError from the packed column (and
        # to replay, unpacked, as an address no machine has)
        ("0 L 8000000000000000 0", WorkloadError),
        ("0 I 400000 8000000000000000", WorkloadError),
        # int(x, 16) takes a sign: these used to replay as address -31
        # and fetch pc -4
        ("0 L -1f 0", WorkloadError),
        ("0 I 400000 -4", WorkloadError),
        ("0 S 1000 -4", WorkloadError),
    ],
)
def test_hostile_rows_get_typed_errors_naming_the_row(
    entry, line, error, tmp_path
):
    with pytest.raises(error) as raised:
        HOSTILE_ENTRIES[entry](line + "\n", tmp_path)
    assert line in str(raised.value)
    assert isinstance(raised.value, ReproError)  # never a bare builtin


@pytest.mark.parametrize(
    "row",
    [(0, int(AccessKind.LOAD), -0x1F, 0), (0, int(AccessKind.IFETCH), 0, -4)],
)
def test_programmatic_rows_with_a_negative_address_or_pc_rejected(row):
    with pytest.raises(WorkloadError, match="negative"):
        TraceWorkload(4, FunctionalMemory(), records=[row])


def test_replay_trace_of_a_negative_address_raises(tmp_path):
    """A one-line trace of address -0x1f used to replay for 61 cycles."""
    path = tmp_path / "negative.trace"
    path.write_text("0 L -1f 0\n")
    with pytest.raises(WorkloadError, match="'0 L -1f 0'"):
        replay_trace(path, "shared-mem")


def test_sync_heavy_stream_replays_with_same_kind_sequence(tmp_path):
    """Regression for the STORE_COND -> S collapse: a barrier-heavy
    recording must replay its SCs *as* SCs, so re-recording the replay
    yields the same per-CPU data-reference sequence."""
    source = build_system("shared-l2", SharingWorkload, rounds=2)
    recorder = record_run(source, tmp_path / "sync.trace")
    recorded_kinds = {r.kind for r in recorder.records}
    assert AccessKind.STORE_COND in recorded_kinds  # barrier uses LL/SC

    # The file round-trips the kind sequence exactly.
    reloaded = list(read_trace(tmp_path / "sync.trace"))
    assert [r.kind for r in reloaded] == [
        r.kind for r in recorder.records
    ]

    # Replaying re-issues those SCs; re-record and compare per CPU.
    replay = System(
        "shared-l2",
        TraceWorkload.from_file(4, FunctionalMemory(), tmp_path / "sync.trace"),
        mem_config=make_test_config(),
        max_cycles=2_000_000,
    )
    re_recorder = record_run(replay)

    def data_refs(records, cpu):
        return [
            (r.kind, r.addr)
            for r in records
            if r.cpu == cpu and r.kind != AccessKind.IFETCH
        ]

    for cpu in range(4):
        assert data_refs(re_recorder.records, cpu) == data_refs(
            recorder.records, cpu
        )


def test_replay_uses_recorded_fetch_pcs(tmp_path):
    records = [
        TraceRecord(0, AccessKind.IFETCH, 0x0040_2000, 0x0040_2000),
        TraceRecord(0, AccessKind.LOAD, 0x1000_0000, 0),
    ]
    workload = TraceWorkload(1, FunctionalMemory(), records)
    instructions = list(workload.program(0))
    assert len(instructions) == 1
    assert instructions[0].pc == 0x0040_2000


# ----------------------------------------------------------------------
# fast-lane handling (the recorder must forward the lane, not smother it)


class _FastHitMemory(MemorySystem):
    """Stub whose fast lanes resolve loads/ifetches and decline stores."""

    name = "fast-stub"

    def __init__(self):
        super().__init__(make_test_config(), SystemStats.for_cpus(4))
        self.fast_calls = 0
        self.access_calls = 0

    def access(self, cpu, kind, addr, at):
        self.access_calls += 1
        return AccessResult(at + 2, StallLevel.NONE)

    def fast_lanes(self, cpu):
        def lane(done):
            def fast(addr, at):
                self.fast_calls += 1
                return at + 1 if done else -1

            return fast

        return lane(True), lane(True), lane(False)

    def drain(self, at):
        return at


def test_recorder_forwards_and_records_the_fast_lane():
    inner = _FastHitMemory()
    recorder = TraceRecorder(inner)
    assert recorder.fast_lanes(0)[1](0x100, 10) == 11
    assert recorder.fast_lanes(1)[0](0x400000, 10) == 11
    # A decline is forwarded but NOT recorded: the CPU retries it via
    # access(), which records it once.
    assert recorder.fast_lanes(2)[2](0x200, 10) == -1
    assert inner.fast_calls == 3
    assert [(r.cpu, r.kind, r.addr) for r in recorder.records] == [
        (0, AccessKind.LOAD, 0x100),
        (1, AccessKind.IFETCH, 0x400000),
    ]
    assert recorder.records[1].pc == 0x400000


def _recorded_stream(fast: bool):
    functional = FunctionalMemory()
    workload = LoopWorkload(4, functional, iterations=4)
    config = make_test_config()
    if not fast:
        config = config.with_overrides(l1_fast_path=False)
    system = System(
        "shared-l1", workload, mem_config=config, max_cycles=2_000_000
    )
    recorder = record_run(system)
    return recorder.records, system.stats


def test_recording_identical_with_fast_lane_on_or_off():
    """Regression: recording used to silently disable the fast lane
    (the base-class lanes decline). Forwarding must keep the
    captured stream — count *and* content — identical either way."""
    with_lane, stats_on = _recorded_stream(fast=True)
    without_lane, stats_off = _recorded_stream(fast=False)
    assert len(with_lane) == len(without_lane)
    assert with_lane == without_lane
    assert stats_on.to_dict() == stats_off.to_dict()
