"""Tests for the seven paper workloads at test scale."""

import pytest

from repro.core.configs import test_config as make_test_config
from repro.core.system import System
from repro.errors import WorkloadError
from repro.isa.instructions import OpClass
from repro.mem.functional import FunctionalMemory
from repro.workloads import WORKLOADS

ALL_NAMES = sorted(WORKLOADS)


def build(name, scale="test", n_cpus=4):
    functional = FunctionalMemory()
    return WORKLOADS[name](n_cpus, functional, scale), functional


# ----------------------------------------------------------------------
# static structure


@pytest.mark.parametrize("name", ALL_NAMES)
def test_workload_constructs_at_every_scale(name):
    for scale in ("test", "bench", "paper"):
        workload, _ = build(name, scale)
        assert workload.name == name


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unknown_scale_rejected(name):
    functional = FunctionalMemory()
    with pytest.raises(WorkloadError):
        WORKLOADS[name](4, functional, "gigantic")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_programs_emit_valid_instructions(name):
    workload, _ = build(name)
    program = workload.program(0)
    count = 0
    value_feed = None
    for _ in range(500):
        try:
            if value_feed is not None:
                inst = program.send(value_feed)
                value_feed = None
            else:
                inst = next(program)
        except StopIteration:
            break
        assert inst.pc % 4 == 0
        if inst.is_memory:
            assert inst.addr > 0
        if inst.want_value:
            value_feed = 0
        count += 1
    assert count > 10


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_cpu_has_a_program(name):
    workload, _ = build(name)
    for cpu in range(4):
        inst = next(workload.program(cpu))
        assert inst is not None


# ----------------------------------------------------------------------
# full runs (Mipsy, test scale, shared-l2 as the middle architecture)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_workload_runs_to_completion(name):
    functional = FunctionalMemory()
    workload = WORKLOADS[name](4, functional, "test")
    system = System(
        "shared-l2",
        workload,
        cpu_model="mipsy",
        mem_config=make_test_config(),
        max_cycles=3_000_000,
    )
    stats = system.run()
    assert not system.truncated
    assert stats.instructions > 1000


def test_fft_validates_against_numpy():
    functional = FunctionalMemory()
    workload = WORKLOADS["fft"](4, functional, "test")
    system = System(
        "shared-l1",
        workload,
        cpu_model="mipsy",
        mem_config=make_test_config(),
        max_cycles=3_000_000,
    )
    system.run()  # raises WorkloadError if the FFT math broke
    assert len(workload.forward_results) == workload.n_ffts


def test_fft_validation_catches_corruption():
    functional = FunctionalMemory()
    workload = WORKLOADS["fft"](4, functional, "test")
    workload.forward_results[0] = workload.inputs[0] * 0 + 123.0
    with pytest.raises(WorkloadError):
        workload.validate()


def test_eqntott_master_does_extra_work():
    workload, _ = build("eqntott")
    master_instructions = sum(1 for _ in _drain(workload.program(0)))
    slave_instructions = sum(1 for _ in _drain(workload.program(1)))
    assert master_instructions > slave_instructions


def _drain(program, limit=1_000_000):
    """Run a program standalone, feeding cycling values to value-
    dependent loads so every spin loop terminates (an LL eventually
    reads 0, an SC result is truthy, a sense spin sees its target, a
    barrier count read eventually hits n-1)."""
    value_feed = None
    feed_cycle = 0
    for _ in range(limit):
        try:
            if value_feed is not None:
                inst = program.send(value_feed)
                value_feed = None
            else:
                inst = next(program)
        except StopIteration:
            return
        if inst.want_value:
            value_feed = feed_cycle % 4
            feed_cycle += 1
        yield inst


def test_mp3d_cells_alias_particles_in_l2():
    workload, _ = build("mp3d")
    l2_bytes = 64 * 1024  # test-scale value from the workload table
    assert (workload.cells_base - workload.particles_base) % l2_bytes == 0


def test_multiprog_processes_have_disjoint_data():
    workload, _ = build("multiprog")
    spans = []
    for space, base in zip(workload.proc_spaces, workload.inputs):
        spans.append((space.base, space.base + space.used_bytes))
    spans.sort()
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi1 <= lo2


def test_multiprog_kernel_is_shared():
    workload, _ = build("multiprog")
    assert workload.kernel.buffers[0] >= 0x8000_0000


def test_ocean_decomposition_covers_interior():
    workload, _ = build("ocean")
    assert workload.rows * workload.cols == workload.n_cpus
    # Balanced row/column bands tile the interior exactly.
    interior = workload.n - 2
    row_edges = [
        1 + block * interior // workload.rows
        for block in range(workload.rows + 1)
    ]
    col_edges = [
        1 + block * interior // workload.cols
        for block in range(workload.cols + 1)
    ]
    assert row_edges[0] == 1 and row_edges[-1] == interior + 1
    assert col_edges[0] == 1 and col_edges[-1] == interior + 1
    assert all(lo < hi for lo, hi in zip(row_edges, row_edges[1:]))
    assert all(lo < hi for lo, hi in zip(col_edges, col_edges[1:]))


def test_volpack_tasks_cover_all_scanlines():
    workload, _ = build("volpack")
    assert workload.n_tasks * workload.task_size == workload.scanlines


def test_ear_rotating_partition():
    """Consecutive phases assign a CPU different channel blocks."""
    workload, _ = build("ear")
    chunk = workload.chunk
    seen_blocks = set()
    program = workload.program(1)
    addresses = []
    for inst in _drain(program):
        if inst.op is OpClass.LOAD and inst.addr >= workload.state_base:
            offset = inst.addr - workload.state_base
            if offset < workload.channels * 8:
                addresses.append(offset // 8)
    for idx in addresses:
        seen_blocks.add(idx // chunk)
    assert len(seen_blocks) >= min(4, workload.phases)


# ----------------------------------------------------------------------
# replayed stretches


@pytest.mark.parametrize("name", ["ocean", "multiprog", "ear"])
def test_revisited_loops_are_mostly_replayed(name):
    """At bench scale the sweeps, passes and blocks these programs
    revisit outnumber their first visits."""
    from repro.core.runner import Job

    result = Job("shared-mem", WORKLOADS[name], scale="bench").run()
    report = result.extras["generation"]
    assert report["replayed"] > report["generated"] > 0
    # Host-side only, like extras["spin"]: not in the payload caches
    # and the wire carry, nor in the statistics.
    payload = result.to_dict()
    assert "generation" not in payload["extras"]
    assert "replayed" not in repr(sorted(payload["stats"]))


def test_synthetic_replays_nothing():
    """Every phase draws fresh addresses: nothing to keep."""
    workload, _ = build("synthetic", "bench")
    System("shared-mem", workload, mem_config=make_test_config()).run()
    assert workload.generation_report() == {"generated": 0, "replayed": 0}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_no_stretch_outlives_its_workload(name):
    """Stretches sit in thread-program locals or on the instance, so
    they go when the workload does — nothing process-wide keeps one
    run's instructions for the next."""
    import gc

    from repro.isa.stream import Stretch

    def live_stretches():
        gc.collect()
        return sum(isinstance(obj, Stretch) for obj in gc.get_objects())

    before = live_stretches()
    workload, _ = build(name)
    System("shared-mem", workload, mem_config=make_test_config()).run()
    if name == "ocean":
        # Its stretches were its thread programs' own.
        assert workload.generation_report()["generated"] > 0
        assert live_stretches() == before
    del workload
    assert live_stretches() == before
