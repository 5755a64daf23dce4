"""Edge-case and error-path tests across the package."""

import pytest

from repro.core.configs import paper_config
from repro.cpu.base import BaseCpu
from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.mem.types import AccessResult, StallLevel
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload
from repro.workloads.ocean import OceanWorkload


# ----------------------------------------------------------------------
# configuration scaling


def test_scaled_config_floors_at_four_lines():
    config = paper_config().scaled(10**9)
    minimum = config.line_size * 4
    assert config.l1d_size == minimum
    assert config.l1i_size == minimum
    assert config.l2_size == minimum


def test_scaled_config_preserves_bus_timing():
    config = paper_config()
    scaled = config.scaled(8)
    assert scaled.bus.c2c_latency == config.bus.c2c_latency
    assert scaled.write_buffer_depth == config.write_buffer_depth


def test_scaled_rejects_nonpositive_divisor():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        paper_config().scaled(0)


# ----------------------------------------------------------------------
# workload parameter validation


def test_workload_rejects_zero_cpus():
    class Dummy(Workload):
        name = "dummy"

        def program(self, cpu_id):
            return iter(())

    with pytest.raises(WorkloadError):
        Dummy(0, FunctionalMemory())


def test_eqntott_rejects_indivisible_vectors():
    import repro.workloads.eqntott as eq

    original = eq._SCALES
    eq._SCALES = dict(original, test=(30, 4, 5, 8, 2))  # 30 % 4 != 0
    try:
        with pytest.raises(WorkloadError):
            WORKLOADS["eqntott"](4, FunctionalMemory(), "test")
    finally:
        eq._SCALES = original


def test_fft_accepts_indivisible_batch():
    # The outer loop shards: 3 CPUs over 4 FFTs gives blocks of 2/1/1.
    workload = WORKLOADS["fft"](3, FunctionalMemory(), "test")
    assert workload.n_ffts == 4  # still the test-scale batch


def test_ocean_accepts_non_square_cpu_counts():
    # 2 CPUs decompose as 1x2 row/column bands.
    workload = OceanWorkload(2, FunctionalMemory(), "test")
    assert (workload.rows, workload.cols) == (1, 2)


def test_ocean_rejects_grid_too_small_for_decomposition():
    # test scale has a 16-point interior; 17 CPUs would need 17 columns.
    with pytest.raises(WorkloadError):
        OceanWorkload(17, FunctionalMemory(), "test")


def test_ear_rejects_indivisible_channels():
    with pytest.raises(WorkloadError):
        WORKLOADS["ear"](3, FunctionalMemory(), "test")  # 32 % 3 != 0


# ----------------------------------------------------------------------
# AccessResult visibility semantics


def test_visible_defaults_to_done():
    result = AccessResult(42, StallLevel.NONE)
    assert result.visible_cycle == 42


def test_explicit_visibility_wins():
    result = AccessResult(42, StallLevel.NONE, visible=99)
    assert result.visible_cycle == 99


# ----------------------------------------------------------------------
# BaseCpu generator protocol


class _ProtocolCpu(BaseCpu):
    def tick(self, cycle):  # pragma: no cover - not driven here
        raise NotImplementedError


class _OneLoadWorkload(Workload):
    name = "one-load"

    def __init__(self, n_cpus, functional):
        super().__init__(n_cpus, functional)
        self.region = self.code.region("one", 8)
        self.seen = []

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        value = yield em.load(0x1000, want_value=True)
        self.seen.append(value)
        yield em.ialu()


def _make_protocol_cpu():
    from repro.core.configs import build_memory, test_config
    from repro.sim.stats import SystemStats

    functional = FunctionalMemory()
    workload = _OneLoadWorkload(1, functional)
    stats = SystemStats.for_cpus(1)
    memory = build_memory("shared-l2", test_config(1), stats)
    cpu = _ProtocolCpu(0, memory, functional, stats, workload.program(0))
    return cpu, workload, functional


def test_value_delivery_resumes_generator():
    cpu, workload, functional = _make_protocol_cpu()
    functional.poke(0x1000, 77)
    inst = cpu.next_instruction()
    assert inst.want_value
    result = AccessResult(10, StallLevel.NONE)
    assert cpu.apply_memory_semantics(inst, result)
    assert cpu.awaiting_value_delivery
    nxt = cpu.next_instruction()
    assert nxt is not None
    assert workload.seen == [77]
    assert not cpu.awaiting_value_delivery


def test_generator_exhaustion_returns_none():
    cpu, workload, functional = _make_protocol_cpu()
    cpu.next_instruction()
    cpu.deliver_value(0)
    cpu.next_instruction()
    assert cpu.next_instruction() is None


def test_plain_store_publishes_value():
    cpu, _workload, functional = _make_protocol_cpu()
    from repro.isa.instructions import Instruction, OpClass

    store = Instruction(OpClass.STORE, addr=0x2000, value=5)
    result = AccessResult(8, StallLevel.NONE, visible=20)
    assert not cpu.apply_memory_semantics(store, result)
    assert functional.read(0x2000, 19) == 0
    assert functional.read(0x2000, 20) == 5


# ----------------------------------------------------------------------
# trace recorder passthrough


def test_trace_recorder_forwards_resource_report():
    from conftest import LoopWorkload, build_system
    from repro.trace.recorder import record_run

    system = build_system("shared-mem", LoopWorkload, iterations=3)
    recorder = record_run(system)
    report = recorder.resource_report(max(system.stats.cycles, 1))
    assert "bus" in report
