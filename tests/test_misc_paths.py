"""Targeted tests for less-travelled paths across the package."""

import pytest

from conftest import LoopWorkload, SharingWorkload, build_system

from repro.core.configs import build_memory
from repro.core.configs import test_config as make_test_config
from repro.core.selfcheck import CHECKS, SelfCheckFailure, run_selfcheck
from repro.core.system import System
from repro.errors import ConfigError, ProtocolError, ReproError, WorkloadError
from repro.mem.cache import MODIFIED, SHARED
from repro.mem.functional import FunctionalMemory
from repro.mem.types import AccessKind, StallLevel
from repro.sim.stats import SystemStats
from repro.workloads.base import Workload
from repro.workloads.kernel import KernelActivity

ADDR = 0x1000_0000
LINE = ADDR >> 5  # 32-byte lines


# ----------------------------------------------------------------------
# shared-memory: the L2-hit-shared store path (upgrade below the L1)


def test_store_miss_with_l2_shared_copy_upgrades():
    stats = SystemStats.for_cpus(4)
    system = build_memory("shared-mem", make_test_config(), stats)
    # Two CPUs read: both L2s hold the line SHARED.
    system.access(0, AccessKind.LOAD, ADDR, 0)
    system.access(1, AccessKind.LOAD, ADDR, 200)
    # Evict CPU 0's L1 copy only (keep its L2 copy).
    way = system.l1d[0].n_sets * system.config.line_size
    t = 400
    for k in range(1, system.l1d[0].assoc + 1):
        t = system.access(0, AccessKind.LOAD, ADDR + k * way, t).done
    assert system.l1d[0].find(LINE) < 0
    assert system.l2[0].states[system.l2[0].find(LINE)] == SHARED
    # The store misses L1, hits L2 in SHARED: an upgrade transaction.
    upgrades_before = system.bus.upgrades
    system.access(0, AccessKind.STORE_COND, ADDR, t + 100)
    assert system.bus.upgrades == upgrades_before + 1
    assert system.l2[0].states[system.l2[0].find(LINE)] == MODIFIED
    assert system.l2[1].find(LINE) < 0


# ----------------------------------------------------------------------
# kernel activity generators


def _drain_kernel(generator):
    value = None
    feed = 0
    out = []
    while True:
        try:
            inst = (
                generator.send(value) if value is not None
                else next(generator)
            )
        except StopIteration:
            return out
        value = None
        if inst.want_value:
            feed += 1
            value = (0, 1)[feed % 2]
        out.append(inst)


def test_kernel_sys_read_copies_buffer_to_user():
    from repro.isa.codegen import CodeSpace
    from repro.workloads.base import ThreadContext
    from repro.workloads.layout import AddressSpace

    code = CodeSpace()
    kernel = KernelActivity(code, AddressSpace(base=0x8001_0000))
    ctx = ThreadContext(0)
    user_buffer = 0x2000_0000
    instructions = _drain_kernel(kernel.sys_read(ctx, 3, user_buffer))
    loads = [i for i in instructions if i.is_load and not i.want_value]
    stores = [
        i for i in instructions
        if i.is_store and i.value is None and i.addr >= user_buffer
    ]
    # The copy loop: kernel-buffer loads, user-buffer stores.
    assert len(stores) == kernel.buffer_words
    assert any(i.addr >= 0x8001_0000 for i in loads)
    assert kernel.syscalls == 1


def test_kernel_sys_write_copies_user_to_buffer():
    from repro.isa.codegen import CodeSpace
    from repro.workloads.base import ThreadContext
    from repro.workloads.layout import AddressSpace

    code = CodeSpace()
    kernel = KernelActivity(code, AddressSpace(base=0x8001_0000))
    ctx = ThreadContext(1)
    instructions = _drain_kernel(kernel.sys_write(ctx, 0, 0x2000_0000))
    kernel_stores = [
        i for i in instructions
        if i.is_store and i.value is None and i.addr >= 0x8001_0000
    ]
    assert len(kernel_stores) == kernel.buffer_words


def test_kernel_sched_tick_walks_run_queue():
    from repro.isa.codegen import CodeSpace
    from repro.workloads.base import ThreadContext
    from repro.workloads.layout import AddressSpace

    code = CodeSpace()
    kernel = KernelActivity(code, AddressSpace(base=0x8001_0000))
    ctx = ThreadContext(2)
    instructions = _drain_kernel(kernel.sched_tick(ctx))
    run_queue_touches = [
        i for i in instructions
        if i.is_memory and kernel.runqueue_base <= i.addr
        < kernel.runqueue_base + kernel.runqueue_entries * 32
    ]
    assert len(run_queue_touches) == 2 * kernel.runqueue_entries
    assert kernel.sched_ticks == 1


def test_kernel_text_is_shared_across_contexts():
    from repro.isa.codegen import CodeSpace
    from repro.workloads.base import ThreadContext
    from repro.workloads.layout import AddressSpace

    code = CodeSpace()
    kernel = KernelActivity(code, AddressSpace(base=0x8001_0000))
    pcs = []
    for cpu in range(2):
        ctx = ThreadContext(cpu)
        instructions = _drain_kernel(kernel.sys_read(ctx, 0, 0x2000_0000))
        pcs.append([i.pc for i in instructions if not i.want_value][:10])
    assert pcs[0] == pcs[1]  # same kernel routine, same addresses


# ----------------------------------------------------------------------
# selfcheck machinery


def test_selfcheck_passes():
    assert run_selfcheck(verbose=False)


def test_selfcheck_names_are_unique():
    names = [name for name, _check in CHECKS]
    assert len(names) == len(set(names))


def test_selfcheck_failure_is_reported(monkeypatch, capsys):
    import repro.core.selfcheck as sc

    def broken():
        raise SelfCheckFailure("deliberately broken")

    monkeypatch.setattr(
        sc, "CHECKS", (("broken", broken),) + tuple(sc.CHECKS[:1])
    )
    assert not sc.run_selfcheck()
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "deliberately broken" in out


def test_conservation_check_fails_when_a_stall_cycle_goes_missing(
    monkeypatch,
):
    """The shipped ``conservation`` item is not vacuous: a Mipsy stall
    helper that books one cycle too few makes it fail, naming the CPU
    whose breakdown no longer sums to its run."""
    from repro.cpu.mipsy import MipsyCpu

    stall = MipsyCpu._stall

    def short(self, level, at, cycles):
        stall(self, level, at, cycles - 1)

    monkeypatch.setattr(MipsyCpu, "_stall", short)
    with pytest.raises(SelfCheckFailure, match="breakdown sums to"):
        dict(CHECKS)["conservation"]()


@pytest.mark.parametrize("cpu", (0, 3))
def test_conservation_check_fails_when_an_mxs_slot_goes_missing(cpu):
    """Under MXS the oracle counts graduation slots: one lost slot
    taken from a finished run's stats fails it, naming the CPU, and
    so does one graduation the run never retired."""
    from repro.core.runner import Job
    from repro.core.selfcheck import check_run

    system = Job(arch="shared-l2", workload="ear", cpu_model="mxs").build()
    stats = system.run()
    check_run(system, stats)
    stats.mxs[cpu].slots_lost_pipeline -= 1
    with pytest.raises(SelfCheckFailure, match=f"^cpu{cpu} graduated or"):
        check_run(system, stats)
    stats.mxs[cpu].slots_lost_pipeline += 1
    stats.mxs[cpu].graduated += 1
    stats.mxs[cpu].slots_lost_pipeline -= 1  # the slot count still holds
    with pytest.raises(SelfCheckFailure, match="graduated for"):
        check_run(system, stats)


# ----------------------------------------------------------------------
# trace of synchronizing workloads


def test_recording_sync_workload_round_trips(tmp_path):
    from repro.trace.format import read_trace
    from repro.trace.recorder import record_run

    system = build_system("shared-l2", SharingWorkload, rounds=2)
    recorder = record_run(system, tmp_path / "sync.trace")
    # SCs were recorded (as plain stores on reload).
    reloaded = list(read_trace(tmp_path / "sync.trace"))
    assert len(reloaded) == len(recorder)
    kinds = {record.kind for record in reloaded}
    assert AccessKind.STORE in kinds


# ----------------------------------------------------------------------
# error taxonomy


def test_all_errors_derive_from_repro_error():
    for exc in (ConfigError, WorkloadError, ProtocolError):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("x")


# ----------------------------------------------------------------------
# emitter long-division ops reach the CPU models


class _FpWorkload(Workload):
    name = "fp"

    def __init__(self, n_cpus, functional):
        super().__init__(n_cpus, functional)
        self.region = self.code.region("fp", 32)

    def program(self, cpu_id):
        if cpu_id:
            return
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        for _ in range(10):
            yield em.fdiv(dp=True, src1=1)
            yield em.idiv(src1=1)
            yield em.imul(src1=1)
            yield em.fmul(dp=False, src1=1)


def test_long_latency_ops_slow_mxs_but_not_mipsy():
    functional = FunctionalMemory()
    mipsy = System(
        "shared-mem", _FpWorkload(1, functional),
        mem_config=make_test_config(1),
    )
    mipsy_stats = mipsy.run()

    functional = FunctionalMemory()
    mxs = System(
        "shared-mem", _FpWorkload(1, functional), cpu_model="mxs",
        mem_config=make_test_config(1),
    )
    mxs_stats = mxs.run()
    # Mipsy: 1 cycle per instruction; MXS pays the Table-1 latencies
    # on the dependent chain.
    mipsy_breakdown = mipsy_stats.aggregate_breakdown()
    assert mipsy_breakdown.busy == mipsy_stats.instructions
    assert mxs_stats.cycles > mipsy_breakdown.busy
