"""Differential proof that spin-wait elision is behaviorally invisible.

Mipsy runs the failed iterations of a *declared* spin loop
(``Emitter.spin_load``) itself and, on private single-cycle L1s, parks
the CPU and accounts for the iterations arithmetically. No option or
feature selects that — observed and checkpoint-recording runs elide
and park too — so the reference is the one run the code still steps:
CPUs that may not run ahead of the loop (``cpu._batchable = False``).
Every comparison below is "default run" against that.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import CpuParams, config_for_scale
from repro.core.selfcheck import FlagHandoff, LockedCounter
from repro.core.system import System
from repro.cpu.mxs.core import MxsCpu
from repro.errors import DeadlockError
from repro.isa.codegen import CodeRegion
from repro.isa.instructions import Instruction, OpClass, SpinLoad
from repro.isa.stream import Emitter
from repro.mem.functional import NEVER, FunctionalMemory
from repro.obs import ObsConfig
from repro.sync.barrier import Barrier
from repro.sync.lock import SpinLock
from repro.trace.recorder import record_run
from repro.workloads import WORKLOADS, synthetic
from repro.workloads.base import Workload

PRESETS = ("shared-l1", "shared-l2", "shared-mem", "shared-l3", "cluster-l1")
#: presets whose L1D is private and single-cycle (``spin_port``)
PARKING = ("shared-l2", "shared-mem", "shared-l3")
CAP = 3_000_000

#: the ledger's coherence_storm parameters (benchmarks/ledger/matrix.py)
STORM = dict(
    sharing=0.6,
    store_ratio=0.4,
    grain=64,
    private_bytes=65536,
    shared_bytes=8192,
    compute_per_access=0,
)


def _locked_counter(n_cpus, functional, scale):
    return LockedCounter(n_cpus, functional, rounds=8)


FACTORIES = {
    "eqntott": WORKLOADS["eqntott"],
    "mp3d": WORKLOADS["mp3d"],
    "storm": functools.partial(synthetic.make, phases=12, seed=1996, **STORM),
    "locked-counter": _locked_counter,
}


class Waiters(Workload):
    """CPU 0 works for ``work`` instructions; the rest wait for it —
    at a barrier, or (``locked``) behind a lock CPU 0 holds meanwhile.
    One long parked window with a known position."""

    name = "test-waiters"

    def __init__(self, n_cpus, functional, work=900, locked=False):
        super().__init__(n_cpus, functional)
        self.work = work
        self.locked = locked
        self.region = self.code.region("waiters.work", 8)
        self.lock = SpinLock("waiters.lock", self.code, self.data)
        self.barrier = Barrier("waiters.bar", self.code, self.data, n_cpus)

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        if cpu_id == 0:
            if self.locked:
                yield from self.lock.acquire(ctx)
            for _ in range(self.work):
                em.jump(0)
                yield em.ialu()
            if self.locked:
                yield from self.lock.release(ctx)
        elif self.locked:
            # Let CPU 0 win the lock first.
            for _ in range(24):
                em.jump(0)
                yield em.ialu()
            yield from self.lock.acquire(ctx)
            yield from self.lock.release(ctx)
        yield from self.barrier.wait(ctx)


def _stepped(system):
    """``system`` with every spin iteration through the thread program."""
    for cpu in system.cpus:
        cpu._batchable = False
    return system


def _system(arch, factory, *, stepped=False, fast=True, **kwargs):
    """One system; ``stepped`` forces the thread-program path."""
    functional = FunctionalMemory()
    workload = factory(4, functional, "test")
    config = config_for_scale("test", 4)
    if not fast:
        config = config.with_overrides(l1_fast_path=False)
    system = System(arch, workload, mem_config=config, **kwargs)
    return _stepped(system) if stepped else system


def _outcome(system) -> tuple:
    stats = system.stats
    return (
        stats.to_dict(),
        system.memory.resource_report(max(stats.cycles, 1)),
        system.workload.sync_report(),
        system.truncated,
    )


def _waiters(locked=False, work=900):
    def factory(n_cpus, functional, scale):
        return Waiters(n_cpus, functional, work=work, locked=locked)

    return factory


# ----------------------------------------------------------------------
# the differential, with no knob


def _differential(arch, factory, **kwargs):
    """Run ``factory`` by default and stepped; returns the default
    system once both ran to the same outcome."""
    default = _system(arch, factory, max_cycles=CAP, **kwargs)
    default.run()
    assert not default.truncated
    stepped = _system(arch, factory, stepped=True, max_cycles=CAP, **kwargs)
    stepped.run()
    assert stepped.spin_report()["parks"] == 0
    assert _outcome(stepped) == _outcome(default)
    return default


@pytest.mark.parametrize("fast", (True, False), ids=("lane", "no-lane"))
@pytest.mark.parametrize("workload", sorted(FACTORIES))
@pytest.mark.parametrize("arch", PRESETS)
def test_default_run_equals_stepped_runs(arch, workload, fast):
    _differential(arch, FACTORIES[workload], fast=fast)


#: what MXS is compared on: the parking workloads plus one long,
#: undisturbed parked window
MXS_FACTORIES = {
    name: FACTORIES[name] for name in ("eqntott", "storm", "locked-counter")
}
MXS_FACTORIES["waiters"] = _waiters()

#: the MXS golden cases' non-default pipelines
MXS_PARAMS = {
    "wide4": CpuParams(width=4, fetch_width=4),
    "window8": CpuParams(window=8, rob=32),
}


@pytest.mark.parametrize("fast", (True, False), ids=("lane", "no-lane"))
@pytest.mark.parametrize("workload", sorted(MXS_FACTORIES))
@pytest.mark.parametrize("arch", PRESETS)
def test_mxs_default_run_equals_stepped_runs(arch, workload, fast):
    _differential(arch, MXS_FACTORIES[workload], fast=fast, cpu_model="mxs")


@pytest.mark.parametrize("workload", ("eqntott", "waiters"))
@pytest.mark.parametrize("params", sorted(MXS_PARAMS))
@pytest.mark.parametrize("arch", PARKING)
def test_mxs_pipelines_park_and_equal_stepped_runs(arch, params, workload):
    default = _differential(
        arch,
        MXS_FACTORIES[workload],
        cpu_model="mxs",
        cpu_params=MXS_PARAMS[params],
    )
    assert default.spin_report()["settled_iterations"] > 0


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("arch", PARKING)
def test_parking_presets_actually_park(arch, cpu_model):
    """The differentials above must not pass by never eliding."""
    for name in ("storm", "locked-counter"):
        system = _system(
            arch, FACTORIES[name], cpu_model=cpu_model, max_cycles=CAP
        )
        system.run()
        report = system.spin_report()
        assert report["parks"] > 0, name
        assert report["settled_iterations"] > report["parks"], name
        assert (
            report["disturbed_wakes"] + report["deadline_wakes"]
            == report["parks"]
        ), name


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("arch", ("shared-l1", "cluster-l1"))
def test_shared_l1_presets_never_park(arch, cpu_model):
    system = _system(
        arch, FACTORIES["storm"], cpu_model=cpu_model, max_cycles=CAP
    )
    system.run()
    assert system.memory.spin_port(0) is None
    assert system.spin_report()["parks"] == 0


def test_update_coherence_declines_the_port():
    config = config_for_scale("test", 4).with_overrides(l1_coherence="update")
    workload = FACTORIES["storm"](4, FunctionalMemory(), "test")
    system = System("shared-l2", workload, mem_config=config, max_cycles=CAP)
    assert system.memory.spin_port(0) is None
    system.run()
    assert system.spin_report()["parks"] == 0


def _failed_spin_iterations(arch, factory, monkeypatch) -> int:
    """Failed declared-spin iterations of a stepped MXS run, counted at
    the one place each resolves its value."""
    failed = [0]
    resolve = MxsCpu._resolve_value

    def counting(cpu, record, done):
        resolve(cpu, record, done)
        inst = record.inst
        if type(inst) is SpinLoad and cpu._send_value != inst.until:
            failed[0] += 1

    with monkeypatch.context() as patch:
        patch.setattr(MxsCpu, "_resolve_value", counting)
        stepped = _system(
            arch, factory, stepped=True, cpu_model="mxs", max_cycles=CAP
        )
        stepped.run()
    return failed[0]


def test_mxs_settles_most_failed_spin_iterations(monkeypatch):
    """The count guard for MXS parking: on eqntott/shared-mem at least
    80 % of the failed iterations of declared spins are settled in
    bulk (a period that never repeats, or a park that wakes at once,
    shows here as a drop), and the shared L1 parks nothing."""
    factory = FACTORIES["eqntott"]
    failed = _failed_spin_iterations("shared-mem", factory, monkeypatch)
    default = _system("shared-mem", factory, cpu_model="mxs", max_cycles=CAP)
    default.run()
    settled = default.spin_report()["settled_iterations"]
    assert failed > 1_000
    assert settled >= 0.8 * failed, (settled, failed)
    shared = _system("shared-l1", factory, cpu_model="mxs", max_cycles=CAP)
    shared.run()
    assert shared.spin_report()["parks"] == 0


# ----------------------------------------------------------------------
# truncation and pause inside a parked window


def _settled_by(arch, locked, cycle, cpu_model) -> int:
    system = _system(arch, _waiters(locked), cpu_model=cpu_model)
    system.run(pause_at=cycle)
    assert system.paused
    return system.spin_report()["settled_iterations"]


@functools.cache
def _window(arch, locked, cpu_model) -> int:
    """First cycle of a 64-cycle span during all of which the three
    waiters are parked (each settles an iteration every two cycles)."""
    for start in range(200, 1200, 40):
        before = _settled_by(arch, locked, start, cpu_model)
        after = _settled_by(arch, locked, start + 64, cpu_model)
        if after - before >= 3 * 31:
            return start
    raise AssertionError("the waiters never parked together")


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("locked", (False, True), ids=("barrier", "lock"))
@pytest.mark.parametrize("arch", PARKING)
def test_truncation_inside_a_parked_window(arch, locked, cpu_model):
    start = _window(arch, locked, cpu_model)
    for max_cycles in range(start, start + 64):
        default = _system(
            arch, _waiters(locked), cpu_model=cpu_model, max_cycles=max_cycles
        )
        default.run()
        stepped = _system(
            arch,
            _waiters(locked),
            stepped=True,
            cpu_model=cpu_model,
            max_cycles=max_cycles,
        )
        stepped.run()
        assert default.truncated and stepped.truncated
        assert _outcome(default) == _outcome(stepped), max_cycles


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("locked", (False, True), ids=("barrier", "lock"))
@pytest.mark.parametrize("arch", PARKING)
def test_pause_and_resume_across_a_parked_window(arch, locked, cpu_model):
    start = _window(arch, locked, cpu_model)
    reference = _system(
        arch, _waiters(locked), stepped=True, cpu_model=cpu_model
    )
    reference.run()
    expected = _outcome(reference)
    for pause_at in range(start, start + 64):
        stepped = _system(
            arch, _waiters(locked), stepped=True, cpu_model=cpu_model
        )
        stepped_partial = stepped.run(pause_at=pause_at).to_dict()
        default = _system(arch, _waiters(locked), cpu_model=cpu_model)
        partial = default.run(pause_at=pause_at).to_dict()
        assert default.paused
        assert partial == stepped_partial, pause_at
        default.run()
        assert _outcome(default) == expected, pause_at


# ----------------------------------------------------------------------
# hangs


class HungBarrier(Workload):
    """A barrier that expects one more thread than will ever arrive."""

    name = "test-hung-barrier"

    def __init__(self, n_cpus, functional):
        super().__init__(n_cpus, functional)
        self.barrier = Barrier("hung.bar", self.code, self.data, n_cpus + 1)

    def program(self, cpu_id):
        yield from self.barrier.wait(self.context(cpu_id))


def _hung(n_cpus, functional, scale):
    return HungBarrier(n_cpus, functional)


def _deadlock(system) -> DeadlockError:
    with pytest.raises(DeadlockError) as caught:
        system.run()
    return caught.value


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("arch", PARKING)
def test_hung_barrier_raises_at_once(arch, cpu_model):
    system = _system(arch, _hung, cpu_model=cpu_model)
    error = _deadlock(system)
    sense = system.workload.barrier.sense_addr
    assert f"{sense:#x}" in error.detail
    assert "cpu3" in error.detail
    # Detected when the last CPU went to sleep, not a watchdog horizon
    # (2 000 000 cycles) later.
    assert error.cycle < 10_000


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("arch", PARKING)
def test_observed_hung_barrier_raises_like_the_unobserved_run(
    arch, cpu_model
):
    """Every sample boundary wakes the parked CPUs and settles them to
    it, so the watchdog saw their iterations as progress and the run
    never ended: a boundary at which every live CPU is parked with
    nothing pending is the same hang."""
    unobserved = _deadlock(_system(arch, _hung, cpu_model=cpu_model))
    observed = _system(
        arch, _hung, cpu_model=cpu_model, obs=ObsConfig(sample_interval=250)
    )
    error = _deadlock(observed)
    assert error.detail == unobserved.detail
    assert error.cycle < 10_000


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("arch", PARKING)
def test_hung_barrier_with_max_cycles_truncates_exactly(arch, cpu_model):
    default = _system(arch, _hung, cpu_model=cpu_model, max_cycles=5_001)
    default.run()
    stepped = _system(
        arch, _hung, stepped=True, cpu_model=cpu_model, max_cycles=5_001
    )
    stepped.run()
    assert default.truncated
    assert default.spin_report()["settled_iterations"] > 5_000
    assert _outcome(default) == _outcome(stepped)


def test_hung_barrier_pauses_then_raises():
    system = _system("shared-l2", _hung)
    system.run(pause_at=4_000)
    assert system.paused
    with pytest.raises(DeadlockError):
        system.run()


# ----------------------------------------------------------------------
# recording


def _recorded(arch, stepped):
    system = _system(arch, FACTORIES["locked-counter"], stepped=stepped)
    return record_run(system), system


@pytest.mark.parametrize("arch", ("shared-l1", "shared-l2", "shared-mem"))
def test_recorded_trace_is_byte_identical(arch, tmp_path):
    elided, system = _recorded(arch, stepped=False)
    plain, _ = _recorded(arch, stepped=True)
    # The recorder forwards the spin port, so a recording parks where
    # the L1D is one (not on a shared L1).
    assert (elided.spin_port(0) is None) == (arch == "shared-l1")
    assert (system.spin_report()["parks"] > 0) == (arch != "shared-l1")
    # The retries the CPUs ran themselves, or settled parked, are
    # still references.
    assert system.workload.lock.contended_retries > 0
    elided.save(tmp_path / "elided.trace")
    plain.save(tmp_path / "plain.trace")
    assert (tmp_path / "elided.trace").read_bytes() == (
        tmp_path / "plain.trace"
    ).read_bytes()


# ----------------------------------------------------------------------
# the pieces


def test_spin_load_is_the_ordinary_load_to_everyone_else():
    region = CodeRegion("spin", 0x1000, 8)
    em = Emitter(region)
    em.jump(2)
    top = em.label()
    load = em.spin_load(0x500, until=1)
    assert isinstance(load, Instruction) and type(load) is SpinLoad
    assert (load.op, load.mcode, load.want_value) == (OpClass.LOAD, 1, True)
    assert (load.addr, load.until, load.retries) == (0x500, 1, None)
    # The armed back-branch is the object the program itself yields.
    assert em.branch(True, to=top) is load.back
    assert load.back.pc == load.pc + 4 and load.back.target == load.pc
    assert em.spin_load(0x500, until=1) is load
    assert em.label() == top + 1

    cell = [0]
    em.jump(0)
    linked = em.spin_load(0x600, until=0, linked=True, retries=cell)
    assert (linked.op, linked.mcode) == (OpClass.LL, 2)
    assert linked.retries is cell


def test_a_hand_rolled_spin_is_still_correct():
    """``FlagHandoff`` with a plain value load: never elided, same run."""

    class HandRolled(FlagHandoff):
        def program(self, cpu_id):
            if cpu_id == 0:
                yield from super().program(cpu_id)
                return
            em = self.context(cpu_id).emitter(self.region)
            em.jump(2)
            top = em.label()
            while True:
                raised = yield em.load(self.flag, want_value=True)
                if raised == 1:
                    yield em.branch(False)
                    return
                yield em.branch(True, to=top)

    def declared(n_cpus, functional, scale):
        return FlagHandoff(n_cpus, functional)

    def hand_rolled(n_cpus, functional, scale):
        return HandRolled(n_cpus, functional)

    elided = _system("shared-mem", declared, max_cycles=CAP)
    elided.run()
    stepped = _system("shared-mem", hand_rolled, max_cycles=CAP)
    stepped.run()
    assert elided.spin_report()["settled_iterations"] > 0
    assert stepped.spin_report()["settled_iterations"] == 0
    assert elided.stats.to_dict() == stepped.stats.to_dict()


def test_spin_report_is_host_side_only():
    system = _system("shared-l2", FACTORIES["storm"], max_cycles=CAP)
    stats = system.run()
    assert set(system.spin_report()) == {
        "parks",
        "settled_iterations",
        "disturbed_wakes",
        "deadline_wakes",
    }
    assert "spin" not in repr(sorted(stats.to_dict()))


# ----------------------------------------------------------------------
# FunctionalMemory.stable_until

_ADDR = 0x40
_WRITES = st.lists(
    st.tuples(
        st.integers(0, 60),  # visible_at
        st.integers(0, 3),  # value
        st.sampled_from((None, 0, 1)),  # writer (own-store forwarding)
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    writes=_WRITES,
    at=st.integers(0, 70),
    cpu=st.sampled_from((None, 0, 1)),
)
def test_read_is_constant_until_stable_until(writes, at, cpu):
    memory = FunctionalMemory()
    for visible_at, value, writer in writes:
        memory.write(_ADDR, value, visible_at, cpu=writer)
    until = memory.stable_until(_ADDR, at, cpu)
    assert until > at
    first = memory.read(_ADDR, at, cpu=cpu)
    for cycle in range(at, min(until, 80)):
        assert memory.read(_ADDR, cycle, cpu=cpu) == first
    if until == NEVER:
        assert memory.read(_ADDR, 10_000, cpu=cpu) == first


def test_stable_until_names_the_next_change():
    memory = FunctionalMemory()
    assert memory.stable_until(_ADDR, 0) == NEVER
    memory.write(_ADDR, 1, visible_at=10)
    memory.write(_ADDR, 2, visible_at=20, cpu=0)
    assert memory.stable_until(_ADDR, 0) == 10
    assert memory.stable_until(_ADDR, 10) == 20
    assert memory.stable_until(_ADDR, 20) == NEVER
    # CPU 0 forwards its own in-flight store until it lands.
    assert memory.read(_ADDR, 5, cpu=0) == 2
    assert memory.stable_until(_ADDR, 5, cpu=0) == 10
    assert memory.written_since(_ADDR, 1)
    assert not memory.written_since(_ADDR, 2)


def test_relink_moves_only_the_time():
    memory = FunctionalMemory()
    memory.poke(_ADDR, 1)
    memory.load_linked(0, _ADDR, 5)
    memory.relink(0, 9)
    assert memory.store_conditional(0, _ADDR, 0, 12)
    memory.load_linked(1, _ADDR, 20)
    memory.relink(1, 30)
    # An SC stamped before the moved LL fails, as after a real LL at 30.
    assert not memory.store_conditional(1, _ADDR, 0, 25)
