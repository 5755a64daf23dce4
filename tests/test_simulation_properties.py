"""Property-based tests over whole simulations.

Hypothesis generates small random programs; every architecture and CPU
model must run them to completion with consistent accounting, identical
committed instruction streams, and intact coherence invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import test_config as make_test_config
from repro.core.system import System
from repro.isa.instructions import OpClass
from repro.mem.functional import FunctionalMemory
from repro.workloads.base import Workload

_OPS = (
    OpClass.IALU,
    OpClass.IMUL,
    OpClass.FADD_DP,
    OpClass.FMUL_DP,
)

# A step is (kind, operand): kind 0 = compute op, 1 = load, 2 = store.
_step = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=15),
)
_program = st.lists(_step, min_size=5, max_size=60)


class RandomWorkload(Workload):
    """Every CPU runs the same random step list over its own lines,
    except a designated shared region touched by everyone."""

    name = "random"

    def __init__(self, n_cpus, functional, steps=(), share_every=5):
        super().__init__(n_cpus, functional)
        self.steps = list(steps)
        self.share_every = share_every
        self.region = self.code.region("rand", 128)
        self.private = [
            self.data.alloc_array(16, 32) for _ in range(n_cpus)
        ]
        self.shared = self.data.alloc_array(16, 32)

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        for index, (kind, operand) in enumerate(self.steps):
            shared = index % self.share_every == 0
            base = self.shared if shared else self.private[cpu_id]
            addr = base + (operand % 16) * 32
            if kind == 0:
                yield em.op(_OPS[operand % len(_OPS)])
            elif kind == 1:
                yield em.load(addr)
            else:
                yield em.store(addr)


def _run(arch, steps, cpu_model="mipsy"):
    functional = FunctionalMemory()
    workload = RandomWorkload(2, functional, steps=steps)
    system = System(
        arch,
        workload,
        cpu_model=cpu_model,
        mem_config=make_test_config(2),
        max_cycles=500_000,
    )
    stats = system.run()
    return stats, system


@given(_program)
@settings(max_examples=30, deadline=None)
def test_random_programs_complete_everywhere(steps):
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        stats, system = _run(arch, steps)
        assert not system.truncated
        assert stats.instructions == 2 * len(steps)


@given(_program)
@settings(max_examples=20, deadline=None)
def test_busy_cycles_equal_instructions_under_mipsy(steps):
    stats, _ = _run("shared-l2", steps)
    assert stats.aggregate_breakdown().busy == stats.instructions


@given(_program)
@settings(max_examples=20, deadline=None)
def test_accounting_never_exceeds_runtime(steps):
    for arch in ("shared-l1", "shared-mem"):
        stats, system = _run(arch, steps)
        for cpu in system.cpus:
            assert stats.breakdowns[cpu.cpu_id].total <= cpu.resume


@given(_program)
@settings(max_examples=20, deadline=None)
def test_mesi_invariants_hold_after_random_traffic(steps):
    _stats, system = _run("shared-mem", steps)
    system.memory.snoop.check_invariants()


@given(_program)
@settings(max_examples=15, deadline=None)
def test_mxs_commits_the_same_instructions(steps):
    mipsy_stats, _ = _run("shared-l2", steps, cpu_model="mipsy")
    mxs_stats, system = _run("shared-l2", steps, cpu_model="mxs")
    assert mxs_stats.instructions == mipsy_stats.instructions
    for cpu in system.cpus:
        assert len(cpu.rob) == 0


@given(_program)
@settings(max_examples=15, deadline=None)
def test_mxs_slot_accounting_identity(steps):
    stats, _ = _run("shared-mem", steps, cpu_model="mxs")
    for mxs in stats.mxs:
        assert mxs.slots_total == 2 * mxs.cycles


@given(_program)
@settings(max_examples=10, deadline=None)
def test_runs_are_deterministic(steps):
    first, _ = _run("shared-l1", steps)
    second, _ = _run("shared-l1", steps)
    assert first.cycles == second.cycles
    assert first.instructions == second.instructions
    assert (
        first.aggregate_breakdown().as_dict()
        == second.aggregate_breakdown().as_dict()
    )


@given(_program)
@settings(max_examples=10, deadline=None)
def test_cache_capacity_respected_during_runs(steps):
    _stats, system = _run("shared-l1", steps)
    cache = system.memory.l1d
    resident = [(way, tag) for way, tag in enumerate(cache.tags) if tag >= 0]
    assert len({tag for _, tag in resident}) == len(resident)
    for way, tag in resident:
        assert tag % cache.n_sets == way // cache.assoc
