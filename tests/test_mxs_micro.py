"""Micro-architecture validation: deterministic programs through MXS.

Each test builds a tiny, fully-controlled instruction sequence and
checks a specific pipeline behaviour: dual issue, dependency
serialization, the single memory port, non-blocking misses (MSHR
overlap and merging), branch-misprediction refill, and window-fill
behaviour. These pin the MXS model against Section 2.1's description.
"""

import pytest

from repro.core.configs import CpuParams
from repro.core.configs import test_config as make_test_config
from repro.core.system import System
from repro.isa.instructions import OpClass
from repro.mem.functional import FunctionalMemory
from repro.workloads.base import Workload


class MicroWorkload(Workload):
    """One CPU runs a caller-supplied list of emitter directives.

    ``repeats`` re-runs the script at the same PCs (and addresses), so
    steady-state behaviour dominates over cold-start I-cache misses.
    """

    name = "micro"

    def __init__(self, n_cpus, functional, script=None, region_slots=256,
                 repeats=1):
        super().__init__(n_cpus, functional)
        self.script = script or []
        self.repeats = repeats
        self.region = self.code.region("micro", region_slots)
        self.array = self.data.alloc_array(512, 32)

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        if cpu_id:
            return
        for _rep in range(self.repeats):
            em.jump(0)
            for step in self.script:
                kind = step[0]
                if kind == "op":
                    yield em.op(step[1], src1=step[2] if len(step) > 2 else 0)
                elif kind == "load":
                    yield em.load(self.array + step[1] * 32, src1=0)
                elif kind == "load_dep":
                    yield em.load(self.array + step[1] * 32, src1=step[2])
                elif kind == "store":
                    yield em.store(self.array + step[1] * 32)
                elif kind == "loop":
                    count, body = step[1], step[2]
                    for i in range(count):
                        top = em.label()
                        for sub in body:
                            yield em.op(sub)
                        yield em.branch(i < count - 1, to=top)
                else:
                    raise AssertionError(kind)


def run_micro(script, repeats=1, **cpu_kwargs):
    functional = FunctionalMemory()
    workload = MicroWorkload(1, functional, script=script, repeats=repeats)
    config = make_test_config(1)
    system = System(
        "shared-mem",
        workload,
        cpu_model="mxs",
        mem_config=config,
        cpu_params=CpuParams(**cpu_kwargs) if cpu_kwargs else None,
    )
    stats = system.run()
    return stats, system


def test_independent_alus_dual_issue():
    """Independent ALU ops: IPC approaches the 2-wide limit."""
    stats, _ = run_micro([("op", OpClass.IALU)] * 24, repeats=100)
    mxs = stats.mxs[0]
    assert mxs.ipc > 1.6


def test_dependent_chain_serializes():
    """A dependent ALU chain runs at 1 IPC regardless of width."""
    stats, _ = run_micro([("op", OpClass.IALU, 1)] * 24, repeats=50)
    mxs = stats.mxs[0]
    assert 0.8 < mxs.ipc < 1.1


def test_dependent_fp_chain_runs_at_latency():
    """Dependent DP divides: one result every 18 cycles."""
    stats, _ = run_micro([("op", OpClass.FDIV_DP, 1)] * 30, repeats=5)
    mxs = stats.mxs[0]
    cpi = mxs.cycles / mxs.graduated
    assert 15 < cpi < 20


def test_memory_port_limits_issue():
    """Independent loads to one hot line: at most 1 per cycle."""
    script = [("load", 0)] * 24
    stats, _ = run_micro(script, repeats=40)
    mxs = stats.mxs[0]
    assert mxs.ipc <= 1.05


def test_mixed_alu_and_loads_beat_one_ipc():
    """A load + ALU mix can use both the port and an ALU per cycle."""
    script = []
    for _ in range(12):
        script.append(("load", 0))
        script.append(("op", OpClass.IALU))
    stats, _ = run_micro(script, repeats=60)
    assert stats.mxs[0].ipc > 1.2


def test_nonblocking_misses_overlap():
    """Independent loads to distinct cold lines overlap their misses
    (the 4-MSHR non-blocking cache), so the total time is far below
    the sum of serial miss latencies."""
    script = [("load", i * 7) for i in range(12)]
    stats, _ = run_micro(script)
    serial = 12 * 60  # 12 misses at ~60+ cycles each
    assert stats.cycles < 0.6 * serial


def test_single_mshr_serializes_misses():
    """With one MSHR the same program degrades toward serial misses."""
    script = [("load", i * 7) for i in range(12)]
    _, fast_system = run_micro(script)
    stats_slow, _ = run_micro(script, mshrs=1)
    assert stats_slow.cycles > fast_system.stats.cycles * 1.5


def test_mshr_merge_same_line():
    """Two loads to the same cold line: one fill, both complete with it."""
    stats, system = run_micro([("load", 0), ("load", 0)])
    assert system.cpus[0].mshrs.merges >= 1


def test_loop_branches_predicted_after_warmup():
    """A hot loop mispredicts at the start and the exit, not per trip."""
    stats, _ = run_micro([("loop", 50, [OpClass.IALU] * 4)], repeats=2)
    mxs = stats.mxs[0]
    assert mxs.branches >= 100
    assert mxs.mispredicts <= 8


def test_mispredicts_cost_cycles():
    """Alternate taken/not-taken branches (unpredictable by a 2-bit
    counter at one PC) run slower than a well-predicted loop."""
    predictable = run_micro([("loop", 60, [OpClass.IALU] * 2)])[0]

    # An alternating branch at a single PC: build with raw directives.
    class Alternating(MicroWorkload):
        def program(self, cpu_id):
            if cpu_id:
                return
            ctx = self.context(cpu_id)
            em = ctx.emitter(self.region)
            for i in range(60):
                em.jump(0)
                yield em.ialu()
                yield em.ialu()
                yield em.branch(i % 2 == 0, to=3)

    functional = FunctionalMemory()
    workload = Alternating(1, functional)
    system = System(
        "shared-mem", workload, cpu_model="mxs", mem_config=make_test_config(1)
    )
    unpredictable = system.run()
    per_inst_fast = predictable.cycles / predictable.instructions
    per_inst_slow = unpredictable.cycles / unpredictable.instructions
    assert per_inst_slow > per_inst_fast * 1.3
    assert sum(m.mispredicts for m in unpredictable.mxs) > 20


def test_rob_drains_at_end():
    stats, system = run_micro([("op", OpClass.IALU)] * 10)
    assert len(system.cpus[0].rob) == 0
    assert stats.instructions == 10


def test_fetch_width_bounds_throughput():
    """A 1-wide fetch cannot exceed 1 IPC even on independent ops."""
    stats, _ = run_micro(
        [("op", OpClass.IALU)] * 100, fetch_width=1
    )
    assert stats.mxs[0].ipc <= 1.02


def test_narrow_window_hurts_memory_overlap():
    """A 4-entry window cannot hold enough loads to overlap misses."""
    script = [("load", i * 7) for i in range(10)]
    wide, _ = run_micro(script)
    narrow, _ = run_micro(script, window=4, rob=4)
    assert narrow.cycles > wide.cycles


def test_window_counts_rob_positions():
    """Select sees the first ``window`` ROB positions: a window inside
    a larger ROB binds on its own, one beyond the ROB is the ROB."""
    script = [("load", i * 7) for i in range(10)]
    whole, _ = run_micro(script, window=32, rob=32)
    beyond, _ = run_micro(script, window=64, rob=32)
    inside, _ = run_micro(script, window=4, rob=32)
    assert beyond.to_dict() == whole.to_dict()
    assert inside.cycles > whole.cycles


def test_wrong_path_fetch_pollutes_and_slows():
    """With wrong-path fetch on, unpredictable branches cost more
    (I-cache pollution + refill traffic) and squashed slots appear."""

    class Alternating(MicroWorkload):
        def program(self, cpu_id):
            if cpu_id:
                return
            ctx = self.context(cpu_id)
            em = ctx.emitter(self.region)
            for i in range(120):
                em.jump(0)
                yield em.ialu()
                yield em.ialu()
                yield em.branch(i % 2 == 0, to=3)

    def run(wrong_path):
        functional = FunctionalMemory()
        workload = Alternating(1, functional)
        system = System(
            "shared-mem",
            workload,
            cpu_model="mxs",
            mem_config=make_test_config(1),
            cpu_params=CpuParams(wrong_path_fetch=wrong_path),
        )
        return system.run(), system

    clean_stats, _ = run(False)
    dirty_stats, _ = run(True)
    assert sum(m.squashed for m in clean_stats.mxs) == 0
    assert sum(m.squashed for m in dirty_stats.mxs) > 0
    assert dirty_stats.cycles >= clean_stats.cycles


def test_wrong_path_fetch_off_by_default():
    assert not CpuParams().wrong_path_fetch


def test_window_occupancy_tracked():
    stats, _ = run_micro([("load", i * 7) for i in range(12)])
    mxs = stats.mxs[0]
    assert 0 < mxs.mean_window_occupancy <= 32
    # Overlapping misses keep several instructions in flight.
    assert mxs.mean_window_occupancy > 1.5


def test_issue_count_equals_graduated():
    stats, _ = run_micro([("op", OpClass.IALU)] * 30)
    mxs = stats.mxs[0]
    assert mxs.issued == mxs.graduated == 30


def test_fetch_stall_fraction_rises_with_cold_code():
    cold, _ = run_micro([("op", OpClass.IALU)] * 200)       # one pass
    warm, _ = run_micro([("op", OpClass.IALU)] * 24, repeats=100)
    assert (
        cold.mxs[0].fetch_stall_fraction
        > warm.mxs[0].fetch_stall_fraction
    )
