"""Tests for instruction records, code layout, and the emitter."""

import pytest

from repro.errors import WorkloadError
from repro.isa.codegen import INSTRUCTION_BYTES, CodeRegion, CodeSpace
from repro.isa.instructions import FU_LATENCY, Instruction, OpClass, fu_kind
from repro.isa.stream import Emitter


# ----------------------------------------------------------------------
# Table 1 latencies


def test_table1_integer_latencies():
    assert FU_LATENCY[OpClass.IALU] == 1
    assert FU_LATENCY[OpClass.IMUL] == 2
    assert FU_LATENCY[OpClass.IDIV] == 12
    assert FU_LATENCY[OpClass.BRANCH] == 2
    assert FU_LATENCY[OpClass.STORE] == 1


def test_table1_fp_latencies():
    assert FU_LATENCY[OpClass.FADD_SP] == 2
    assert FU_LATENCY[OpClass.FMUL_SP] == 2
    assert FU_LATENCY[OpClass.FDIV_SP] == 12
    assert FU_LATENCY[OpClass.FADD_DP] == 2
    assert FU_LATENCY[OpClass.FMUL_DP] == 2
    assert FU_LATENCY[OpClass.FDIV_DP] == 18


def test_fu_kind_memory_port_is_shared():
    assert fu_kind(OpClass.LOAD) == "mem"
    assert fu_kind(OpClass.STORE) == "mem"
    assert fu_kind(OpClass.LL) == "mem"
    assert fu_kind(OpClass.SC) == "mem"


def test_instruction_predicates():
    load = Instruction(OpClass.LOAD, addr=64)
    store = Instruction(OpClass.STORE, addr=64)
    branch = Instruction(OpClass.BRANCH, taken=True)
    alu = Instruction(OpClass.IALU)
    assert load.is_memory and load.is_load and not load.is_store
    assert store.is_memory and store.is_store and not store.is_load
    assert branch.is_branch and not branch.is_memory
    assert not alu.is_memory and not alu.is_branch
    assert Instruction(OpClass.LL).is_load
    assert Instruction(OpClass.SC).is_store


def test_instruction_repr_mentions_op_and_addr():
    inst = Instruction(OpClass.LOAD, pc=0x400000, addr=0x1000)
    text = repr(inst)
    assert "LOAD" in text
    assert "0x1000" in text


# ----------------------------------------------------------------------
# code layout


def test_code_region_pc_wraps():
    region = CodeRegion("f", 0x1000, 4)
    assert region.pc_of(0) == 0x1000
    assert region.pc_of(3) == 0x100C
    assert region.pc_of(4) == 0x1000  # wraps


def test_code_region_contains():
    region = CodeRegion("f", 0x1000, 4)
    assert region.contains(0x1000)
    assert region.contains(0x100C)
    assert not region.contains(0x1010)


def test_code_region_rejects_bad_geometry():
    with pytest.raises(WorkloadError):
        CodeRegion("bad", 0x1000, 0)
    with pytest.raises(WorkloadError):
        CodeRegion("bad", 0x1001, 4)


def test_code_space_no_overlap_and_alignment():
    space = CodeSpace(base=0x400000, align=32)
    a = space.region("a", 5)
    b = space.region("b", 3)
    assert a.limit <= b.base
    assert b.base % 32 == 0


def test_code_space_same_name_returns_same_region():
    space = CodeSpace()
    first = space.region("f", 8)
    second = space.region("f", 8)
    assert first is second
    with pytest.raises(WorkloadError):
        space.region("f", 16)


def test_code_space_footprint():
    space = CodeSpace(base=0, align=32)
    space.region("a", 8)  # 32 bytes exactly
    space.region("b", 1)  # padded to 32
    assert space.footprint_bytes == 64
    assert len(space) == 2
    assert "a" in space
    assert space["a"].size == 8


# ----------------------------------------------------------------------
# emitter


def make_emitter(slots=16, name="f"):
    return Emitter(CodeRegion(name, 0x2000, slots))


def test_emitter_sequential_pcs():
    em = make_emitter()
    first = em.ialu()
    second = em.imul()
    assert second.pc - first.pc == INSTRUCTION_BYTES


def test_emitter_taken_branch_moves_cursor():
    em = make_emitter()
    top = em.label()
    em.ialu()
    branch = em.branch(True, to=top)
    assert branch.taken
    assert branch.target == em.region.pc_of(top)
    # cursor back at top
    assert em.ialu().pc == em.region.pc_of(top)


def test_emitter_not_taken_branch_falls_through():
    em = make_emitter()
    em.ialu()
    branch = em.branch(False)
    nxt = em.ialu()
    assert not branch.taken
    assert branch.target == nxt.pc


def test_emitter_taken_branch_requires_target():
    em = make_emitter()
    with pytest.raises(WorkloadError):
        em.branch(True)


def test_emitter_memory_ops():
    em = make_emitter()
    load = em.load(0x500, want_value=True)
    store = em.store(0x504, value=7)
    ll = em.ll(0x600)
    sc = em.sc(0x600, 1)
    assert load.want_value and load.addr == 0x500
    assert store.value == 7
    assert ll.op is OpClass.LL and ll.want_value
    assert sc.op is OpClass.SC and sc.value == 1 and sc.want_value


def test_emitter_call_and_ret():
    space = CodeSpace()
    caller = space.region("caller", 8)
    callee = space.region("callee", 8)
    em = Emitter(caller)
    em.ialu()
    call = em.call(callee)
    assert call.taken and call.target == callee.pc_of(0)
    assert em.call_depth == 1
    inner = em.ialu()
    assert callee.contains(inner.pc)
    ret = em.ret()
    assert caller.contains(ret.target)
    back = em.ialu()
    assert caller.contains(back.pc)


def test_emitter_ret_without_call_raises():
    em = make_emitter()
    with pytest.raises(WorkloadError):
        em.ret()


def test_emitter_jump_moves_without_emitting():
    em = make_emitter()
    em.ialu()
    em.ialu()
    em.jump(0)
    assert em.ialu().pc == em.region.pc_of(0)


def test_emitter_ops_bulk():
    em = make_emitter()
    insts = list(em.ops(OpClass.IALU, 5))
    assert len(insts) == 5
    assert all(inst.op is OpClass.IALU for inst in insts)
    pcs = [inst.pc for inst in insts]
    assert pcs == sorted(pcs)


# ----------------------------------------------------------------------
# value-independent stretches


def _loop(em, base, count=4):
    """A small loop body: load, add, store, back-branch."""
    top = em.label()
    for i in range(count):
        yield em.load(base + 4 * i)
        yield em.ialu(src1=1)
        yield em.store(base + 4 * i, src1=1)
        last = i == count - 1
        yield em.branch(not last, to=top if not last else None)


def test_replay_yields_what_generation_yields():
    em = make_emitter()
    reference = make_emitter(name="reference")
    kept = {}
    for _visit in range(3):
        em.jump(0)
        reference.jump(0)
        replayed = list(em.replay(kept, "loop", _loop, 0x1000))
        derived = list(_loop(reference, 0x1000))
        assert [
            (i.op, i.pc, i.addr, i.taken, i.target, i.src1) for i in replayed
        ] == [(i.op, i.pc, i.addr, i.taken, i.target, i.src1) for i in derived]
        # The code after a replay sees the cursor generation left.
        assert em.label() == reference.label()
    assert list(kept) == ["loop"]
    assert isinstance(kept["loop"].instructions, tuple)
    assert (em.region.generated, em.region.replayed) == (16, 32)


def test_replay_generates_once_per_key():
    em = make_emitter()
    kept = {}
    calls = []

    def body(em, base):
        calls.append(base)
        yield em.load(base)

    for base in (0x100, 0x200, 0x100, 0x200, 0x100):
        em.jump(0)
        (inst,) = em.replay(kept, base, body, base)
        assert inst.addr == base
    assert calls == [0x100, 0x200]


@pytest.mark.parametrize(
    "emit",
    [
        lambda em: em.load(0x40, want_value=True),
        lambda em: em.ll(0x40),
        lambda em: em.sc(0x40, 1),
        lambda em: em.spin_load(0x40, until=1),
    ],
    ids=["want_value", "ll", "sc", "spin_load"],
)
def test_stretch_that_reads_the_machine_is_refused(emit):
    em = make_emitter(name="guarded")
    resumed = []

    def body(em):
        yield em.ialu()
        yield em.ialu()
        resumed.append((yield emit(em)))

    kept = {}
    with pytest.raises(WorkloadError, match=r"'guarded'.*instruction 2 "):
        em.replay(kept, "k", body)
    # Refused before the body was handed None for the value it wants.
    assert resumed == [] and kept == {}


def test_a_value_sent_into_a_replay_is_not_swallowed():
    """Generation drives the body with ``next`` alone and a replay is a
    tuple, so nothing can be sent into a stretch: a consumer that tries
    fails on the spot instead of the value being dropped."""
    em = make_emitter()
    kept = {}

    def program():
        for _visit in range(2):
            em.jump(0)
            yield from em.replay(kept, "loop", _loop, 0x1000)

    thread = program()
    next(thread)
    with pytest.raises(AttributeError, match="send"):
        thread.send(7)


def test_replay_from_another_slot_is_refused():
    em = make_emitter(name="moved")
    kept = {}
    em.jump(0)
    em.replay(kept, "loop", _loop, 0x1000)
    em.jump(3)
    with pytest.raises(WorkloadError, match=r"'moved'.*slot 0.*slot 3"):
        em.replay(kept, "loop", _loop, 0x1000)


def test_replay_in_another_region_is_refused():
    em = make_emitter(name="here")
    kept = {}
    em.replay(kept, "loop", _loop, 0x1000)
    with pytest.raises(WorkloadError, match=r"'here'.*'elsewhere'"):
        make_emitter(name="elsewhere").replay(kept, "loop", _loop, 0x1000)


def test_stretch_that_leaves_its_region_is_refused():
    space = CodeSpace()
    em = Emitter(space.region("caller", 8))
    callee = space.region("callee", 8)

    def body(em):
        yield em.ialu()
        yield em.call(callee)

    with pytest.raises(WorkloadError, match="'caller'.*'callee'"):
        em.replay({}, "k", body)


def test_shared_stretch_leaves_every_thread_on_the_recorded_end():
    """Ear keeps one stretch per block for all CPUs: whichever thread's
    emitter generated it, every replaying thread's cursor ends on the
    slot generation ended on."""
    from repro.mem.functional import FunctionalMemory
    from repro.workloads.ear import EarWorkload

    workload = EarWorkload(4, FunctionalMemory(), "test")
    contexts = [workload.context(cpu) for cpu in range(4)]
    for cpu, ctx in enumerate(contexts):
        em = ctx.emitter(workload.filter_region)
        em.jump(0)
        first = em.replay(workload._blocks, 2, workload._block, 2)
        stretch = workload._blocks[2]
        assert first is stretch.instructions
        assert em.label() == stretch.end != stretch.start
    assert len(workload._blocks) == 1
    report = workload.generation_report()
    assert report["replayed"] == 3 * report["generated"] > 0
