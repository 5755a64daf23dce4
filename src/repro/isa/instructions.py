"""Instruction records and functional-unit latencies (paper Table 1).

The operation classes mirror the paper's Table 1:

====================  =======  ========================  =======
Integer               Latency  Floating point            Latency
====================  =======  ========================  =======
ALU                   1        SP add/sub                2
Multiply              2        SP multiply               2
Divide                12       SP divide                 12
Branch                2        DP add/sub                2
Load                  1 or 3   DP multiply               2
Store                 1        DP divide                 18
====================  =======  ========================  =======

The load latency is architecture-specific (1 cycle for private L1s,
3 cycles through the shared-L1 crossbar) and therefore lives in the
memory-system configuration, not here.
"""

from __future__ import annotations

from enum import IntEnum


class OpClass(IntEnum):
    """Operation classes with distinct latency/functional-unit behaviour."""

    IALU = 0
    IMUL = 1
    IDIV = 2
    BRANCH = 3
    LOAD = 4
    STORE = 5
    FADD_SP = 6
    FMUL_SP = 7
    FDIV_SP = 8
    FADD_DP = 9
    FMUL_DP = 10
    FDIV_DP = 11
    LL = 12     # load-linked (synchronization)
    SC = 13     # store-conditional (synchronization)


#: Result latency per op class, from Table 1 of the paper. LOAD/LL are
#: listed as 1 here; the memory system supplies the real access time.
FU_LATENCY: dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMUL: 2,
    OpClass.IDIV: 12,
    OpClass.BRANCH: 2,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.FADD_SP: 2,
    OpClass.FMUL_SP: 2,
    OpClass.FDIV_SP: 12,
    OpClass.FADD_DP: 2,
    OpClass.FMUL_DP: 2,
    OpClass.FDIV_DP: 18,
    OpClass.LL: 1,
    OpClass.SC: 1,
}

#: Functional-unit kinds for structural-hazard modeling. The paper
#: duplicates every functional unit except the memory data port, so the
#: MXS model keeps two of each compute unit and a single memory port.
_FU_KIND = {
    OpClass.IALU: "ialu",
    OpClass.IMUL: "imul",
    OpClass.IDIV: "idiv",
    OpClass.BRANCH: "branch",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
    OpClass.LL: "mem",
    OpClass.SC: "mem",
    OpClass.FADD_SP: "fadd",
    OpClass.FMUL_SP: "fmul",
    OpClass.FDIV_SP: "fdiv",
    OpClass.FADD_DP: "fadd",
    OpClass.FMUL_DP: "fmul",
    OpClass.FDIV_DP: "fdiv",
}

_MEMORY_OPS = frozenset(
    (OpClass.LOAD, OpClass.STORE, OpClass.LL, OpClass.SC)
)

#: Ops whose every execution returns a value to the thread program
#: (the loaded word, the SC's success).
_VALUE_OPS = frozenset((OpClass.LL, OpClass.SC))

#: Functional-unit kinds in pool-index order (the MXS pool's
#: per-cycle counters are indexed by position here).
FU_KINDS = ("mem", "ialu", "imul", "idiv", "branch", "fadd", "fmul", "fdiv")

#: Pool index per op class, indexed by the :class:`OpClass` value:
#: position of the op's kind in :data:`FU_KINDS`. A table rather than
#: an ``Instruction`` slot — instructions are memoized by the tens of
#: thousands, and a slot only MXS reads showed up as +1 % peak RSS on
#: the Mipsy and replay workloads.
FU_INDEX = tuple(FU_KINDS.index(_FU_KIND[op]) for op in OpClass)

#: Precomputed memory-op dispatch codes (``Instruction.mcode``): 0 for
#: compute/branch, small ints for the memory ops. The hot tick loops
#: dispatch on this one int slot instead of chains of enum identity
#: checks (instructions are memoized, so the per-construction lookup
#: amortizes to nothing).
_MCODE = {
    OpClass.LOAD: 1,
    OpClass.LL: 2,
    OpClass.STORE: 3,
    OpClass.SC: 4,
}


def fu_kind(op: OpClass) -> str:
    """The functional-unit pool an op class issues to."""
    return _FU_KIND[op]


class Instruction:
    """One dynamic instruction emitted by a workload thread program.

    Attributes:
        op: operation class.
        pc: byte address of the instruction (drives the I-cache).
        addr: effective byte address for memory operations, else 0.
        taken: for branches, the actual outcome.
        target: for branches, the actual next pc after the branch.
        want_value: this pull returns a value to the thread program:
            a load whose value decides control flow (synchronization
            spins), and every LL and SC (set here for them); the CPU
            sends the value back into the generator.
        value: for stores/SC, the value to publish to the timed
            functional memory when the store completes; ``None`` for
            pure data stores whose values the simulation never reads.
        src1, src2: dynamic distances (in instructions) back to the
            producers of this instruction's source operands; 0 means no
            dependency. Used by the MXS model for dynamic scheduling.
    """

    __slots__ = (
        "op",
        "mcode",
        "pc",
        "addr",
        "taken",
        "target",
        "want_value",
        "value",
        "src1",
        "src2",
    )

    def __init__(
        self,
        op: OpClass,
        pc: int = 0,
        addr: int = 0,
        taken: bool = False,
        target: int = 0,
        want_value: bool = False,
        value: int | None = None,
        src1: int = 0,
        src2: int = 0,
    ) -> None:
        self.op = op
        self.mcode = _MCODE.get(op, 0)
        self.pc = pc
        self.addr = addr
        self.taken = taken
        self.target = target
        self.want_value = want_value or op in _VALUE_OPS
        self.value = value
        self.src1 = src1
        self.src2 = src2

    @property
    def is_memory(self) -> bool:
        return self.op in _MEMORY_OPS

    @property
    def is_load(self) -> bool:
        return self.op is OpClass.LOAD or self.op is OpClass.LL

    @property
    def is_store(self) -> bool:
        return self.op is OpClass.STORE or self.op is OpClass.SC

    @property
    def is_branch(self) -> bool:
        return self.op is OpClass.BRANCH

    def __repr__(self) -> str:
        parts = [self.op.name, f"pc={self.pc:#x}"]
        if self.is_memory:
            parts.append(f"addr={self.addr:#x}")
        if self.is_branch:
            parts.append(f"taken={self.taken}")
        return f"<Inst {' '.join(parts)}>"


class SpinLoad(Instruction):
    """The load of a declared two-instruction spin loop.

    To every consumer this is the plain ``LOAD want_value`` / ``LL`` it
    subclasses (same ``op``, same ``mcode``), so the thread program and
    the pipeline see the loop they always did. The extra slots let the
    CPU models run a *failed* iteration themselves
    (:meth:`repro.cpu.mipsy.MipsyCpu.tick`, MXS's fetch where it may
    park) and report the loop's wait episodes. They live on a subclass because
    instructions are memoized by the tens of thousands and only a
    handful per workload are spin loads.

    Attributes:
        until: the value that ends the spin; any other loaded value
            means the loop takes ``back`` and re-issues this load.
        back: the memoized taken branch from the slot after the load
            back to it — the very object ``Emitter.branch(True, to=…)``
            yields there.
        retries: ``None``, or a one-element list the CPU bumps once per
            failed iteration it runs without resuming the program (the
            owning primitive's retry counter).
        region: the name of the code region the loop lives in — what
            observability calls its sync-wait episodes.
    """

    __slots__ = ("until", "back", "retries", "region")
