"""Instruction emission helpers for workload thread programs.

A workload's per-CPU *thread program* is a Python generator that yields
:class:`~repro.isa.instructions.Instruction` records. The
:class:`Emitter` gives those records realistic program counters (so the
I-cache sees loops as loops and big programs as big programs) and takes
care of branch bookkeeping.

Instructions are immutable once created: CPU models never modify them,
so a thread program may construct the body of a hot loop once and yield
the same objects every iteration — this is the main performance lever
for the Python-level simulator. The emitter applies that lever
automatically: every emit is memoized per region on (slot, operands),
so a spin loop or an inner loop body allocates its instructions exactly
once no matter how many iterations (or CPUs) replay it. The memo is
capped so data-sweeping loops with unbounded distinct addresses cannot
grow it without limit. It holds nothing its owner already holds: a
load or store emitted while a stretch (below) is generated is built
but not entered, since the stretch keeps it, while the stretch's
compute and branch instructions, which repeat slot by slot, are. Every
instruction emitted at one slot carries that slot's one pc int
(:meth:`~repro.isa.codegen.CodeRegion.pc_of`).

A whole loop can be data the same way. A *stretch* is a run of emits
that reads nothing from the simulated machine — no ``want_value`` load,
no LL/SC, no spin — so visiting it again yields the same instructions
whatever the other CPUs did in between. :meth:`Emitter.replay` runs
such a loop's generator once into a tuple and hands the tuple to
``yield from`` on every visit, so a revisit costs a tuple step per
instruction instead of the Python that derived it. Where a stretch is
kept is the thread program's decision — only it knows for how long the
addresses stay the same.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.errors import WorkloadError
from repro.isa.codegen import CodeRegion
from repro.isa.instructions import Instruction, OpClass, SpinLoad

#: Per-region cap on memoized instructions; beyond it, emits are
#: constructed fresh (correct either way — the memo is pure reuse).
_MEMO_CAP = 1 << 16

# Enum member access is an attribute lookup on the class per call; the
# emitters run once per emitted instruction, so the op classes they key
# on are hoisted to module constants.
_IALU = OpClass.IALU
_IMUL = OpClass.IMUL
_IDIV = OpClass.IDIV
_BRANCH = OpClass.BRANCH
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_LL = OpClass.LL
_SC = OpClass.SC
_FADD_DP = OpClass.FADD_DP
_FADD_SP = OpClass.FADD_SP
_FMUL_DP = OpClass.FMUL_DP
_FMUL_SP = OpClass.FMUL_SP
_FDIV_DP = OpClass.FDIV_DP
_FDIV_SP = OpClass.FDIV_SP


class Stretch(NamedTuple):
    """A value-independent run of instructions, generated once."""

    #: the code region the run was emitted in
    region: CodeRegion
    #: the emitter cursor slot generation began at: a replay must too
    start: int
    #: the slot generation left the cursor on: a replay leaves it there
    end: int
    instructions: tuple[Instruction, ...]


class Emitter:
    """Constructs instructions with sequential PCs inside a code region.

    The emitter keeps a cursor of the next instruction slot. Plain
    instructions advance the cursor by one; branches move it to their
    target when taken. :meth:`call` / :meth:`ret` switch regions with a
    return stack, modeling the inter-function fetch behaviour that gives
    large programs their I-cache footprint.
    """

    __slots__ = ("region", "_index", "_stack", "_generating")

    def __init__(self, region: CodeRegion, start_index: int = 0) -> None:
        self.region = region
        self._index = start_index
        self._stack: list[tuple[CodeRegion, int]] = []
        #: whether a stretch is being generated: its loads and stores
        #: are held by the stretch, so they stay out of the memo
        self._generating = False

    # ------------------------------------------------------------------
    # cursor control

    def label(self) -> int:
        """The current instruction slot, usable as a branch target."""
        return self._index

    def jump(self, label: int) -> None:
        """Move the cursor without emitting (e.g. after an unrolled exit)."""
        self._index = label

    # ------------------------------------------------------------------
    # value-independent stretches

    def replay(self, kept: dict, key, body, *args) -> tuple[Instruction, ...]:
        """Emit the stretch ``body(self, *args)`` emits from the current
        cursor (use with ``yield from``), generating it only if ``kept``
        has no ``key`` yet.

        ``kept`` is a dict the caller owns and nothing here ever
        empties: a stretch stays valid exactly as long as its loop
        would emit the same instructions again, and only the thread
        program knows that — a local for passes over one buffer, the
        workload instance for a loop every CPU runs. ``body`` is driven
        by plain ``next``, so it is never sent a value, and an
        instruction that asks the machine for one (a ``want_value``
        load, LL, SC, a spin load) is refused: what follows it may
        depend on the answer. A replay must start from the slot
        generation started from — in the same region, though possibly
        through another thread's emitter — and leaves the cursor where
        generation left it.
        """
        stretch = kept.get(key)
        if stretch is None:
            stretch = kept[key] = self._generate(body(self, *args))
            return stretch.instructions
        region = stretch.region
        if self.region is not region or self._index != stretch.start:
            raise WorkloadError(
                f"stretch {key!r} of region {region.name!r} was generated "
                f"from slot {stretch.start}, replayed from slot "
                f"{self._index} of region {self.region.name!r}"
            )
        self._index = stretch.end
        instructions = stretch.instructions
        region.replayed += len(instructions)
        return instructions

    def _generate(self, body: Iterable[Instruction]) -> Stretch:
        region = self.region
        start = self._index
        instructions = []
        outer = self._generating
        self._generating = True
        try:
            for inst in body:
                # Checked before ``body`` is resumed: it would be handed
                # ``None`` where it expects the value.
                if inst.want_value:
                    raise WorkloadError(
                        f"stretch in region {region.name!r}: instruction "
                        f"{len(instructions)} ({inst!r}) reads a value "
                        "from the machine, so what follows it cannot be "
                        "replayed"
                    )
                instructions.append(inst)
        finally:
            self._generating = outer
        if self.region is not region:
            raise WorkloadError(
                f"stretch in region {region.name!r} ends in region "
                f"{self.region.name!r}"
            )
        region.generated += len(instructions)
        return Stretch(region, start, self._index, tuple(instructions))

    # ------------------------------------------------------------------
    # plain operations

    def op(self, opclass: OpClass, src1: int = 0, src2: int = 0) -> Instruction:
        """Emit one compute instruction of the given class."""
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, opclass, src1, src2)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                opclass, pc=region.pc_of(index), src1=src1, src2=src2
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    # The single-class emitters inline :meth:`op`'s memo body rather
    # than delegating — these run once per simulated compute
    # instruction, and the extra call frame is measurable.

    def ialu(self, src1: int = 0, src2: int = 0) -> Instruction:
        """Emit an integer ALU instruction."""
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, _IALU, src1, src2)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                _IALU, pc=region.pc_of(index), src1=src1, src2=src2
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def imul(self, src1: int = 0, src2: int = 0) -> Instruction:
        """Emit an integer multiply."""
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, _IMUL, src1, src2)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                _IMUL, pc=region.pc_of(index), src1=src1, src2=src2
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def idiv(self, src1: int = 0, src2: int = 0) -> Instruction:
        """Emit an integer divide."""
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, _IDIV, src1, src2)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                _IDIV, pc=region.pc_of(index), src1=src1, src2=src2
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def fadd(self, dp: bool = True, src1: int = 0, src2: int = 0) -> Instruction:
        """Emit a floating-point add (double precision by default)."""
        opclass = _FADD_DP if dp else _FADD_SP
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, opclass, src1, src2)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                opclass, pc=region.pc_of(index), src1=src1, src2=src2
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def fmul(self, dp: bool = True, src1: int = 0, src2: int = 0) -> Instruction:
        """Emit a floating-point multiply."""
        opclass = _FMUL_DP if dp else _FMUL_SP
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, opclass, src1, src2)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                opclass, pc=region.pc_of(index), src1=src1, src2=src2
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def fdiv(self, dp: bool = True, src1: int = 0, src2: int = 0) -> Instruction:
        """Emit a floating-point divide."""
        opclass = _FDIV_DP if dp else _FDIV_SP
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, opclass, src1, src2)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                opclass, pc=region.pc_of(index), src1=src1, src2=src2
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def ops(self, opclass: OpClass, count: int):
        """Emit ``count`` independent instructions of one class."""
        for _ in range(count):
            yield self.op(opclass)

    # ------------------------------------------------------------------
    # memory operations

    def load(
        self,
        addr: int,
        want_value: bool = False,
        src1: int = 0,
    ) -> Instruction:
        """Emit a load of ``addr``.

        With ``want_value`` the CPU sends the loaded value (from the
        timed functional memory) back into the thread program.
        """
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, _LOAD, addr, want_value, src1)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                _LOAD,
                pc=region.pc_of(index),
                addr=addr,
                want_value=want_value,
                src1=src1,
            )
            if not self._generating and len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def store(
        self,
        addr: int,
        value: int | None = None,
        src1: int = 0,
    ) -> Instruction:
        """Emit a store to ``addr``.

        ``value`` (if given) is published to the timed functional memory
        when the store completes; data stores whose values the
        simulation never reads pass ``None``.
        """
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, _STORE, addr, value, src1)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                _STORE,
                pc=region.pc_of(index),
                addr=addr,
                value=value,
                src1=src1,
            )
            if not self._generating and len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def ll(self, addr: int) -> Instruction:
        """Emit a load-linked; the value always comes back to the program."""
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, _LL, addr)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(_LL, pc=region.pc_of(index), addr=addr)
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def spin_load(
        self,
        addr: int,
        until: int,
        linked: bool = False,
        retries: list | None = None,
    ) -> SpinLoad:
        """Emit the load of a two-instruction spin on ``addr``.

        The loop around it stays in the thread program, in exactly
        this shape — the slot after the load holds the back-branch::

            top = em.label()
            while True:
                value = yield em.spin_load(addr, until=want)
                if value == want:
                    break
                yield em.branch(True, to=top)

        The instruction is the ordinary value-returning load (an
        ``LL`` with ``linked``) and may come back with any value, so
        the loop must keep handling a mismatch; declaring the exit
        value lets the CPU models run mismatching iterations without
        resuming the program. ``retries`` is a one-element counter cell bumped
        once for each iteration the program is not shown (bound when
        the slot's instruction is first built).
        """
        region = self.region
        index = self._index
        self._index = index + 1
        size = region.size
        op = _LL if linked else _LOAD
        key = (index % size, op, addr, until, "spin")
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            # The back-branch shares the memo entry branch() uses at
            # the next slot, so the CPU and the program retire the
            # same object.
            back_key = ((index + 1) % size, _BRANCH, True, index % size, 0)
            back = cache.get(back_key)
            if back is None:
                back = Instruction(
                    _BRANCH,
                    pc=region.pc_of(index + 1),
                    taken=True,
                    target=region.pc_of(index),
                )
                if len(cache) < _MEMO_CAP:
                    cache[back_key] = back
            inst = SpinLoad(
                op, pc=region.pc_of(index), addr=addr, want_value=True
            )
            inst.until = until
            inst.back = back
            inst.retries = retries
            inst.region = region.name
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def sc(self, addr: int, value: int) -> Instruction:
        """Emit a store-conditional; success (1/0) comes back to the program."""
        region = self.region
        index = self._index
        self._index = index + 1
        key = (index % region.size, _SC, addr, value)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                _SC, pc=region.pc_of(index), addr=addr, value=value
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    # ------------------------------------------------------------------
    # control flow

    def branch(
        self,
        taken: bool,
        to: int | None = None,
        src1: int = 0,
    ) -> Instruction:
        """Emit a conditional branch.

        ``to`` is a label (instruction slot index in this region); when
        the branch is taken the cursor moves there, otherwise it falls
        through. Loops emit ``branch(taken=True, to=top)`` on every
        iteration but the last.
        """
        region = self.region
        index = self._index
        if taken:
            if to is None:
                raise WorkloadError("taken branch requires a target label")
            self._index = to
            next_index = to
        else:
            next_index = index + 1
            self._index = next_index
        size = region.size
        key = (index % size, _BRANCH, taken, next_index % size, src1)
        cache = region._inst_cache
        inst = cache.get(key)
        if inst is None:
            inst = Instruction(
                _BRANCH,
                pc=region.pc_of(index),
                taken=taken,
                target=region.pc_of(next_index),
                src1=src1,
            )
            if len(cache) < _MEMO_CAP:
                cache[key] = inst
        return inst

    def call(self, region: CodeRegion) -> Instruction:
        """Emit a call (an always-taken branch) into another region."""
        pc = self.region.pc_of(self._index)
        self._stack.append((self.region, self._index + 1))
        self.region = region
        self._index = 0
        return Instruction(
            _BRANCH, pc=pc, taken=True, target=region.pc_of(0)
        )

    def ret(self) -> Instruction:
        """Emit a return to the most recent :meth:`call` site."""
        if not self._stack:
            raise WorkloadError("ret with an empty call stack")
        pc = self.region.pc_of(self._index)
        self.region, self._index = self._stack.pop()
        return Instruction(
            _BRANCH,
            pc=pc,
            taken=True,
            target=self.region.pc_of(self._index),
        )

    @property
    def call_depth(self) -> int:
        return len(self._stack)
