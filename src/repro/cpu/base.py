"""Common machinery shared by the CPU models.

A CPU executes a *thread program*: a generator of
:class:`~repro.isa.instructions.Instruction` records produced by a
workload. The base class owns the generator protocol (including sending
loaded values back into the program for synchronization spins) and the
functional side effects of memory instructions (publishing store values
to the timed functional memory, LL/SC semantics).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator

from repro.isa.instructions import Instruction, OpClass, SpinLoad
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemorySystem
from repro.mem.types import AccessResult
from repro.sim.stats import SystemStats

ThreadProgram = Generator[Instruction, object, None]


class BaseCpu(ABC):
    """One simulated processor bound to a thread program."""

    __slots__ = (
        "cpu_id",
        "memory",
        "functional",
        "stats",
        "breakdown",
        "program",
        "done",
        "instructions",
        "resume",
        "_line_shift",
        "_l1i_stats",
        "_has_value",
        "_send_value",
        "_started",
        "_batchable",
        "_lane_ifetch",
        "_lane_load",
        "_lane_store",
        "_ifetch_pending",
        "_busy_pending",
        "_batch_horizon",
        "_obs",
        "_ckpt_log",
        "_ckpt_advances",
        "_spin_port",
        "_spin_parked",
        "_spin_base",
        "_spin_load",
        "_spin_until",
        "_spin_seq",
        "_spin_way",
        "spin_parks",
        "spin_settled",
    )

    def __init__(
        self,
        cpu_id: int,
        memory: MemorySystem,
        functional: FunctionalMemory,
        stats: SystemStats,
        program: ThreadProgram,
    ) -> None:
        self.cpu_id = cpu_id
        self.functional = functional
        self.stats = stats
        self.breakdown = stats.breakdowns[cpu_id]
        self.program = program
        self.done = False
        self.instructions = 0
        self.resume = 0
        self._line_shift = memory.config.line_size.bit_length() - 1
        self._l1i_stats = stats.cache(f"cpu{cpu_id}.l1i")
        self._has_value = False
        self._send_value: object = None
        self._started = False
        # Whether the model may run ahead of the thread program
        # (Mipsy's compute-run batching, both models' spin elision).
        # Only the stepped reference run of the tests and ``repro
        # selfcheck`` clears it.
        self._batchable = True
        # Spin-wait parking (see "spin-wait parking" below). The system
        # hands every CPU the one list of parked CPUs it watches;
        # without it (a CPU driven outside a System) nothing parks.
        self._spin_parked: list | None = None
        #: first cycle not yet accounted for while parked, -1 otherwise
        self._spin_base = -1
        # The parked spin's load, the first cycle its word can read
        # otherwise (NEVER: nothing recorded will change it), and
        # functional._seq and the line's way in the L1D at park time.
        self._spin_load: SpinLoad | None = None
        self._spin_until = 0
        self._spin_seq = 0
        self._spin_way = -1
        #: host-side tallies for System.spin_report()
        self.spin_parks = 0
        self.spin_settled = 0
        self.bind_memory(memory)
        # Hot-loop counters batched as plain ints; folded into the
        # stats objects by flush_stats() at stall/run boundaries.
        self._ifetch_pending = 0
        self._busy_pending = 0
        # Models that retire ahead of the run loop (Mipsy's compute-run
        # batching) must not execute instructions at or past this cycle;
        # System.run keeps it on the nearest truncation, pause or
        # sample boundary.
        self._batch_horizon = 1 << 62
        # Attached Observation (None = no instrumentation anywhere).
        self._obs = None
        # Checkpoint recording (None = off; see enable_ckpt_recording).
        self._ckpt_log: list | None = None
        self._ckpt_advances = 0

    def bind_memory(self, memory: MemorySystem) -> None:
        """Point this CPU at ``memory`` and bind its fast-lane closures.

        The models call the bound per-CPU lanes directly on their
        hottest paths (no per-access dispatch on the CPU), so anything
        that swaps a CPU's memory system after construction — e.g.
        :func:`~repro.trace.recorder.record_run` wrapping it in a
        recording proxy — must rebind through here, not assign
        ``cpu.memory``.
        """
        self.memory = memory
        lanes = memory.fast_lanes(self.cpu_id)
        self._lane_ifetch, self._lane_load, self._lane_store = lanes
        self._spin_port = memory.spin_port(self.cpu_id)

    def enable_ckpt_recording(self) -> None:
        """Start recording the thread-program interaction for replay.

        Thread programs are live generators and cannot be pickled, so
        :mod:`repro.ckpt` captures them as a *replay log*: the number of
        instructions pulled so far plus every value sent back into the
        generator. A fresh workload's generator re-advanced through the
        same (count, values) sequence lands in the identical suspended
        state. A model that runs ahead writes the log stepping would.
        Recording is two list/int updates per instruction and is only
        enabled on systems built for checkpointing.
        """
        self._ckpt_log = []
        self._ckpt_advances = 0

    def attach_obs(self, obs) -> None:
        """Attach an :class:`~repro.obs.observe.Observation`; the
        models' stall branches emit miss/stall events through it.
        Rebinds the lanes, which the memory system may have rebuilt for
        the observation (the shared L1's shadow crossbar)."""
        self._obs = obs
        self.bind_memory(self.memory)

    # ------------------------------------------------------------------
    # thread-program protocol

    def next_instruction(self) -> Instruction | None:
        """Pull the next instruction, delivering any pending load value.

        Returns ``None`` when the program finishes.
        """
        try:
            if self._has_value:
                self._has_value = False
                value, self._send_value = self._send_value, None
                if self._ckpt_log is not None:
                    # Append before send: the value is consumed by the
                    # generator even when it finishes on this send, and
                    # replay must feed it again either way.
                    self._ckpt_log.append(value)
                inst = self.program.send(value)
            else:
                self._started = True
                inst = next(self.program)
        except StopIteration:
            return None
        if self._ckpt_log is not None:
            self._ckpt_advances += 1
        return inst

    def deliver_value(self, value: object) -> None:
        """Queue a loaded value for the program's next resumption."""
        self._has_value = True
        self._send_value = value

    @property
    def awaiting_value_delivery(self) -> bool:
        return self._has_value

    # ------------------------------------------------------------------
    # functional side effects of memory instructions

    def apply_memory_semantics(
        self, inst: Instruction, result: AccessResult
    ) -> bool:
        """Perform value reads/writes for a completed memory instruction.

        Returns ``True`` if a value was queued for the program (the
        caller must not pull the next instruction before the program is
        resumed with it).
        """
        op = inst.op
        if op is OpClass.LOAD or op is OpClass.LL:
            if op is OpClass.LL:
                value = self.functional.load_linked(
                    self.cpu_id, inst.addr, result.done
                )
            elif inst.want_value:
                value = self.functional.read(
                    inst.addr, result.done, cpu=self.cpu_id
                )
            else:
                return False
            if self._obs is not None:
                self._spin_read(inst, value, result.done)
            self.deliver_value(value)
            return True
        if op is OpClass.SC:
            success = self.functional.store_conditional(
                self.cpu_id, inst.addr, inst.value or 0, result.visible_cycle
            )
            self.deliver_value(1 if success else 0)
            return True
        # Plain store: publish the value (if any) at visibility time.
        if inst.value is not None:
            self.functional.write(
                inst.addr, inst.value, result.visible_cycle, cpu=self.cpu_id
            )
        return False

    def _spin_read(self, inst: Instruction, value: object, at: int) -> None:
        """Report a declared spin's read of ``value`` at cycle ``at`` to
        the attached observation (callers test for one): the model
        running the spin sees every iteration, stepped, elided or
        parked (a parked stretch repeats a read already reported), so
        sync waits never depend on how."""
        if inst.__class__ is SpinLoad:
            self._obs.spin_read(self.cpu_id, inst, value, at)

    # ------------------------------------------------------------------
    # spin-wait parking
    #
    # A model that runs the failed iterations of a declared spin itself
    # may *park* where the memory system declares the L1D private and
    # single-cycle (MemorySystem.spin_port): it sleeps until the first
    # cycle that something already recorded could make different, and
    # its spin_wake(limit) accounts for the iterations below ``limit``
    # arithmetically. The run loop (repro.core.system) wakes a parked
    # CPU early when its line leaves its L1D or its word gets a new
    # write, and at every truncation, pause and sample boundary.

    def _spin_sleep(self, inst: SpinLoad, base: int, until: int) -> None:
        """Park on ``inst``: ``base`` is the first cycle not accounted
        for, ``until`` the first cycle its word can read otherwise."""
        self._spin_base = base
        self._spin_load = inst
        self._spin_until = until
        self._spin_seq = self.functional._seq
        self._spin_way = self._spin_port[0].find(
            inst.addr >> self._line_shift
        )
        self.spin_parks += 1
        self._spin_parked.append(self)

    def spin_disturbed(self, wrote: bool) -> bool:
        """Whether a parked CPU's next iteration may no longer repeat
        the last: its line left the L1D or (looked at only when some
        write was recorded, ``wrote``) its word got a new write."""
        addr = self._spin_load.addr
        if self._spin_port[0].tags[self._spin_way] != addr >> self._line_shift:
            return True
        return wrote and self.functional.written_since(addr, self._spin_seq)

    def _spin_account(
        self, loads: int, iterations: int, linked_at: int
    ) -> None:
        """The model-independent part of settling: ``loads`` settled
        loads of the parked spin are that many L1D reads, one LRU touch
        and one :meth:`~repro.mem.hierarchy.MemorySystem.spin_settled`
        (for ``LL`` the reservation moves to the last one's
        ``linked_at``), and ``iterations`` failed iterations are that
        many retries and logged values (the parking iteration's)."""
        inst = self._spin_load
        if loads:
            array, stats = self._spin_port
            stats.reads += loads
            array.probe(inst.addr >> self._line_shift)
            self.memory.spin_settled(self.cpu_id, inst.addr, loads)
            if inst.mcode == 2:
                self.functional.relink(self.cpu_id, linked_at)
        if iterations:
            retries = inst.retries
            if retries is not None:
                retries[0] += iterations
            log = self._ckpt_log
            if log is not None:
                log.extend([log[-1]] * iterations)
            self.spin_settled += iterations
        self._spin_base = -1

    # ------------------------------------------------------------------

    @abstractmethod
    def tick(self, cycle: int) -> None:
        """Advance this CPU at ``cycle`` (called once per cycle while
        ``resume <= cycle`` and not ``done``)."""

    def busy_cycles(self) -> int:
        """Busy cycles retired so far, pending counters included.

        Live probes (the obs sampler) read this instead of
        ``breakdown.busy`` so samples never lag the batched counters;
        models that fold busy time differently override it to match.
        """
        return self.breakdown.busy + self._busy_pending

    def flush_stats(self) -> None:
        """Fold the batched hot-loop counters into the stats objects.

        The run loop calls this before anything reads the statistics
        (run end, truncation); models may call it earlier at natural
        stall boundaries.
        """
        if self._ifetch_pending:
            self._l1i_stats.reads += self._ifetch_pending
            self._ifetch_pending = 0
        if self._busy_pending:
            self.breakdown.busy += self._busy_pending
            self._busy_pending = 0

    def finish(self, cycle: int) -> None:
        """Hook called once when the whole system run ends."""
