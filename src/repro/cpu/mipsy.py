"""The Mipsy CPU model — the paper's simple, in-order simulator.

"Mipsy is an instruction set simulator that models all instructions
with a one cycle result latency and a one cycle repeat rate" and
"stalls for all memory operations that take longer than a cycle"
(Sections 3.1 and 4). Every instruction therefore contributes exactly
one CPU-busy cycle; instruction-fetch misses and data-memory time
beyond one cycle appear as stall cycles attributed to the level of the
hierarchy that serviced the access. This makes the Figures 4-10
execution-time breakdowns straightforward: total time = busy + stalls.

Synchronization spin loops run as real instructions (load + branch per
iteration), so time spent waiting at locks and barriers shows up as CPU
time exactly as the paper describes.

Spin-wait elision
-----------------

A *declared* spin (:class:`~repro.isa.instructions.SpinLoad`) still
costs those cycles and still retires those instructions, but the host
does not re-simulate an iteration that cannot turn out differently:

* a failed iteration (loaded value is not the exit value) is finished
  inside the load's own tick — the back-branch retires with it and the
  load stays armed — so the thread program is resumed only with the
  value that ends the spin;
* where the memory system declares the L1D private and single-cycle
  (:meth:`~repro.mem.hierarchy.MemorySystem.spin_port`) the armed CPU
  *parks*: it sleeps until the first load cycle that something already
  recorded could make different, and :meth:`MipsyCpu.spin_wake`
  accounts for the iterations in between arithmetically. The run loop
  (:mod:`repro.core.system`) wakes a parked CPU early when its line
  leaves its L1 or its word gets a new write.

Every counter ends where stepping the loop would have left it, and no
feature turns batching or elision off: observed, checkpoint-recording
and trace-recording runs see what stepping shows (``DESIGN.md`` §8,
rule 10). Only ``cpu._batchable = False`` makes Mipsy step — the
reference the tests and ``repro selfcheck`` compare against.
"""

from __future__ import annotations

from repro.cpu.base import BaseCpu
from repro.isa.instructions import SpinLoad
from repro.mem.functional import NEVER
from repro.mem.types import AccessKind, StallLevel


class MipsyCpu(BaseCpu):
    """In-order, blocking, one-instruction-per-cycle CPU."""

    __slots__ = (
        "_fetch_line",
        "_pending_inst",
        "_exhausted",
        "_flushed_instructions",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fetch_line = -1
        # Compute-run batching (see tick): an instruction pulled ahead
        # but not yet executable, and the early-seen end of the program.
        self._pending_inst = None
        self._exhausted = False
        # Mipsy retires exactly one busy cycle and one I-fetch per
        # instruction, so tick() bumps only ``instructions`` and
        # flush_stats() folds the delta since the last flush into both
        # counters at once — two attribute increments saved per
        # instruction on the hottest path in the simulator.
        self._flushed_instructions = 0

    def tick(self, cycle: int) -> None:
        """Execute at most one instruction starting at ``cycle``.

        Sets ``resume`` to the cycle at which the next instruction may
        start (the run loop skips ticks until then).

        This is the single hottest function in the simulator: the
        generator protocol is inlined (one call per instruction saved
        over :meth:`next_instruction`), the L1-hit fast lane resolves
        loads and I-fetches without the general dispatch, and the busy
        and I-fetch counters batch in plain slots
        (:meth:`~repro.cpu.base.BaseCpu.flush_stats`). Every stall is
        charged through :meth:`_ifetch_miss` or :meth:`_stall`.
        """
        # Inlined next_instruction(): take the batched-ahead pending
        # instruction if one exists, else pull the next one, delivering
        # any pending load value.
        inst = self._pending_inst
        if inst is not None:
            self._pending_inst = None
        elif self._exhausted:
            # The batch loop already saw StopIteration; this tick is
            # the one where the unbatched CPU would discover it.
            self.done = True
            return
        else:
            try:
                if self._has_value:
                    self._has_value = False
                    value, self._send_value = self._send_value, None
                    if self._ckpt_log is not None:
                        self._ckpt_log.append(value)
                    inst = self.program.send(value)
                else:
                    self._started = True
                    inst = next(self.program)
            except StopIteration:
                self.done = True
                return
        # The replay log counts an instruction when it runs, as
        # stepping would, pulled ahead or not.
        if self._ckpt_log is not None:
            self._ckpt_advances += 1

        # Instruction fetch: sequential fetches within the current cache
        # line hit by construction; only line crossings and branch
        # targets probe the I-cache. (No memory/cpu_id hoists: the
        # common ALU path never touches them, so they stay attribute
        # reads on the rarer slow legs.)
        exec_start = cycle
        fetch_line = inst.pc >> self._line_shift
        if fetch_line != self._fetch_line:
            self._fetch_line = fetch_line
            if self._lane_ifetch(inst.pc, cycle) < 0:
                exec_start = self._ifetch_miss(inst.pc, cycle)

        self.instructions += 1

        mcode = inst.mcode
        if mcode == 0:
            # Compute/branch — the common case. Mipsy retires it in one
            # cycle with no shared-state side effects, so the whole run
            # of such instructions is consumed in this tick: pull ahead
            # while the stream stays compute within the current fetch
            # line (a line crossing that hits keeps the run going via
            # the private I-cache probe; crossings that miss, memory
            # ops, and the program's end are left for their own tick at
            # the proper cycle — pulls are unobservable to the program
            # because all cross-CPU communication is value-gated
            # through the timed functional memory). Capped at the run's
            # batch horizon so truncation, pause and sampling see
            # exactly the unbatched stream.
            at = exec_start + 1
            if self._batchable:
                program = self.program
                horizon = self._batch_horizon
                line_shift = self._line_shift
                ifetch_lane = self._lane_ifetch
                batched = 0
                while at < horizon:
                    try:
                        inst = next(program)
                    except StopIteration:
                        self._exhausted = True
                        break
                    line = inst.pc >> line_shift
                    if line != self._fetch_line:
                        if ifetch_lane(inst.pc, at) < 0:
                            self._pending_inst = inst
                            break
                        self._fetch_line = line
                    if inst.mcode:
                        self._pending_inst = inst
                        break
                    batched += 1
                    at += 1
                if batched:
                    self.instructions += batched
                    if self._ckpt_log is not None:
                        self._ckpt_advances += batched
            self.resume = at
            return
        if mcode <= 2:  # LOAD / LL
            done = self._lane_load(inst.addr, exec_start)
            if done >= 0:
                # L1 hit: any cycles beyond one are L1 time (the
                # shared-L1 crossbar).
                stall = done - exec_start - 1
                if stall > 0:
                    self._stall(StallLevel.L1, exec_start, stall)
                if mcode == 2:
                    value = self.functional.load_linked(
                        self.cpu_id, inst.addr, done
                    )
                elif inst.want_value:
                    value = self.functional.read(
                        inst.addr, done, cpu=self.cpu_id
                    )
                else:
                    self.resume = done
                    return
                if inst.__class__ is SpinLoad:
                    if self._obs is not None:
                        self._spin_read(inst, value, done)
                    if (
                        value != inst.until
                        and done < self._batch_horizon
                        and inst.back.pc >> self._line_shift
                        == self._fetch_line
                        and self._batchable
                    ):
                        # A failed iteration of a declared spin: the
                        # back-branch retires here too (the replay log
                        # gets its pull and this value) and the load
                        # stays armed, so the thread program is only
                        # resumed with the value that ends the spin.
                        # Left to the program when batching is off,
                        # when the branch needs an I-fetch of its own,
                        # and at the run's horizon.
                        self.instructions += 1
                        self._pending_inst = inst
                        if self._ckpt_log is not None:
                            self._ckpt_log.append(value)
                            self._ckpt_advances += 1
                        retries = inst.retries
                        if retries is not None:
                            retries[0] += 1
                        if self._spin_port is None:
                            self.resume = done + 1
                        else:
                            self._spin_park(inst, done)
                        return
                self._has_value = True
                self._send_value = value
                self.resume = done
                return
            result = self.memory.access(
                self.cpu_id, AccessKind.LOAD, inst.addr, exec_start
            )
        elif mcode == 3:  # STORE
            if inst.value is None:
                # Value-less posted store: nothing to publish, so the
                # int-only lane applies. Any cycles beyond one are the
                # write buffer refusing entry (StallLevel.STOREBUF).
                done = self._lane_store(inst.addr, exec_start)
                if done >= 0:
                    stall = done - exec_start - 1
                    if stall > 0:
                        self._stall(StallLevel.STOREBUF, exec_start, stall)
                    self.resume = done
                    return
            result = self.memory.access(
                self.cpu_id, AccessKind.STORE, inst.addr, exec_start
            )
        else:  # SC
            result = self.memory.access(
                self.cpu_id, AccessKind.STORE_COND, inst.addr, exec_start
            )

        stall = result.done - exec_start - 1
        if stall > 0:
            self._stall(result.level, exec_start, stall)
        self.apply_memory_semantics(inst, result)
        self.resume = result.done

    # ------------------------------------------------------------------
    # stalls: the one way a Mipsy-family CPU charges one

    def _ifetch_miss(self, pc: int, cycle: int) -> int:
        """Fetch ``pc`` through the general path at ``cycle`` (the
        I-cache lane missed); charge any time beyond one cycle to
        ``istall`` and return the cycle the instruction executes."""
        done = self.memory.access(
            self.cpu_id, AccessKind.IFETCH, pc, cycle
        ).done
        if done - cycle <= 1:
            return cycle
        self.breakdown.istall += done - cycle - 1
        if self._obs is not None:
            self._obs.record_ifetch_miss(self.cpu_id, cycle, done - cycle)
        return done - 1

    def _stall(self, level: StallLevel, at: int, cycles: int) -> None:
        """A data access issued at ``at`` stalled ``cycles`` beyond its
        one cycle, served at ``level``: charge the breakdown
        (:meth:`~repro.sim.stats.CycleBreakdown.charge`) and tell an
        attached observation."""
        self.breakdown.charge(level, cycles)
        if self._obs is not None:
            self._obs.record_stall(self.cpu_id, level, at, cycles)

    # ------------------------------------------------------------------
    # spin-wait elision

    def _spin_park(self, inst: SpinLoad, done: int) -> None:
        """Set ``resume`` after a failed spin iteration whose load
        completed at ``done``, parking if the iterations that follow
        are already decided.

        They load at ``done + 1``, ``done + 3``, ... and read the word
        one cycle later. The first that can differ is the first whose
        read is at or past the earlier of the word's next change and
        the horizon; all before it fail alike.
        """
        resume = done + 1
        if self._spin_parked is not None:
            until = self.functional.stable_until(inst.addr, done, self.cpu_id)
            limit = min(until, self._batch_horizon)
            skipped = (limit - resume) >> 1
            if skipped > 0:
                self._spin_sleep(inst, resume, until)
                # (NEVER exactly, so the run loop can tell "nothing
                # pending" from a far deadline.)
                resume = NEVER if limit == NEVER else resume + 2 * skipped
        self.resume = resume

    def spin_wake(self, limit: int) -> None:
        """Leave the parked state, accounting for every iteration
        whose load cycle is below ``limit`` as if each had been
        issued: two instructions, one L1D read, one retry, the LRU
        touch (if the line is still there), for ``LL`` the reservation
        of the last one and, when recording, two pulls and the parking
        iteration's value in the replay log. The next iteration is
        issued for real at its own cycle."""
        base = self._spin_base
        count = (limit - base + 1) >> 1 if base < limit else 0
        base += 2 * count
        self.instructions += 2 * count
        if self._ckpt_log is not None:
            self._ckpt_advances += 2 * count
        self._spin_account(count, count, base - 1)
        self.resume = base

    def busy_cycles(self) -> int:
        """Busy cycles so far: one per instruction, flushed or not."""
        return (
            self.breakdown.busy
            + self._busy_pending
            + self.instructions
            - self._flushed_instructions
        )

    def flush_stats(self) -> None:
        """Fold retired-instruction counts into the stats objects.

        Every Mipsy instruction is exactly one busy cycle and one
        I-fetch, so the delta of ``instructions`` since the last flush
        feeds both counters (tick never touches the per-event pending
        slots). The base pending counters are still folded afterwards
        so externally restored values (checkpoint restore) land in the
        stats exactly once.
        """
        delta = self.instructions - self._flushed_instructions
        if delta:
            self._flushed_instructions = self.instructions
            self._l1i_stats.reads += delta
            self.breakdown.busy += delta
        super().flush_stats()
