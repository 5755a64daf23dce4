"""The MXS pipeline: fetch / issue / execute / graduate.

The model follows Section 2.1 of the paper: a decoupled pipeline in
which up to two instructions per cycle enter a 32-entry centralized
window, issue out of order as their operands become ready (limited by
two copies of every functional unit except the single memory data
port), and graduate in order, two per cycle, from a 32-entry reorder
buffer. The data cache is non-blocking with four MSHRs; branches are
predicted with a 1024-entry BTB and a misprediction stalls fetch until
the branch resolves (wrong-path fetch bubbles — the first-order cost of
speculation; wrong-path cache pollution is not modeled, see DESIGN.md).

IPC-loss accounting (Figure 11): every cycle offers ``width``
graduation slots; unfilled slots are attributed to the reason the ROB
head (or, with an empty ROB, the fetch stage) is blocked —
instruction-cache stall, data-cache stall, or pipeline stall. The extra
shared-L1 hit latency and bank contention appear as pipeline stalls,
exactly as the paper counts them.
"""

from __future__ import annotations

from collections import deque

from repro.cpu.base import BaseCpu
from repro.cpu.mxs.btb import BranchTargetBuffer
from repro.cpu.mxs.funits import UNITS, FunctionalUnits
from repro.errors import SimulationError
from repro.isa.instructions import FU_INDEX, FU_LATENCY, Instruction, OpClass
from repro.mem.mshr import MshrFile
from repro.mem.types import AccessKind, StallLevel

_INF = 1 << 60

#: StallLevel values that mean "the data cache missed".
_MISS_LEVELS = frozenset(
    (StallLevel.L2, StallLevel.MEM, StallLevel.C2C)
)

#: Fetch-block reasons.
_BLOCK_ICACHE = "icache"
_BLOCK_BRANCH = "branch"
_BLOCK_VALUE = "value"

#: Lost-graduation-slot causes (Figure 11's three stall classes).
_LOST_PIPELINE = 0
_LOST_DCACHE = 1
_LOST_ICACHE = 2

_BRANCH = OpClass.BRANCH
_BRANCH_LATENCY = FU_LATENCY[_BRANCH]

#: ``Instruction.mcode`` values.
_LOAD, _LL, _STORE, _SC = 1, 2, 3, 4


class _Record:
    """One in-flight instruction in the window/ROB.

    ``done`` is ``_INF`` until the instruction issues, so "issued" and
    "result ready at cycle c" are both one comparison on it. ``dep1``
    and ``dep2`` link to the producers of the source operands while
    those are still in flight; select clears each link the first time
    it finds the producer ready, so an issued record links to nothing.
    """

    __slots__ = (
        "seq",
        "inst",
        "done",
        "dcache_miss",
        "extra_hit_latency",
        "mispredicted",
        "dep1",
        "dep2",
    )

    def __init__(self, seq: int, inst: Instruction) -> None:
        self.seq = seq
        self.inst = inst
        self.done = _INF
        self.dcache_miss = False
        self.extra_hit_latency = False
        self.mispredicted = False
        self.dep1: _Record | None = None
        self.dep2: _Record | None = None

    @property
    def issued(self) -> bool:
        return self.done != _INF


class MxsCpu(BaseCpu):
    """2-way dynamic superscalar with non-blocking data cache."""

    __slots__ = (
        "params",
        "btb",
        "fus",
        "mshrs",
        "mxs",
        "rob",
        "_unissued",
        "_width",
        "_window",
        "_rob_size",
        "_fetch_width",
        "_seq",
        "_flushed_seq",
        "_flushed_instructions",
        "_fetch_line",
        "_fetch_unblock",
        "_fetch_reason",
        "_blocked_record",
        "_pending_inst",
        "_program_done",
    )

    def __init__(self, *args, params=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.core.configs import CpuParams

        self.params = params or CpuParams()
        self._width = self.params.width
        self._window = self.params.window
        self._rob_size = self.params.rob
        self._fetch_width = self.params.fetch_width
        self.btb = BranchTargetBuffer(self.params.btb_entries)
        self.fus = FunctionalUnits()
        self.mshrs = MshrFile(self.params.mshrs)
        self.mxs = self.stats.mxs[self.cpu_id]
        self.rob: deque[_Record] = deque()
        # The ROB's not-yet-issued records, oldest first: all select
        # ever looks at.
        self._unissued: list[_Record] = []
        self._seq = 0
        # Every record is one fetched instruction and one I-fetch, and
        # every graduation one retired instruction, so tick() bumps
        # only ``_seq``/``instructions`` and flush_stats() folds the
        # deltas since the last flush into the stats objects.
        self._flushed_seq = 0
        self._flushed_instructions = 0
        self._fetch_line = -1
        # Fetch may run once this cycle arrives; ``_INF`` while a
        # mispredicted branch or value-producing access
        # (``_blocked_record``) is unresolved.
        self._fetch_unblock = 0
        self._fetch_reason: str | None = None
        self._blocked_record: _Record | None = None
        self._pending_inst: Instruction | None = None
        self._program_done = False

    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """One pipeline cycle: graduate, issue, fetch, then pick the
        next cycle this CPU can make progress.

        Graduation, lost-slot attribution, select with the
        functional-unit claim, and fetch with the generator pull all
        run inline here: one Python call per cycle on the simulator's
        second-hottest path, plus one per memory op or branch issued.
        """
        mxs = self.mxs
        rob = self.rob
        width = self._width
        mxs.cycles += 1
        mxs.window_occupancy_sum += len(rob)

        # Graduate in order, up to ``width`` completed heads.
        graduated = 0
        while rob and rob[0].done <= cycle:
            rob.popleft()
            graduated += 1
            if graduated == width:
                break
        lost_reason = _LOST_PIPELINE
        if graduated:
            self.instructions += graduated
        if graduated < width:
            # Charge the unfilled slots to whatever blocks the ROB head
            # (or, with an empty ROB, the fetch stage). Unready
            # dependences, FU latency, branch resolution, the extra
            # shared-L1 hit time and bank contention are all pipeline.
            lost = width - graduated
            if rob:
                if rob[0].dcache_miss:
                    lost_reason = _LOST_DCACHE
                    mxs.slots_lost_dcache += lost
                else:
                    mxs.slots_lost_pipeline += lost
            elif self._fetch_reason == _BLOCK_ICACHE:
                lost_reason = _LOST_ICACHE
                mxs.slots_lost_icache += lost
            else:
                mxs.slots_lost_pipeline += lost

        # Select: oldest first among the unissued records inside the
        # window (the first ``window`` ROB positions), up to ``width``.
        issued = 0
        unissued = self._unissued
        if unissued:
            limit = rob[0].seq + self._window
            fus = self.fus
            free = fus.free
            fu_stale = True
            stalls = 0
            picked = []
            for record in unissued:
                if record.seq >= limit:
                    break
                producer = record.dep1
                if producer is not None:
                    if producer.done > cycle:
                        continue
                    record.dep1 = None
                producer = record.dep2
                if producer is not None:
                    if producer.done > cycle:
                        continue
                    record.dep2 = None
                inst = record.inst
                op = inst.op
                # FunctionalUnits.try_issue, inlined.
                kind = FU_INDEX[op]
                if fu_stale:
                    fu_stale = False
                    fus.cycle = cycle
                    free[:] = UNITS
                units = free[kind]
                if not units:
                    stalls += 1
                    continue
                free[kind] = units - 1
                if inst.mcode:
                    if not self._issue_memory(record, cycle):
                        # MSHRs full — leave it in the window (the
                        # memory port stays claimed for this cycle).
                        continue
                elif op is _BRANCH:
                    self._issue_branch(record, cycle)
                else:
                    record.done = cycle + FU_LATENCY[op]
                picked.append(record)
                issued += 1
                if issued == width:
                    break
            if stalls:
                fus.structural_stalls += stalls
            if issued:
                mxs.issued += issued
                for record in picked:
                    unissued.remove(record)

        # Fetch up to ``fetch_width`` instructions into the ROB, unless
        # blocked (I-cache refill, unresolved branch or value) or done.
        fetched = 0
        if self._fetch_unblock <= cycle and not self._program_done:
            self._fetch_reason = None
            budget = self._rob_size - len(rob)
            if budget > self._fetch_width:
                budget = self._fetch_width
            pending = self._pending_inst
            if pending is not None:
                self._pending_inst = None
            ckpt_log = self._ckpt_log
            seq = self._seq
            while fetched < budget:
                if pending is not None:
                    inst = pending
                    pending = None
                else:
                    # BaseCpu.next_instruction, inlined.
                    try:
                        if self._has_value:
                            self._has_value = False
                            value, self._send_value = self._send_value, None
                            if ckpt_log is not None:
                                ckpt_log.append(value)
                            inst = self.program.send(value)
                        else:
                            self._started = True
                            inst = next(self.program)
                    except StopIteration:
                        self._program_done = True
                        break
                    if ckpt_log is not None:
                        self._ckpt_advances += 1
                line = inst.pc >> self._line_shift
                if line != self._fetch_line:
                    self._fetch_line = line
                    if self._lane_ifetch(inst.pc, cycle) < 0:
                        result = self.memory.access(
                            self.cpu_id, AccessKind.IFETCH, inst.pc, cycle
                        )
                        if result.done - cycle > 1:
                            self._pending_inst = inst
                            self._fetch_unblock = result.done
                            self._fetch_reason = _BLOCK_ICACHE
                            # This attempt's I-fetch; the retry counts
                            # again with the record it then creates.
                            self._ifetch_pending += 1
                            if self._obs is not None:
                                self._obs.record_ifetch_miss(
                                    self.cpu_id, cycle, result.done - cycle
                                )
                            break
                record = _Record(seq, inst)
                # Wake-up links: a producer ``offset`` instructions back
                # is ``rob[-offset]`` while it is still in the ROB; one
                # that already graduated is ready by construction.
                in_flight = len(rob)
                offset = inst.src1
                if offset and offset <= in_flight:
                    producer = rob[-offset]
                    if producer.done > cycle:
                        record.dep1 = producer
                offset = inst.src2
                if offset and offset <= in_flight:
                    producer = rob[-offset]
                    if producer.done > cycle:
                        record.dep2 = producer
                rob.append(record)
                unissued.append(record)
                seq += 1
                fetched += 1

                if inst.op is _BRANCH:
                    mxs.branches += 1
                    if not self.btb.correct(inst.pc, inst.taken, inst.target):
                        mxs.mispredicts += 1
                        record.mispredicted = True
                        self._blocked_record = record
                        self._fetch_unblock = _INF
                        self._fetch_reason = _BLOCK_BRANCH
                        break
                elif (
                    inst.want_value
                    or inst.mcode == _LL
                    or inst.mcode == _SC
                ):
                    # The program needs this value to generate what
                    # follows.
                    self._blocked_record = record
                    self._fetch_unblock = _INF
                    self._fetch_reason = _BLOCK_VALUE
                    break
            self._seq = seq
        if fetched == 0 and not self._program_done:
            mxs.fetch_stall_cycles += 1

        if self._program_done and not rob:
            self.done = True
            return

        if graduated or issued or fetched:
            self.resume = cycle + 1
            return

        # Nothing happened: fast-forward to the next event, attributing
        # the skipped cycles' graduation slots to the same cause.
        next_event = self._next_event_time(cycle)
        if next_event <= cycle + 1:
            self.resume = cycle + 1
            return
        span = next_event - cycle - 1
        mxs.cycles += span
        mxs.window_occupancy_sum += len(rob) * span
        if lost_reason == _LOST_ICACHE:
            mxs.slots_lost_icache += width * span
        elif lost_reason == _LOST_DCACHE:
            mxs.slots_lost_dcache += width * span
        else:
            mxs.slots_lost_pipeline += width * span
        self.resume = next_event

    # ------------------------------------------------------------------
    # issue

    def _issue_branch(self, record: _Record, cycle: int) -> None:
        inst = record.inst
        record.done = cycle + _BRANCH_LATENCY
        self.btb.update(inst.pc, inst.taken, inst.target)
        if record is self._blocked_record:
            # Mispredicted: fetch restarts when the branch resolves.
            if self.params.wrong_path_fetch:
                self._fetch_wrong_path(record, cycle)
            self._fetch_unblock = record.done
            self._blocked_record = None

    def _fetch_wrong_path(self, record: _Record, cycle: int) -> None:
        """Fetch down the predicted (wrong) path until the branch
        resolves: the squashed instructions cost nothing directly, but
        their I-cache fills pollute the cache and occupy the refill
        path — the second-order misprediction cost the default model
        omits."""
        inst = record.inst
        predicted_taken, predicted_target = self.btb.predict(inst.pc)
        wrong_pc = predicted_target if predicted_taken else inst.pc + 4
        if wrong_pc == 0:
            wrong_pc = inst.pc + 4
        line_bytes = 1 << self._line_shift
        # One wrong-path line per fetchable group of stall cycles.
        stall = max(record.done - cycle, 1)
        lines = max(stall * self._fetch_width * 4 // line_bytes, 1)
        for index in range(min(lines, 4)):
            addr = wrong_pc + index * line_bytes
            self.memory.access(self.cpu_id, AccessKind.IFETCH, addr, cycle)
            self.mxs.squashed += self._fetch_width

    def _issue_memory(self, record: _Record, cycle: int) -> bool:
        inst = record.inst
        mcode = inst.mcode
        memory = self.memory
        if mcode <= _LL:  # LOAD / LL
            line = inst.addr >> self._line_shift
            mshrs = self.mshrs
            mshrs.retire(cycle)
            pending = mshrs.probe(line)
            if pending is not None and pending > cycle:
                # Merge with the in-flight fill of the same line.
                mshrs.allocate(line, pending)  # counts the merge
                record.done = pending
                record.dcache_miss = True
                if inst.want_value or mcode == _LL:
                    self._resolve_value(record, pending)
                return True
            # L1 hit fast lane. Only after the MSHR probe: a line with
            # an in-flight fill is already resident (fills insert at
            # access time), so probing the tags first would turn a
            # merge into a bogus 1-cycle hit.
            done = self._lane_load(inst.addr, cycle)
            if done >= 0:
                record.done = done
                if done - cycle > 1:
                    record.extra_hit_latency = True
                if inst.want_value or mcode == _LL:
                    self._resolve_value(record, done)
                return True
            result = memory.access(
                self.cpu_id, AccessKind.LOAD, inst.addr, cycle
            )
            if result.level in _MISS_LEVELS:
                if mshrs.full:
                    # Cannot track the miss; replay next cycle. The
                    # access already reserved resources — accepted
                    # imprecision of eager reservation, rare with a
                    # 4-entry file.
                    return False
                mshrs.allocate(line, result.done)
                record.dcache_miss = True
                if self._obs is not None:
                    self._obs.record_stall(
                        self.cpu_id, result.level, cycle, result.done - cycle
                    )
            elif result.level == StallLevel.L1:
                record.extra_hit_latency = True
            record.done = result.done
            if inst.want_value or mcode == _LL:
                self._resolve_value(record, result.done)
            return True

        # Stores and SCs.
        if mcode == _STORE and inst.value is None:
            # Value-less posted store: the ROB retires it next cycle
            # regardless of the drain, so only the cache/buffer state
            # changes matter — exactly what the fast lane performs.
            if self._lane_store(inst.addr, cycle) >= 0:
                record.done = cycle + 1
                return True
        kind = AccessKind.STORE_COND if mcode == _SC else AccessKind.STORE
        result = memory.access(self.cpu_id, kind, inst.addr, cycle)
        if mcode == _SC:
            # The SC outcome gates the program: complete at visibility.
            record.done = result.visible_cycle
            success = self.functional.store_conditional(
                self.cpu_id, inst.addr, inst.value or 0, result.visible_cycle
            )
            self.deliver_value(1 if success else 0)
            if record is self._blocked_record:
                self._fetch_unblock = record.done
                self._blocked_record = None
        else:
            # Plain stores retire from the write buffer's perspective:
            # the ROB does not wait for the line.
            record.done = cycle + 1
            if inst.value is not None:
                self.functional.write(
                    inst.addr,
                    inst.value,
                    result.visible_cycle,
                    cpu=self.cpu_id,
                )
        return True

    def _resolve_value(self, record: _Record, done: int) -> None:
        """Produce the loaded value for a want_value load or LL."""
        inst = record.inst
        if inst.mcode == _LL:
            value = self.functional.load_linked(self.cpu_id, inst.addr, done)
        else:
            value = self.functional.read(inst.addr, done, cpu=self.cpu_id)
        if self._obs is not None:
            self._spin_read(inst, value, done)
        self.deliver_value(value)
        if record is self._blocked_record:
            self._fetch_unblock = record.done
            self._blocked_record = None

    # ------------------------------------------------------------------

    def _next_event_time(self, cycle: int) -> int:
        """Earliest future cycle at which pipeline state can change."""
        earliest = _INF
        for record in self.rob:
            if cycle < record.done < earliest:
                earliest = record.done
        if (
            not self._program_done
            and cycle < self._fetch_unblock < earliest
        ):
            earliest = self._fetch_unblock
        if earliest == _INF:
            return cycle + 1
        return earliest

    def flush_stats(self) -> None:
        """Fold fetched/graduated counts into the stats objects.

        Each record is one fetched instruction and one I-fetch, each
        graduation one retired instruction, so the deltas of ``_seq``
        and ``instructions`` since the last flush feed those counters
        (the stalled-fetch I-fetches ride ``_ifetch_pending``).
        """
        delta = self._seq - self._flushed_seq
        if delta:
            self._flushed_seq = self._seq
            self._l1i_stats.reads += delta
            self.mxs.fetched += delta
        delta = self.instructions - self._flushed_instructions
        if delta:
            self._flushed_instructions = self.instructions
            self.mxs.graduated += delta
        super().flush_stats()

    def finish(self, cycle: int) -> None:
        """End-of-run invariant: the reorder buffer must have drained."""
        if self.rob:
            raise SimulationError(
                f"cpu {self.cpu_id} finished with {len(self.rob)} "
                "instructions in flight"
            )
