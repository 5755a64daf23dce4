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

Spin-wait elision
-----------------

A waiting CPU still fetches, issues and graduates a load and a branch
every iteration of a declared spin
(:class:`~repro.isa.instructions.SpinLoad`), cycle for cycle, and the
value-dependent fetch still serializes it (``EXPERIMENTS.md``
deviation 5). The host does not re-simulate what cannot turn out
differently where the memory system declares the L1D private and
single-cycle (:meth:`~repro.mem.hierarchy.MemorySystem.spin_port`;
elsewhere every iteration goes through the thread program):

* a failed iteration (loaded value is not the exit value) is fetched
  by the CPU itself — the back-branch and the load again, when both fit
  the fetch group — so the thread program is resumed only with the
  value that ends the spin;
* an iteration whose pipeline state repeats the last one's, relative
  to its cycle and sequence number, has the CPU record one more period
  tick by tick and then *park* (:class:`~repro.cpu.base.BaseCpu`).
  :meth:`MxsCpu.spin_wake` settles whole periods by multiplication and
  restores the recorded state at the wake cycle's place in the period.

Only ``cpu._batchable = False`` makes MXS step every iteration through
the thread program — the reference the tests compare against.
"""

from __future__ import annotations

from collections import deque

from repro.cpu.base import BaseCpu
from repro.cpu.mxs.btb import BranchTargetBuffer
from repro.cpu.mxs.funits import UNITS, FunctionalUnits
from repro.errors import SimulationError
from repro.isa.instructions import (
    FU_INDEX,
    FU_LATENCY,
    Instruction,
    OpClass,
    SpinLoad,
)
from repro.mem.functional import NEVER
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

#: ``(part, attribute)`` of every counter a tick adds to, ``part`` an
#: attribute of the CPU or ``None`` for the CPU itself. ``mxs.fetched``
#: and ``mxs.graduated`` fold from ``_seq`` and ``instructions`` at
#: flush; the L1D reads of a spin's loads are the base class's.
_TICK_COUNTERS = (
    *(
        ("mxs", name)
        for name in (
            "cycles",
            "slots_lost_icache",
            "slots_lost_dcache",
            "slots_lost_pipeline",
            "branches",
            "mispredicts",
            "squashed",
            "issued",
            "window_occupancy_sum",
            "fetch_stall_cycles",
        )
    ),
    (None, "instructions"),
    (None, "_seq"),
    (None, "_ckpt_advances"),
    (None, "_ifetch_pending"),
    ("fus", "structural_stalls"),
    ("btb", "lookups"),
    ("btb", "hits"),
    ("mshrs", "merges"),
    ("mshrs", "allocations"),
    ("mshrs", "full_stalls"),
)


def _after(at: int, cycle: int) -> int | None:
    """``at`` relative to ``cycle`` (``None`` for "not yet known")."""
    return None if at >= _INF else at - cycle


def _at(after: int | None, cycle: int) -> int:
    return _INF if after is None else after + cycle


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


class _SpinWatch:
    """A declared spin the CPU runs itself, watched for a period to
    park on: the state after the tick that began an iteration (relative
    to its cycle and sequence number) and — once an iteration began in
    the same state — the counters there, the period's length, fetched
    records and ticks as they run."""

    __slots__ = (
        "spin", "cycle", "seq", "state", "counters", "reads",
        "period", "dseq", "ticks",
    )

    def __init__(self, spin, cycle, seq, state) -> None:
        self.spin = spin
        self.cycle = cycle
        self.seq = seq
        self.state = state
        self.counters = ()
        self.reads = 0
        self.period = 0
        self.dseq = 0
        #: ``(offset, counters, reads, state)`` per tick while recording
        self.ticks: list | None = None


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
        "_spin_failed",
        "_spin_watch",
        "_spin_period",
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
        # Spin-wait elision (see the module docstring): the declared
        # spin whose failed value is pending delivery, the watch for a
        # period to park on, and the recorded period while parked.
        self._spin_failed: SpinLoad | None = None
        self._spin_watch: _SpinWatch | None = None
        self._spin_period: tuple | None = None

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
        # The declared spin whose iteration this tick began, where the
        # CPU may park on it.
        began = None
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
                            spin = self._spin_failed
                            self._spin_failed = None
                            if spin is not None and self._spin_rerun(
                                spin, budget - fetched
                            ):
                                inst = spin.back
                                pending = spin
                                if self._spin_parked is not None:
                                    began = spin
                            else:
                                self._spin_watch = None
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
                elif inst.want_value:
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
        else:
            # Nothing happened: fast-forward to the next event,
            # attributing the skipped cycles' graduation slots to the
            # same cause.
            next_event = self._next_event_time(cycle)
            if next_event <= cycle + 1:
                self.resume = cycle + 1
            else:
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
        if began is not None or self._spin_watch is not None:
            self._spin_step(cycle, began)

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
                if inst.want_value:
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
                if inst.want_value:
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
            if inst.want_value:
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
        if (
            inst.__class__ is SpinLoad
            and value != inst.until
            and self._spin_port is not None
            and self._batchable
        ):
            # A failed iteration where the CPU may park: fetch may run
            # the next one itself.
            self._spin_failed = inst
        self.deliver_value(value)
        if record is self._blocked_record:
            self._fetch_unblock = record.done
            self._blocked_record = None

    # ------------------------------------------------------------------
    # spin-wait elision

    def _spin_rerun(self, spin: SpinLoad, room: int) -> bool:
        """Whether fetch runs the failed iteration of ``spin`` itself:
        its back-branch and the load again, which it does when both fit
        this fetch group — room for two, the branch on the current
        fetch line (no I-fetch of its own) and predicted taken to the
        load. The replay log then gets the load's pull here (the value
        and the branch's pull are logged as for any pull) and the
        owning primitive its retry."""
        back = spin.back
        if room < 2 or back.pc >> self._line_shift != self._fetch_line:
            return False
        tag, target, counter = self.btb.entry(back.pc)
        if tag != back.pc or counter < 2 or target != back.target:
            return False
        if self._ckpt_log is not None:
            self._ckpt_advances += 1
        retries = spin.retries
        if retries is not None:
            retries[0] += 1
        return True

    def _spin_counters(self) -> tuple:
        return tuple(
            getattr(self if part is None else getattr(self, part), name)
            for part, name in _TICK_COUNTERS
        )

    def _spin_state(self, spin: SpinLoad, cycle: int, seq: int) -> tuple:
        """The pipeline relative to ``cycle`` and ``seq``: records
        (producer links by sequence number, or a producer's completion
        once it left the ROB), fetch state, the cycle's claimed units,
        MSHRs, ``resume`` and the back-branch's BTB entry."""
        rob = self.rob
        first = rob[0].seq if rob else seq

        def link(producer):
            if producer is None:
                return None
            if producer.seq >= first:
                return producer.seq - seq
            return (_after(producer.done, cycle),)

        blocked = self._blocked_record
        fus = self.fus
        return (
            tuple(
                (
                    record.seq - seq,
                    record.inst,
                    _after(record.done, cycle),
                    record.dcache_miss,
                    record.extra_hit_latency,
                    record.mispredicted,
                    link(record.dep1),
                    link(record.dep2),
                )
                for record in rob
            ),
            tuple(record.seq - seq for record in self._unissued),
            None if blocked is None else blocked.seq - seq,
            self._fetch_line,
            _after(self._fetch_unblock, cycle),
            self._fetch_reason,
            self._pending_inst,
            self._has_value,
            self._send_value,
            self._spin_failed,
            self.resume - cycle,
            fus.cycle - cycle,
            tuple(fus.free),
            tuple(sorted(
                (line, done - cycle)
                for line, done in self.mshrs._entries.items()
            )),
            self.btb.entry(spin.back.pc),
        )

    def _spin_restore(self, state: tuple, cycle: int, seq: int) -> None:
        """Put back a :meth:`_spin_state` taken relative to another
        cycle and sequence number, here relative to these."""
        (
            rows, unissued, blocked, self._fetch_line, unblock,
            self._fetch_reason, self._pending_inst, self._has_value,
            self._send_value, self._spin_failed, resume, fus_cycle, free,
            entries, _btb,
        ) = state
        records = {}

        def link(held):
            if held is None:
                return None
            if held.__class__ is int:
                return records[held + seq]
            gone = _Record(-1, None)
            gone.done = _at(held[0], cycle)
            return gone

        rob = self.rob
        rob.clear()
        for rel, inst, done, miss, extra, mispredicted, dep1, dep2 in rows:
            record = _Record(rel + seq, inst)
            record.done = _at(done, cycle)
            record.dcache_miss = miss
            record.extra_hit_latency = extra
            record.mispredicted = mispredicted
            record.dep1 = link(dep1)
            record.dep2 = link(dep2)
            records[record.seq] = record
            rob.append(record)
        self._unissued[:] = [records[rel + seq] for rel in unissued]
        self._blocked_record = (
            None if blocked is None else records[blocked + seq]
        )
        self._fetch_unblock = _at(unblock, cycle)
        self.resume = resume + cycle
        self.fus.cycle = fus_cycle + cycle
        self.fus.free[:] = free
        self.mshrs.load({line: done + cycle for line, done in entries})

    def _spin_step(self, cycle: int, began: SpinLoad | None) -> None:
        """Watch the spin this CPU runs itself for a period to park on;
        runs after a tick that ``began`` an iteration (fetched its
        back-branch) and after every tick while a watch is open.

        An iteration that begins in the state the previous one began
        in, relative to cycle and sequence number, opens the record of
        one period: every tick's counters and relative state up to the
        next iteration. If that one begins in the same state again, the
        CPU parks (:meth:`_spin_park`)."""
        watch = self._spin_watch
        if began is None:
            if watch.ticks is not None:
                offset = cycle - watch.cycle
                if offset < watch.period:
                    watch.ticks.append((
                        offset,
                        self._spin_counters(),
                        self._spin_port[1].reads,
                        self._spin_state(watch.spin, watch.cycle, watch.seq),
                    ))
                else:
                    self._spin_watch = None
            return
        seq = self._seq
        state = self._spin_state(began, cycle, seq)
        fresh = _SpinWatch(began, cycle, seq, state)
        if watch is not None and watch.spin is began and watch.state == state:
            if watch.ticks is None:
                # A repeat: record the period that starts here.
                fresh.counters = self._spin_counters()
                fresh.reads = self._spin_port[1].reads
                fresh.period = cycle - watch.cycle
                fresh.dseq = seq - watch.seq
                fresh.ticks = []
            elif (cycle - watch.cycle, seq - watch.seq) == (
                watch.period, watch.dseq
            ):
                watch.ticks.append((
                    watch.period,
                    self._spin_counters(),
                    self._spin_port[1].reads,
                    self._spin_state(began, watch.cycle, watch.seq),
                ))
                if self._spin_park(cycle, watch):
                    return
        self._spin_watch = fresh

    def _spin_park(self, cycle: int, watch: _SpinWatch) -> bool:
        """Park at the end of a recorded period if the periods after it
        are decided; returns whether it did.

        The period must issue the spin's load exactly once, at some
        offset; later periods issue it at ``cycle + k * period +
        offset`` and read the word one cycle later (``spin_port``). The
        first that may read otherwise is the first whose read is at or
        past the earlier of the word's next change and the horizon,
        and it is issued for real."""
        previous = watch.reads
        load = 0
        for offset, _counters, reads, _state in watch.ticks:
            if reads != previous:
                if load or reads != previous + 1:
                    return False
                load = offset
            previous = reads
        spin = watch.spin
        if not load or self._spin_port[0].find(
            spin.addr >> self._line_shift
        ) < 0:
            # (The line can leave between the period's load and now.)
            return False
        period = watch.period
        until = self.functional.stable_until(
            spin.addr, cycle - period + load + 1, self.cpu_id
        )
        horizon = self._batch_horizon
        if until == NEVER:
            resume = horizon
        else:
            first = cycle + load
            periods = max(0, -(-(until - first - 1) // period))
            resume = min(first + periods * period, horizon)
        if resume <= cycle + period:
            return False
        start = watch.counters
        self._spin_period = (
            cycle,
            self._seq,
            watch.ticks[-1][1],
            [
                (offset, [a - b for a, b in zip(counters, start)], state)
                for offset, counters, _reads, state in watch.ticks
            ],
            period,
            watch.dseq,
            load,
        )
        self._spin_watch = None
        self._spin_sleep(spin, cycle + 1, until)
        # (NEVER exactly when nothing is pending, so the run loop can
        # tell a hang from a far deadline.)
        self.resume = resume
        return True

    def spin_wake(self, limit: int) -> None:
        """Leave the parked state, settled as if every tick below
        ``limit`` had run: whole periods by multiplication, then the
        recorded tick the last one repeats, whose relative state is
        restored at its place — the pipeline resumes exactly where
        stepping would be. Ticks after the park run at ``cycle + m *
        period + offset`` for the recorded offsets in ``(0, period]``;
        the one at ``period`` begins the next iteration."""
        cycle, seq, counters, ticks, period, dseq, load = self._spin_period
        self._spin_period = None
        last = limit - 1 - cycle
        if last >= 1:
            periods, last = divmod(last - 1, period)
            last += 1
        else:
            periods = last = 0
        index = len(ticks) - 1
        while index >= 0 and ticks[index][0] > last:
            index -= 1
        if index < 0:
            # The last tick below ``limit`` began the period.
            periods -= 1
            index = len(ticks) - 1
        offset, deltas, state = ticks[index]
        full = ticks[-1][1]
        for (part, name), value, whole, prefix in zip(
            _TICK_COUNTERS, counters, full, deltas
        ):
            setattr(
                self if part is None else getattr(self, part),
                name,
                value + periods * whole + prefix,
            )
        base = cycle + periods * period
        self._spin_restore(state, base, seq + periods * dseq)
        loaded = offset >= load
        self._spin_account(
            periods + loaded,
            periods + (offset == period),
            base + load + 1 - (0 if loaded else period),
        )

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
        (the stalled-fetch I-fetches ride ``_ifetch_pending``). An open
        spin watch closes: it records counters a flush moves.
        """
        self._spin_watch = None
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
