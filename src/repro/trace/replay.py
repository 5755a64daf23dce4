"""Replay a captured trace as a workload.

A trace is a program source, not a second simulator.
:class:`TraceWorkload` holds a trace as packed per-CPU columns
(:class:`~repro.trace.kernel.PackedTrace`), and the ordinary
:class:`~repro.core.system.System` runs it: under Mipsy each CPU is a
:class:`TraceCpu` that replays one (kind, addr, pc) reference per tick
straight off its columns; under MXS a thread program re-issues the same
columns as :class:`~repro.isa.instructions.Instruction` records. Loads
and stores are re-issued at their recorded addresses, and each executes
at the pc of the most recent recorded fetch, so the I-cache sees the
recorded fetch stream less the fetches the fold drops (of adjacent
fetch rows only the last; see :class:`~repro.trace.kernel.PackedTrace`).

Timing comes entirely from the *replaying* machine — the trace carries
no cycles — which is what makes replay useful for cache-geometry
sweeps and useless for studying synchronization (spin loops replay
their recorded length; see the package docstring).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.cpu.mipsy import MipsyCpu
from repro.isa.instructions import Instruction, OpClass
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemConfig
from repro.mem.topology import natural_cpus
from repro.mem.types import AccessKind, StallLevel
from repro.trace.format import Row
from repro.trace.kernel import PackedTrace, load_packed
from repro.workloads.base import Workload

_LOAD = int(AccessKind.LOAD)
_STORE = int(AccessKind.STORE)
_SC = int(AccessKind.STORE_COND)

#: the op class each packed kind re-issues as (fetches are folded into pcs)
_OPS = (None, OpClass.LOAD, OpClass.STORE, OpClass.SC)


class TraceWorkload(Workload):
    """A recorded reference stream, replayed CPU by CPU.

    ``name`` is the recorded workload's where the caller knows it (a
    replayed :class:`~repro.core.runner.Job` does), so its result and
    its checkpoints say what was replayed; ``source`` names the trace
    file it came from, if any.
    """

    name = "trace-replay"
    source = None

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        records: Iterable[Row] = (),
    ) -> None:
        super().__init__(n_cpus, functional)
        #: the stream as per-CPU (kind, addr, pc) columns
        self.packed = PackedTrace(n_cpus, records)

    @classmethod
    def from_packed(
        cls,
        functional: FunctionalMemory,
        packed: PackedTrace,
        name: str | None = None,
        source: str | None = None,
    ) -> "TraceWorkload":
        """Replay an already decoded trace (shared, never modified)."""
        self = cls.__new__(cls)
        Workload.__init__(self, packed.n_cpus, functional)
        self.packed = packed
        if name is not None:
            self.name = name
        self.source = source
        return self

    @classmethod
    def from_file(
        cls, n_cpus: int, functional: FunctionalMemory, path: str | Path
    ) -> "TraceWorkload":
        """Replay the trace at ``path`` (decoded by
        :func:`~repro.trace.kernel.load_packed`)."""
        return cls.from_packed(functional, load_packed(n_cpus, path))

    def result_extras(self) -> dict:
        """A replayed run says so, and which trace it replayed."""
        return {
            "backend": "replay",
            "replay": {"trace": self.source, "references": len(self.packed)},
        }

    def program(self, cpu_id: int):
        """Re-issue this CPU's references as instructions — what an MXS
        CPU runs (a Mipsy one is a :class:`TraceCpu` instead).

        Replayed SCs re-issue as SCs: the bus/coherence traffic of a
        conditional store is reproduced, and with no recorded
        reservations every replayed SC fails deterministically (the
        recorded stream already contains the retry references the
        original run made).
        """
        packed = self.packed
        for kind, addr, pc in zip(
            packed.kinds[cpu_id], packed.addrs[cpu_id], packed.pcs[cpu_id]
        ):
            yield Instruction(_OPS[kind], pc=pc, addr=addr)


class TraceCpu(MipsyCpu):
    """A Mipsy CPU whose program is its packed trace columns.

    :meth:`tick` is :meth:`MipsyCpu.tick` for the one instruction a
    trace holds — a load, store or SC at a recorded address — read
    from the columns instead of pulled from a generator. Its cursor is
    ``instructions`` (a checkpoint needs nothing else to resume it),
    and the lanes are read off ``self`` each tick, so an observation's
    :meth:`~repro.cpu.base.BaseCpu.attach_obs` rebinding applies.
    """

    __slots__ = ("_kinds", "_addrs", "_pcs")

    def __init__(self, cpu_id, memory, functional, stats, packed) -> None:
        super().__init__(cpu_id, memory, functional, stats, None)
        self._kinds = packed.kinds[cpu_id]
        self._addrs = packed.addrs[cpu_id]
        self._pcs = packed.pcs[cpu_id]

    def tick(self, cycle: int) -> None:
        """Replay the next reference starting at ``cycle``; past the
        last one, finish without retiring anything (the tick where a
        generator would raise ``StopIteration``)."""
        index = self.instructions
        try:
            kind = self._kinds[index]
        except IndexError:
            self.done = True
            return
        addr = self._addrs[index]
        pc = self._pcs[index]
        self.instructions = index + 1

        exec_start = cycle
        fetch_line = pc >> self._line_shift
        if fetch_line != self._fetch_line:
            self._fetch_line = fetch_line
            if self._lane_ifetch(pc, cycle) < 0:
                fetch = self.memory.access(
                    self.cpu_id, AccessKind.IFETCH, pc, cycle
                )
                if fetch.done - cycle > 1:
                    self.breakdown.istall += fetch.done - cycle - 1
                    exec_start = fetch.done - 1
                    if self._obs is not None:
                        self._obs.record_ifetch_miss(
                            self.cpu_id, cycle, fetch.done - cycle
                        )

        if kind == _LOAD:
            done = self._lane_load(addr, exec_start)
            if done >= 0:
                stall = done - exec_start - 1
                if stall > 0:
                    self.breakdown.l1d += stall
                    if self._obs is not None:
                        self._obs.record_stall(
                            self.cpu_id, StallLevel.L1, exec_start, stall
                        )
                self.resume = done
                return
            result = self.memory.access(
                self.cpu_id, AccessKind.LOAD, addr, exec_start
            )
        elif kind == _STORE:
            done = self._lane_store(addr, exec_start)
            if done >= 0:
                stall = done - exec_start - 1
                if stall > 0:
                    self.breakdown.storebuf += stall
                    if self._obs is not None:
                        self._obs.record_stall(
                            self.cpu_id, StallLevel.STOREBUF, exec_start,
                            stall,
                        )
                self.resume = done
                return
            result = self.memory.access(
                self.cpu_id, AccessKind.STORE, addr, exec_start
            )
        else:
            result = self.memory.access(
                self.cpu_id, AccessKind.STORE_COND, addr, exec_start
            )

        breakdown = self.breakdown
        stall = result.done - exec_start - 1
        if stall > 0:
            level = result.level
            if level == StallLevel.L2:
                breakdown.l2 += stall
            elif level == StallLevel.MEM:
                breakdown.mem += stall
            elif level == StallLevel.C2C:
                breakdown.c2c += stall
            elif level == StallLevel.L1:
                breakdown.l1d += stall
            elif level == StallLevel.STOREBUF:
                breakdown.storebuf += stall
            else:
                breakdown.l1d += stall
            if self._obs is not None:
                self._obs.record_stall(self.cpu_id, level, exec_start, stall)
        if kind == _SC:
            # With no recorded reservation the SC fails and writes
            # nothing; the recorded stream holds the original retries.
            self.functional.store_conditional(
                self.cpu_id, addr, 0, result.visible_cycle
            )
        self.resume = result.done


def replay_trace(
    path: str | Path,
    arch: str,
    n_cpus: int | None = None,
    mem_config=None,
    max_cycles: int | None = 50_000_000,
):
    """Convenience: replay a trace file on an architecture.

    An omitted ``n_cpus`` is ``mem_config``'s count, or without one the
    preset's natural count (as for a :class:`~repro.core.runner.Job`);
    an omitted ``mem_config`` is the default
    :class:`~repro.mem.hierarchy.MemConfig` at that count. Returns the
    finished :class:`~repro.core.system.System`.
    """
    from repro.core.system import System

    if n_cpus is None:
        n_cpus = (
            mem_config.n_cpus if mem_config is not None
            else natural_cpus(arch)
        )
    if mem_config is None:
        mem_config = MemConfig(n_cpus=n_cpus)
    system = System(
        arch,
        TraceWorkload.from_file(n_cpus, FunctionalMemory(), path),
        cpu_model="mipsy",
        mem_config=mem_config,
        max_cycles=max_cycles,
    )
    system.run()
    return system
