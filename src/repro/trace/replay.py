"""Replay a captured trace as a workload.

:class:`TraceWorkload` splits a trace into per-CPU reference streams
and replays each as a thread program: loads and stores are re-issued
at their recorded addresses; instruction fetches become the PC of the
following instructions, so the I-cache sees the recorded fetch stream.

Timing comes entirely from the *replaying* machine — the trace carries
no cycles — which is what makes replay useful for cache-geometry
sweeps and useless for studying synchronization (spin loops replay
their recorded length; see the package docstring).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.mem.functional import FunctionalMemory
from repro.mem.types import AccessKind
from repro.trace.format import Row, parse_rows, per_cpu_columns
from repro.workloads.base import Workload

#: pc used for references recorded without fetch context
_DEFAULT_PC = 0x0040_0000


class TraceWorkload(Workload):
    """Thread programs that re-issue a recorded reference stream."""

    name = "trace-replay"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        records: Iterable[Row] = (),
    ) -> None:
        super().__init__(n_cpus, functional)
        #: per-CPU columns of the stream (see :mod:`repro.trace.format`)
        self.kinds, self.addrs = per_cpu_columns(n_cpus, records)
        self.replayed = 0

    @classmethod
    def from_file(
        cls, n_cpus: int, functional: FunctionalMemory, path: str | Path
    ) -> "TraceWorkload":
        with Path(path).open() as handle:
            return cls(n_cpus, functional, parse_rows(handle))

    def program(self, cpu_id: int):
        """Re-issue this CPU's recorded reference stream."""
        from repro.isa.instructions import Instruction, OpClass

        pc = _DEFAULT_PC
        for kind, addr in zip(self.kinds[cpu_id], self.addrs[cpu_id]):
            if kind == AccessKind.IFETCH:
                # The fetch itself: subsequent references execute at
                # this pc. The pc stays *constant* until the next
                # recorded fetch, so the replaying CPU's line-crossing
                # probe fires exactly where the recorded stream fetched
                # — the I-cache sees the recorded stream, nothing more.
                pc = addr
                continue
            if kind == AccessKind.LOAD:
                op = OpClass.LOAD
            elif kind == AccessKind.STORE_COND:
                # Replayed SCs re-issue as SCs: the bus/coherence
                # traffic of a conditional store is reproduced, and
                # with no recorded reservations every replayed SC
                # fails deterministically (the recorded stream already
                # contains the retry references the original run made).
                op = OpClass.SC
            else:
                op = OpClass.STORE
            yield Instruction(op, pc=pc, addr=addr)
            self.replayed += 1


def replay_trace(
    path: str | Path,
    arch: str,
    n_cpus: int = 4,
    mem_config=None,
    max_cycles: int | None = 50_000_000,
):
    """Convenience: replay a trace file on an architecture.

    Returns the finished :class:`~repro.core.system.System`.
    """
    from repro.core.system import System

    functional = FunctionalMemory()
    workload = TraceWorkload.from_file(n_cpus, functional, path)
    system = System(
        arch,
        workload,
        cpu_model="mipsy",
        mem_config=mem_config,
        max_cycles=max_cycles,
    )
    system.run()
    return system
