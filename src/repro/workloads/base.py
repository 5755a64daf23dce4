"""Workload framework.

A workload owns the simulated program: its code layout, its data
layout, its synchronization objects, and one *thread program* per CPU.
A thread program is a generator of
:class:`~repro.isa.instructions.Instruction` records; it executes the
real algorithm on synthetic data in Python and emits the instructions
(with genuine addresses) a compiled version would execute.

The :class:`ThreadContext` carries per-thread emitter cursors for the
*shared* code regions (two CPUs inside the same library routine are at
the same PCs, as they would be on real hardware), plus the per-thread
state synchronization primitives need (e.g. the barrier sense).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from repro.errors import WorkloadError
from repro.isa.codegen import CodeRegion, CodeSpace
from repro.isa.instructions import Instruction
from repro.isa.stream import Emitter
from repro.mem.functional import FunctionalMemory
from repro.workloads.layout import AddressSpace


def shard(n_items: int, n_cpus: int, cpu_id: int) -> range:
    """Balanced contiguous block of items owned by ``cpu_id``.

    The first ``n_items % n_cpus`` CPUs take one extra item, so any
    CPU count decomposes deterministically; when ``n_cpus`` divides
    ``n_items`` the split is the classic even one (workloads that
    relied on even division keep their exact historical schedules).
    CPUs beyond ``n_items`` receive an empty range and just take part
    in the barriers.
    """
    base, extra = divmod(n_items, n_cpus)
    start = cpu_id * base + min(cpu_id, extra)
    return range(start, start + base + (1 if cpu_id < extra else 0))


class ThreadContext:
    """Per-CPU execution context handed to thread programs."""

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        self._emitters: dict[str, Emitter] = {}
        #: per-thread barrier sense, keyed by barrier name
        self.senses: dict[str, int] = {}

    def emitter(self, region: CodeRegion) -> Emitter:
        """This thread's cursor into a (possibly shared) code region."""
        emitter = self._emitters.get(region.name)
        if emitter is None:
            emitter = Emitter(region)
            self._emitters[region.name] = emitter
        return emitter


class Workload(ABC):
    """One benchmark: code + data layout and a program per CPU."""

    #: short identifier used in reports and the experiment matrix
    name: str = "abstract"

    def __init__(self, n_cpus: int, functional: FunctionalMemory) -> None:
        if n_cpus <= 0:
            raise WorkloadError("n_cpus must be positive")
        self.n_cpus = n_cpus
        self.functional = functional
        self.code = CodeSpace()
        self.data = AddressSpace()

    @abstractmethod
    def program(self, cpu_id: int) -> Iterator[Instruction]:
        """The thread program for ``cpu_id``."""

    def context(self, cpu_id: int) -> ThreadContext:
        """A fresh per-CPU execution context."""
        return ThreadContext(cpu_id)

    def validate(self) -> None:
        """Optional post-run check that the computation was performed.

        Workloads that compute a checkable result (e.g. the FFT kernel)
        override this and raise :class:`WorkloadError` on corruption.
        """

    def generation_report(self) -> dict[str, int]:
        """Host-side tallies of the stretches (:mod:`repro.isa.stream`)
        this workload's thread programs used — never simulation output:
        instructions ``generated`` into stretches, and instructions
        ``replayed`` from one instead of being derived again."""
        return {
            "generated": sum(region.generated for region in self.code),
            "replayed": sum(region.replayed for region in self.code),
        }

    def result_extras(self) -> dict:
        """What a run's result record carries about this workload
        beyond its statistics and reports (nothing, for a generated
        one)."""
        return {}

    def sync_objects(self) -> dict[str, object]:
        """Name → primitive for every lock, barrier, task queue and
        atomic counter this workload (or its sub-objects, two levels
        deep) holds, a barrier's inner lock included — the one walk
        :meth:`sync_report` and checkpointing share."""
        from repro.sync import AtomicCounter, Barrier, SpinLock, TaskQueue

        found: dict[str, object] = {}
        seen: set[int] = set()

        def visit(obj: object, depth: int) -> None:
            if id(obj) in seen or depth > 2:
                return
            seen.add(id(obj))
            if isinstance(obj, (SpinLock, TaskQueue, AtomicCounter)):
                found[obj.name] = obj
            elif isinstance(obj, Barrier):
                found[obj.name] = obj
                visit(obj.lock, depth)
            elif hasattr(obj, "__dict__") and depth < 2:
                for value in vars(obj).values():
                    if isinstance(value, (list, tuple)):
                        for item in value:
                            visit(item, depth + 1)
                    else:
                        visit(value, depth + 1)

        visit(self, 0)
        return found

    def sync_report(self) -> dict[str, dict]:
        """Statistics from every primitive :meth:`sync_objects` finds.

        Keys are the primitives' names; values describe their kind and
        traffic — lock acquires and contended retries, barrier
        episodes, task-queue pops and steals, SC failures.
        """
        from repro.sync import Barrier, SpinLock, TaskQueue

        report: dict[str, dict] = {}
        for name, obj in self.sync_objects().items():
            if isinstance(obj, SpinLock):
                report[name] = {
                    "kind": "lock",
                    "acquires": obj.acquires,
                    "contended_retries": obj.contended_retries,
                }
            elif isinstance(obj, Barrier):
                report[name] = {"kind": "barrier", "episodes": obj.episodes}
            elif isinstance(obj, TaskQueue):
                report[name] = {
                    "kind": "taskqueue",
                    "pops": obj.pops,
                    "steals": obj.steals,
                }
            else:
                report[name] = {
                    "kind": "counter",
                    "sc_failures": obj.sc_failures,
                }
        return report
