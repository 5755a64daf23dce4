"""Capture the reference stream of a running simulation.

A :class:`TraceRecorder` wraps any
:class:`~repro.mem.hierarchy.MemorySystem`: every reference is noted
in its CPU's columns (see :mod:`repro.trace.format`) and forwarded
unchanged, so the simulation behaves identically while the trace
accumulates. Per-CPU issue order is all a trace keeps — the canonical
file groups by CPU and replay splits by CPU — so the recorder needs no
cross-CPU order and the CPU models may batch compute runs as usual.

The recorder forwards :meth:`MemorySystem.spin_port
<repro.mem.hierarchy.MemorySystem.spin_port>` too, so a CPU parks on a
spin loop while recording as it does otherwise. The loads a parked
CPU settles never reach the lanes; it reports them through
:meth:`~repro.mem.hierarchy.MemorySystem.spin_settled`, and the
recorder notes them as the LOAD rows the load lane would have noted,
at the same place in that CPU's columns.
"""

from __future__ import annotations

from array import array
from pathlib import Path

from repro.errors import CheckpointError
from repro.mem.hierarchy import MemorySystem
from repro.mem.types import AccessKind, AccessResult
from repro.trace.format import TraceRecord, write_columns

_IFETCH = int(AccessKind.IFETCH)
_LOAD = int(AccessKind.LOAD)
_STORE = int(AccessKind.STORE)


class TraceRecorder(MemorySystem):
    """Transparent recording proxy around a memory system."""

    def __init__(self, inner: MemorySystem) -> None:
        super().__init__(inner.config, inner.stats)
        self.name = inner.name
        self.inner = inner
        n_cpus = inner.config.n_cpus
        #: per-CPU kind codes, I-fetch rows included
        self.kinds = [array("b") for _ in range(n_cpus)]
        #: per-CPU addresses (an I-fetch row's address is its pc: the
        #: recorder has no other PC information at this layer)
        self.addrs = [array("q") for _ in range(n_cpus)]

    @property
    def records(self) -> list[TraceRecord]:
        """The captured stream as tuples, in canonical order."""
        return [
            TraceRecord(
                cpu, AccessKind(kind), addr, addr if kind == _IFETCH else 0
            )
            for cpu, columns in enumerate(zip(self.kinds, self.addrs))
            for kind, addr in zip(*columns)
        ]

    def access(
        self, cpu: int, kind: AccessKind, addr: int, at: int
    ) -> AccessResult:
        """Record the reference, then forward it unchanged."""
        self.kinds[cpu].append(kind)
        self.addrs[cpu].append(addr)
        return self.inner.access(cpu, kind, addr, at)

    # The base-class fast lane declines (-1), which would silently
    # disable the wrapped system's L1-hit fast lane for the whole run —
    # still correct (the lane declines into access()) but slow. Forward
    # the lane and record the references it resolves instead; declines
    # are *not* recorded here because the CPU retries them via access().

    def fast_lanes(self, cpu):
        """The inner system's bound lanes, each noting what it resolves.

        One extra frame per reference and no allocation.
        """
        note_kind = self.kinds[cpu].append
        note_addr = self.addrs[cpu].append

        def noting(lane, kind):
            def fast(addr, at):
                done = lane(addr, at)
                if done >= 0:
                    note_kind(kind)
                    note_addr(addr)
                return done

            return fast

        return tuple(
            map(noting, self.inner.fast_lanes(cpu), (_IFETCH, _LOAD, _STORE))
        )

    def spin_port(self, cpu: int):
        """Forwarded to the wrapped memory system."""
        return self.inner.spin_port(cpu)

    def spin_settled(self, cpu: int, addr: int, loads: int) -> None:
        """Note a parked spin's settled loads as that many LOAD rows."""
        self.kinds[cpu].extend(array("b", (_LOAD,)) * loads)
        self.addrs[cpu].extend(array("q", (addr,)) * loads)

    def drain(self, at: int) -> int:
        """Forwarded to the wrapped memory system."""
        return self.inner.drain(at)

    def resource_report(self, cycles: int) -> dict[str, float]:
        """Forwarded to the wrapped memory system."""
        return self.inner.resource_report(cycles)

    def attach_obs(self, obs) -> None:
        """Forwarded to the wrapped memory system."""
        self.inner.attach_obs(obs)

    def obs_probes(self) -> list[tuple]:
        """Forwarded to the wrapped memory system."""
        return self.inner.obs_probes()

    def components(self) -> dict:
        """A recording run cannot be checkpointed: the columns captured
        so far are not part of the snapshot wire format."""
        raise CheckpointError(
            "cannot checkpoint a system whose memory is a TraceRecorder"
        )

    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Write the captured trace to ``path`` in canonical order;
        returns the record count."""
        return write_columns(path, self.kinds, self.addrs)

    def __len__(self) -> int:
        return sum(map(len, self.kinds))


def record_run(system, path: str | Path | None = None) -> TraceRecorder:
    """Wrap ``system``'s memory with a recorder, run, optionally save.

    Returns the recorder (its columns hold the trace). The system must
    not have been run yet.
    """
    recorder = TraceRecorder(system.memory)
    system.memory = recorder
    for cpu in system.cpus:
        # Rebind (not just reassign): the CPUs hold fast-lane closures
        # from the original memory system and must get the recorder's
        # forwarding lanes instead.
        cpu.bind_memory(recorder)
    system.run()
    if path is not None:
        recorder.save(path)
    return recorder
