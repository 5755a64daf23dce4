"""Shared system-bus model for the shared-memory architecture.

The bus is a single arbitrated resource: every transaction (memory
read, read-for-ownership, upgrade/invalidate, writeback, cache-to-cache
transfer) occupies it for a transaction-specific number of cycles. The
paper's numbers: a memory access holds the bus for 6 cycles and returns
data after 50; a cache-to-cache transfer costs strictly more of both
(">50 latency, >6 occupancy") because all snoopers must check their
tags and the owner must fetch the data out of a busy off-chip L2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.bank import Resource


@dataclass
class BusTiming:
    """Latency/occupancy per bus transaction type (CPU cycles)."""

    mem_latency: int = 50
    mem_occupancy: int = 6
    c2c_latency: int = 60
    c2c_occupancy: int = 8
    upgrade_latency: int = 20
    upgrade_occupancy: int = 6
    writeback_occupancy: int = 6


class SnoopyBus:
    """Single shared bus with per-transaction-type accounting."""

    def __init__(self, timing: BusTiming | None = None, name: str = "bus") -> None:
        self.timing = timing or BusTiming()
        self.resource = Resource(name)
        self.mem_reads = 0
        self.c2c_transfers = 0
        self.upgrades = 0
        self.writebacks = 0
        #: attached Observation; transaction events are emitted when set
        self.obs = None

    def _record(self, name: str, start: int, occupancy: int) -> None:
        """Emit one bus-track timeline event (observability on only)."""
        self.obs.emit("bus", name, "bus", start, occupancy)

    def memory_read(self, at: int) -> int:
        """A read serviced by main memory; returns data-ready cycle."""
        self.mem_reads += 1
        start = self.resource.acquire(at, self.timing.mem_occupancy)
        if self.obs is not None:
            self._record("read", start, self.timing.mem_occupancy)
        return start + self.timing.mem_latency

    def cache_to_cache(self, at: int) -> int:
        """A read serviced by another processor's cache."""
        self.c2c_transfers += 1
        start = self.resource.acquire(at, self.timing.c2c_occupancy)
        if self.obs is not None:
            self._record("c2c", start, self.timing.c2c_occupancy)
        return start + self.timing.c2c_latency

    def upgrade(self, at: int) -> int:
        """An invalidate-only transaction (write hit on a shared line)."""
        self.upgrades += 1
        start = self.resource.acquire(at, self.timing.upgrade_occupancy)
        if self.obs is not None:
            self._record("upgrade", start, self.timing.upgrade_occupancy)
        return start + self.timing.upgrade_latency

    def write_back(self, at: int) -> int:
        """A posted writeback of a dirty victim; returns bus-free cycle."""
        self.writebacks += 1
        start = self.resource.acquire(at, self.timing.writeback_occupancy)
        if self.obs is not None:
            self._record("writeback", start, self.timing.writeback_occupancy)
        return start + self.timing.writeback_occupancy

    def obs_counters(self):
        """``(probe name, getter)``: transactions granted, cycles waited."""
        return (
            ("bus.transactions", lambda: self.transactions),
            ("bus.wait", lambda: self.resource.wait_cycles),
        )

    @property
    def busy_cycles(self) -> int:
        return self.resource.busy_cycles

    @property
    def transactions(self) -> int:
        return (
            self.mem_reads + self.c2c_transfers
            + self.upgrades + self.writebacks
        )
