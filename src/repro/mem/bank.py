"""Busy-timeline resources.

Contention in the memory system is modeled with per-resource busy
timelines: a resource (a cache bank, a bus, a memory module) remembers
when it next becomes free. A request arriving at cycle ``t`` starts
service at ``max(t, next_free)``, holds the resource for its occupancy,
and completes after its latency. This gives cycle-accurate queueing for
FIFO service without a global event loop in the hot path.
"""

from __future__ import annotations

from repro.errors import ConfigError


class Resource:
    """A single server with a busy timeline.

    Attributes:
        name: for reporting.
        next_free: first cycle at which a new request can start service.
        busy_cycles: total occupancy accumulated (utilization numerator).
        requests: number of requests served.
        wait_cycles: total queueing delay experienced by requests.
    """

    __slots__ = ("name", "next_free", "busy_cycles", "requests", "wait_cycles")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.next_free = 0
        self.busy_cycles = 0
        self.requests = 0
        self.wait_cycles = 0

    def acquire(self, at: int, occupancy: int) -> int:
        """Reserve the resource for ``occupancy`` cycles.

        Returns the cycle at which service *starts* (>= ``at``).
        """
        start = self.next_free
        if start < at:
            start = at
        self.next_free = start + occupancy
        self.busy_cycles += occupancy
        self.requests += 1
        self.wait_cycles += start - at
        return start

    def make_acquire(self, occupancy: int):
        """Build ``acquire(at) -> start``: :meth:`acquire` for a fixed
        ``occupancy`` with the resource captured, for the built access
        paths (every counter is kept)."""
        resource = self

        def acquire(at: int) -> int:
            start = resource.next_free
            if start < at:
                start = at
            resource.next_free = start + occupancy
            resource.busy_cycles += occupancy
            resource.requests += 1
            resource.wait_cycles += start - at
            return start

        return acquire

    def utilization(self, cycles: int) -> float:
        """Fraction of ``cycles`` this resource spent busy."""
        return self.busy_cycles / cycles if cycles else 0.0

    def __repr__(self) -> str:
        return f"<Resource {self.name!r} next_free={self.next_free}>"


class BankedResource:
    """A group of independently-busy banks selected by line address.

    Bank selection interleaves cache lines across banks (low-order line
    address bits), the standard arrangement for multi-banked caches.
    """

    __slots__ = ("name", "banks", "line_shift", "_mask")

    def __init__(self, name: str, n_banks: int, line_size: int) -> None:
        if n_banks <= 0 or n_banks & (n_banks - 1):
            raise ConfigError(f"bank count must be a power of two, got {n_banks}")
        if line_size <= 0 or line_size & (line_size - 1):
            raise ConfigError(
                f"line size must be a power of two, got {line_size}"
            )
        self.name = name
        self.banks = [Resource(f"{name}[{i}]") for i in range(n_banks)]
        self.line_shift = line_size.bit_length() - 1
        self._mask = n_banks - 1

    def bank_of(self, addr: int) -> Resource:
        """The bank serving the line that contains ``addr``."""
        return self.banks[(addr >> self.line_shift) & self._mask]

    def bank_index(self, addr: int) -> int:
        """Index of the bank serving ``addr``."""
        return (addr >> self.line_shift) & self._mask

    def acquire(self, addr: int, at: int, occupancy: int) -> int:
        """Reserve the bank serving ``addr``; returns service start."""
        return self.bank_of(addr).acquire(at, occupancy)

    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def busy_cycles(self) -> int:
        return sum(bank.busy_cycles for bank in self.banks)

    @property
    def wait_cycles(self) -> int:
        return sum(bank.wait_cycles for bank in self.banks)

    @property
    def requests(self) -> int:
        return sum(bank.requests for bank in self.banks)

    def __repr__(self) -> str:
        return f"<BankedResource {self.name!r} banks={len(self.banks)}>"
