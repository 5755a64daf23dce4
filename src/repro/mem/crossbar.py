"""Crossbar interconnect models.

Two crossbars appear in the paper:

* the **shared-L1 crossbar** between four CPUs and the four L1 data
  banks. Its wire/arbitration delay is what raises the shared L1 hit
  time from 1 cycle to 3; the banks themselves are pipelined
  (occupancy 1), so contention appears only when two CPUs pick the
  same bank in the same cycle;
* the **shared-L2 crossbar** between the four processor dies and the
  four off-MCM L2 banks. Its delay and extra chip crossings raise the
  L2 latency from 10 to 14 cycles, and its 64-bit datapath doubles the
  per-line occupancy from 2 to 4 cycles.

In both cases the crossbar proper is internally non-blocking — distinct
(port, bank) pairs never conflict — so the timing model is a fixed
latency plus the port and bank busy timelines. At 16+ cores the same
structure is split into pipelined stages of switches (MemPool-style);
a one-stage crossbar is that interconnect with no switch columns, so
one class, :class:`Crossbar`, models both.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.bank import BankedResource, Resource

#: CPUs per first-stage switch; each later stage groups this many more
RADIX = 4


def build_crossbar(
    name: str, level, interconnect, n_ports: int, line_size: int
) -> "Crossbar":
    """The interconnect a spec puts in front of its first shared level.

    The spec states the path twice — the shared ``level``'s
    latency/occupancy/banks and the ``interconnect``'s stages — so the
    two must agree: one stage is a ``crossbar`` and several are
    ``multistage``, the stage latencies sum to the level's latency and
    the occupancies match.
    """
    stages = tuple(interconnect.stage_latencies)
    expected = "crossbar" if len(stages) == 1 else "multistage"
    if not stages or interconnect.kind != expected:
        raise ConfigError(
            f"interconnect kind {interconnect.kind!r} with "
            f"{len(stages)} stage(s) cannot front shared level "
            f"{level.name!r}: one stage is a 'crossbar', several are "
            "'multistage'"
        )
    if sum(stages) != level.latency:
        raise ConfigError(
            f"interconnect stage_latencies {stages} sum to {sum(stages)} "
            f"but shared level {level.name!r} has latency {level.latency}"
        )
    if interconnect.occupancy != level.occupancy:
        raise ConfigError(
            f"interconnect occupancy {interconnect.occupancy} differs from "
            f"shared level {level.name!r} occupancy {level.occupancy}"
        )
    return Crossbar(
        name,
        level.banks,
        line_size,
        stages,
        occupancy=level.occupancy,
        n_ports=n_ports,
    )


def crossbar_resources(prefix: str, xbar, ports: bool = True):
    """``(report key, probe name, resource)`` for a crossbar's CPU-side
    ports (optional), banks and switch columns — the declaration format
    of :meth:`repro.mem.hierarchy.MemorySystem._resources`."""
    named = []
    if ports:
        named += [
            (f"{prefix}.port{i}", port) for i, port in enumerate(xbar.ports)
        ]
    named += [
        (f"{prefix}.bank{i}", bank) for i, bank in enumerate(xbar.banks.banks)
    ]
    named += [
        (f"{prefix}.s{stage}.sw{i}", switch)
        for stage, column in enumerate(xbar.switches)
        for i, switch in enumerate(column)
    ]
    return [(key, f"{key}.busy", resource) for key, resource in named]


class Crossbar:
    """A pipelined crossbar of one or more stages, with per-CPU ports
    and per-bank servers.

    A request from CPU ``p`` holds its CPU-side port, one switch per
    intermediate stage (CPUs are grouped :data:`RADIX` per first-stage
    switch, ``RADIX**2`` per second, ...) and its address-interleaved
    bank, each for the occupancy, so congestion shows up wherever
    traffic converges: the shared-L2 crossbar's 64-bit per-CPU links
    take 4 cycles per 32-byte line, so one CPU's refills and
    write-through drains serialize at its own port even when they hit
    different banks. The latency is the sum of the per-stage pipeline
    delays; the last stage is the banks themselves, so a one-stage
    crossbar has no switch columns and a two-stage one has one.

    Requests enter through :meth:`make_lane` (a timed transit) or
    :meth:`probe` (the optimistic shared L1's non-queueing shadow).
    """

    __slots__ = (
        "name", "latency", "occupancy", "banks", "ports", "switches",
        "wait_cycles", "obs",
    )

    def __init__(
        self,
        name: str,
        n_banks: int,
        line_size: int,
        stage_latencies: tuple,
        occupancy: int,
        n_ports: int = 4,
    ) -> None:
        self.name = name
        self.latency = sum(stage_latencies)
        self.occupancy = occupancy
        self.banks = BankedResource(name, n_banks, line_size)
        self.ports = [Resource(f"{name}.port{i}") for i in range(n_ports)]
        #: one column of switches per intermediate stage
        self.switches: list[list[Resource]] = []
        group = RADIX
        for stage in range(len(stage_latencies) - 1):
            self.switches.append([
                Resource(f"{name}.s{stage}.sw{i}")
                for i in range(max(n_ports // group, 1))
            ])
            group *= RADIX
        #: cycles requests spent queued on busy ports, switches or banks
        self.wait_cycles = 0
        #: attached Observation; conflict events are emitted when set
        self.obs = None

    def _route(self, port: int) -> list:
        """The port and switches a request from ``port`` holds before
        its bank."""
        path = [self.ports[port]]
        group = RADIX
        for column in self.switches:
            path.append(column[(port // group) % len(column)])
            group *= RADIX
        return path

    def _emit_conflict(self, addr: int, at: int, wait: int, port: int) -> None:
        """One conflict event on the bank's track (observability on)."""
        self.obs.emit(
            f"{self.name}[{self.banks.bank_index(addr)}]",
            "conflict",
            "xbar",
            at,
            wait,
            {"port": port},
        )

    def make_lane(self, port: int, occupancy: int | None = None):
        """Build the ``(addr, at) -> data_ready`` transit of ``port``.

        ``occupancy`` defaults to the full line-transfer occupancy;
        word-sized transfers (write-through drains) pass 1 — a 64-bit
        datapath moves a word in a single cycle. Service starts when
        every resource on the route is free; the route before the bank
        depends only on the port, so it is resolved here, leaving the
        bank as the only per-call lookup. A conflict wait accumulates
        in :attr:`wait_cycles` and, when an observation is attached
        (read when the conflict happens), emits a conflict event.
        """
        hold = self.occupancy if occupancy is None else occupancy
        latency = self.latency
        path = tuple(self._route(port))
        banks = self.banks.banks
        shift = self.banks.line_shift
        mask = self.banks._mask
        xbar = self

        def lane(addr: int, at: int) -> int:
            bank = banks[(addr >> shift) & mask]
            start = at
            for res in path:
                if res.next_free > start:
                    start = res.next_free
            if bank.next_free > start:
                start = bank.next_free
            end = start + hold
            for res in path:
                res.next_free = end
                res.busy_cycles += hold
                res.requests += 1
            bank.next_free = end
            bank.busy_cycles += hold
            bank.requests += 1
            if start > at:
                xbar.wait_cycles += start - at
                if xbar.obs is not None:
                    xbar._emit_conflict(addr, at, start - at, port)
            return start + latency

        return lane

    def probe(self, addr: int, at: int, port: int = 0) -> int:
        """Record the contention a request *would* see, without queueing.

        The optimistic shared-L1 path completes hits in one cycle by
        fiat, so a shadow crossbar driven through a lane would queue
        unboundedly (its grant times never slow the CPUs down). This
        variant counts the collision but starts service at ``at``
        regardless — per-bank busy becomes *demand* utilization (it may
        exceed 1.0 when oversubscribed) and the conflict wait per
        request stays bounded by the occupancy.

        Returns the conflict wait observed.
        """
        hold = self.occupancy
        path = self._route(port)
        path.append(self.banks.bank_of(addr))
        wait = max(res.next_free for res in path) - at
        if wait > 0:
            self.wait_cycles += wait
            if self.obs is not None:
                self._emit_conflict(addr, at, wait, port)
        else:
            wait = 0
        end = at + hold
        for res in path:
            if res.next_free < end:
                res.next_free = end
            res.busy_cycles += hold
            res.requests += 1
        return wait

    def obs_counters(self):
        """``(probe name, getter)``: requests granted, cycles in conflict."""
        return (
            (f"{self.name}.grants", lambda: self.requests),
            (f"{self.name}.conflict", lambda: self.wait_cycles),
        )

    @property
    def requests(self) -> int:
        return self.banks.requests
