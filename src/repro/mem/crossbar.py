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
latency plus the bank busy timelines. This class owns the banks and the
latency constant so the memory systems read as the paper describes.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.mem.bank import BankedResource, Resource


def build_crossbar(
    name: str, level, interconnect, n_ports: int, line_size: int
):
    """The interconnect a spec puts in front of its first shared level.

    One stage is a :class:`Crossbar`, several a
    :class:`MultistageCrossbar` with one switch column per intermediate
    stage. The spec states the path twice — the shared ``level``'s
    latency/occupancy/banks and the ``interconnect``'s stages — so the
    two must agree: the stage latencies sum to the level's latency and
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
    if len(stages) == 1:
        return Crossbar(
            name,
            level.banks,
            line_size,
            latency=level.latency,
            occupancy=level.occupancy,
            n_ports=n_ports,
        )
    return MultistageCrossbar(
        name,
        level.banks,
        line_size,
        stage_latencies=stages,
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


class _Interconnect:
    """What both crossbars share: the per-CPU ports and banks a request
    is routed over (``_route``), the conflict accounting, and the
    non-queueing shadow probe."""

    __slots__ = (
        "name", "latency", "occupancy", "banks", "ports", "wait_cycles",
        "obs",
    )

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

    def probe(self, addr: int, at: int, port: int = 0) -> int:
        """Record the contention a request *would* see, without queueing.

        The optimistic shared-L1 path completes hits in one cycle by
        fiat, so a shadow crossbar driven through :meth:`access` would
        queue unboundedly (its grant times never slow the CPUs down).
        This variant counts the collision but starts service at ``at``
        regardless — per-bank busy becomes *demand* utilization (it may
        exceed 1.0 when oversubscribed) and the conflict wait per
        request stays bounded by the occupancy.

        Returns the conflict wait observed.
        """
        hold = self.occupancy
        path = self._route(addr, port)
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

    def bank_index(self, addr: int) -> int:
        """Index of the bank serving ``addr``."""
        return self.banks.bank_index(addr)

    @property
    def conflict_cycles(self) -> int:
        """Total cycles requests spent queued on busy ports, switches
        or banks."""
        return self.wait_cycles

    @property
    def requests(self) -> int:
        return self.banks.requests


class Crossbar(_Interconnect):
    """Fixed-latency crossbar with per-CPU ports and per-bank servers.

    A request holds both its CPU-side port and its target bank for the
    occupancy (the datapath width limits both sides: the shared-L2
    crossbar's 64-bit per-CPU links take 4 cycles per 32-byte line, so
    one CPU's refills and write-through drains serialize at its own
    port even when they hit different banks).
    """

    __slots__ = ()

    #: a single stage has no intermediate switch columns
    switches = ()

    def __init__(
        self,
        name: str,
        n_banks: int,
        line_size: int,
        latency: int,
        occupancy: int,
        n_ports: int = 4,
    ) -> None:
        self.name = name
        self.latency = latency
        self.occupancy = occupancy
        self.banks = BankedResource(name, n_banks, line_size)
        self.ports = [Resource(f"{name}.port{i}") for i in range(n_ports)]
        self.wait_cycles = 0
        #: attached Observation; conflict events are emitted when set
        self.obs = None

    def access(
        self,
        addr: int,
        at: int,
        port: int = 0,
        occupancy: int | None = None,
    ) -> tuple[int, int]:
        """Route a request from ``port`` to its bank.

        ``occupancy`` defaults to the full line-transfer occupancy;
        word-sized transfers (write-through drains) pass 1 — a 64-bit
        datapath moves a word in a single cycle.

        Returns ``(data_ready, conflict_wait)``: the cycle the bank
        delivers (service start + latency) and how long the request
        queued behind earlier traffic on its port or bank.
        """
        hold = self.occupancy if occupancy is None else occupancy
        port_res = self.ports[port]
        bank = self.banks.bank_of(addr)
        start = at
        if port_res.next_free > start:
            start = port_res.next_free
        if bank.next_free > start:
            start = bank.next_free
        port_res.acquire(start, hold)
        bank.acquire(start, hold)
        wait = start - at
        self.wait_cycles += wait
        if self.obs is not None and wait > 0:
            self._emit_conflict(addr, at, wait, port)
        return start + self.latency, wait

    def make_lane(self, port: int, occupancy: int | None = None):
        """Build a specialized ``(addr, at) -> data_ready`` closure.

        The twin of :meth:`access` for a fixed port and occupancy that
        the fast lanes and the built access paths ride: the port
        resource, bank array and constants are captured, and both
        acquires are inlined — one Python call per crossbar transit
        instead of four, and no result tuple. A conflict wait
        accumulates in :attr:`wait_cycles` and, when an observation is
        attached (read when the conflict happens), emits the same
        event :meth:`access` does.
        """
        hold = self.occupancy if occupancy is None else occupancy
        latency = self.latency
        port_res = self.ports[port]
        banks = self.banks.banks
        shift = self.banks.line_shift
        mask = self.banks._mask
        xbar = self

        def lane(addr: int, at: int) -> int:
            bank = banks[(addr >> shift) & mask]
            start = port_res.next_free
            if start < at:
                start = at
            bank_free = bank.next_free
            if bank_free > start:
                start = bank_free
            end = start + hold
            port_res.next_free = end
            port_res.busy_cycles += hold
            port_res.requests += 1
            bank.next_free = end
            bank.busy_cycles += hold
            bank.requests += 1
            if start > at:
                xbar.wait_cycles += start - at
                if xbar.obs is not None:
                    xbar._emit_conflict(addr, at, start - at, port)
            return start + latency

        return lane

    def _route(self, addr: int, port: int) -> list:
        """The port and bank a request from ``port`` to ``addr`` holds."""
        return [self.ports[port], self.banks.bank_of(addr)]


class MultistageCrossbar(_Interconnect):
    """A pipelined multi-stage interconnect (MemPool-style cluster).

    At 16+ cores a single-stage crossbar's wiring does not close
    timing; real designs split it into stages of radix-``r`` switches.
    The model: a request from CPU ``p`` crosses one switch per
    intermediate stage (CPUs are grouped ``radix`` per first-stage
    switch, ``radix**2`` per second, ...) and lands in its address-
    interleaved bank. Each switch and the bank are held for the
    occupancy, so congestion shows up wherever traffic converges; the
    latency is the sum of the per-stage pipeline delays.

    The last entry of ``stage_latencies`` covers the bank stage, so a
    two-stage interconnect has one intermediate switch column.
    Interface-compatible with :class:`Crossbar` (``access``/``probe``/
    counters) so the memory systems can use either.
    """

    __slots__ = ("stage_latencies", "radix", "switches")

    def __init__(
        self,
        name: str,
        n_banks: int,
        line_size: int,
        stage_latencies: tuple,
        occupancy: int,
        n_ports: int = 16,
        radix: int = 4,
    ) -> None:
        self.name = name
        self.stage_latencies = tuple(stage_latencies)
        self.latency = sum(self.stage_latencies)
        self.occupancy = occupancy
        self.radix = radix
        self.banks = BankedResource(name, n_banks, line_size)
        self.ports = [Resource(f"{name}.port{i}") for i in range(n_ports)]
        # One switch column per intermediate stage; the final stage is
        # the banks themselves.
        self.switches: list[list[Resource]] = []
        group = radix
        for stage in range(max(len(self.stage_latencies) - 1, 0)):
            n_switches = max(n_ports // group, 1)
            self.switches.append(
                [
                    Resource(f"{name}.s{stage}.sw{i}")
                    for i in range(n_switches)
                ]
            )
            group *= radix
        self.wait_cycles = 0
        #: attached Observation; conflict events are emitted when set
        self.obs = None

    def _route(self, addr: int, port: int) -> list:
        """Every resource a request from ``port`` to ``addr`` holds."""
        path = [self.ports[port]]
        group = self.radix
        for column in self.switches:
            path.append(column[(port // group) % len(column)])
            group *= self.radix
        path.append(self.banks.bank_of(addr))
        return path

    def access(
        self,
        addr: int,
        at: int,
        port: int = 0,
        occupancy: int | None = None,
    ) -> tuple[int, int]:
        """Route a request through its switch path to its bank.

        Returns ``(data_ready, conflict_wait)`` exactly like
        :meth:`Crossbar.access`; the wait counts queueing behind
        earlier traffic anywhere along the path.
        """
        hold = self.occupancy if occupancy is None else occupancy
        path = self._route(addr, port)
        start = at
        for res in path:
            if res.next_free > start:
                start = res.next_free
        for res in path:
            res.acquire(start, hold)
        wait = start - at
        self.wait_cycles += wait
        if self.obs is not None and wait > 0:
            self._emit_conflict(addr, at, wait, port)
        return start + self.latency, wait

    def make_lane(self, port: int, occupancy: int | None = None):
        """Build a specialized ``(addr, at) -> data_ready`` closure.

        Same contract as :meth:`Crossbar.make_lane`; the switch path
        for the port is resolved once at build time (it depends only on
        the port), leaving the bank as the only per-call lookup.
        """
        hold = self.occupancy if occupancy is None else occupancy
        latency = self.latency
        switch_path = tuple(self._route(0, port)[:-1])
        banks = self.banks.banks
        shift = self.banks.line_shift
        mask = self.banks._mask
        xbar = self

        def lane(addr: int, at: int) -> int:
            bank = banks[(addr >> shift) & mask]
            start = at
            for res in switch_path:
                if res.next_free > start:
                    start = res.next_free
            if bank.next_free > start:
                start = bank.next_free
            end = start + hold
            for res in switch_path:
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
