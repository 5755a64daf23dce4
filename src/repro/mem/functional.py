"""Timed functional memory: the value oracle for synchronization.

The simulator is timing-directed — ordinary data values are never
tracked. Synchronization, however, is value-dependent: a spinning CPU
keeps loading a flag until the release store becomes visible. The
:class:`FunctionalMemory` stores, per word address, a time-ordered
history of writes; a load executed at cycle *t* observes the latest
write whose completion time is <= *t*. Release stores therefore become
visible exactly when the memory system says they complete, and spin
loops run for the right number of simulated cycles on every
architecture.

Load-linked / store-conditional follow the MIPS semantics the paper's
synchronization primitives rely on: an SC succeeds only if no other
write to the address completed between the LL and the SC, which
reproduces genuine lock contention and retry traffic. An SC is decided
when it issues, so a successful SC *holds* its word until its write
becomes visible: another CPU's SC that would complete inside that
window fails, as it would have behind the first SC's write.
"""

from __future__ import annotations

from bisect import bisect_right, insort

_HISTORY_CAP = 128

#: "No cycle": what :meth:`FunctionalMemory.stable_until` returns when
#: nothing already recorded can change a read (the run loop's own
#: "never" value, so the two compare equal).
NEVER = 1 << 62


class FunctionalMemory:
    """Word-granular value store with timed visibility and LL/SC."""

    def __init__(self) -> None:
        # addr -> sorted list of (visible_at, seq, value)
        self._history: dict[int, list[tuple[int, int, int]]] = {}
        # cpu -> (addr, ll_time, observed_seq) reservation
        self._reservations: dict[int, tuple[int, int, int]] = {}
        # (cpu, addr) -> (value, visible_at): a CPU's most recent own
        # write, forwarded to its own reads while still in flight
        # (read-own-write consistency through the store buffer).
        self._own: dict[tuple[int, int], tuple[int, int]] = {}
        # addr -> (cpu, visible_at): the last successful SC to the
        # word; another CPU's SC completing before visible_at fails.
        self._held: dict[int, tuple[int, int]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # plain reads / writes

    def poke(self, addr: int, value: int) -> None:
        """Set an initial value, visible from time zero."""
        self.write(addr, value, visible_at=0)

    def write(
        self, addr: int, value: int, visible_at: int, cpu: int | None = None
    ) -> None:
        """Record a write that becomes visible at ``visible_at``.

        Pass ``cpu`` so the writer's own later reads forward the value
        even before it is globally visible (store-buffer forwarding).
        """
        history = self._history.get(addr)
        if history is None:
            history = []
            self._history[addr] = history
        insort(history, (visible_at, self._seq, value))
        self._seq += 1
        if cpu is not None:
            self._own[(cpu, addr)] = (value, visible_at)
        if len(history) > _HISTORY_CAP:
            # Old entries are only needed for reads at earlier times;
            # simulated time moves forward, so trim from the front.
            del history[: len(history) - _HISTORY_CAP]

    def read(self, addr: int, at: int, cpu: int | None = None) -> int:
        """Value of ``addr`` as of cycle ``at`` (0 if never written).

        With ``cpu`` given, the reader's own in-flight store to the
        address (globally visible only later) is forwarded — a CPU
        always sees its own writes in program order.
        """
        if cpu is not None:
            own = self._own.get((cpu, addr))
            if own is not None and own[1] > at:
                return own[0]
        history = self._history.get(addr)
        if not history:
            return 0
        last = history[-1]
        if last[0] <= at:
            # Common case (spin loops re-reading a settled flag): the
            # newest write is already visible — no search needed.
            return last[2]
        index = bisect_right(history, (at, self._seq, 0))
        if index == 0:
            return 0
        return history[index - 1][2]

    def stable_until(self, addr: int, at: int, cpu: int | None = None) -> int:
        """First cycle after ``at`` at which :meth:`read` can return
        something else, assuming no further write is recorded.

        ``read(addr, t, cpu)`` is constant for ``at <= t <
        stable_until(addr, at, cpu)``: the only things that move it are
        the reader's own in-flight store ceasing to forward and the
        next recorded write becoming visible. :data:`NEVER` when
        neither is pending.
        """
        until = NEVER
        if cpu is not None:
            own = self._own.get((cpu, addr))
            if own is not None and own[1] > at:
                until = own[1]
        history = self._history.get(addr)
        if history and history[-1][0] > at:
            pending = history[bisect_right(history, (at, self._seq, 0))][0]
            if pending < until:
                until = pending
        return until

    def written_since(self, addr: int, seq: int) -> bool:
        """Whether a write to ``addr`` was recorded at or after global
        write number ``seq`` (a value of ``_seq`` read earlier)."""
        history = self._history.get(addr)
        if not history:
            return False
        return any(entry[1] >= seq for entry in reversed(history))

    def last_write_time(self, addr: int) -> int | None:
        """Completion time of the most recent write, or ``None``."""
        history = self._history.get(addr)
        if not history:
            return None
        return history[-1][0]

    # ------------------------------------------------------------------
    # load-linked / store-conditional

    def load_linked(self, cpu: int, addr: int, at: int) -> int:
        """LL: read the value and place a reservation for ``cpu``.

        The reservation remembers the most recent write (by global
        sequence number) the LL could have observed, so the matching SC
        fails on *any* write it did not see — including ties at the
        same cycle, which is where simultaneous SC races are decided.
        """
        history = self._history.get(addr)
        observed_seq = history[-1][1] if history else -1
        self._reservations[cpu] = (addr, at, observed_seq)
        return self.read(addr, at, cpu=cpu)

    def relink(self, cpu: int, at: int) -> None:
        """Move ``cpu``'s reservation to cycle ``at``: what repeating
        its last LL then, with no write recorded in between, leaves."""
        addr, _at, observed_seq = self._reservations[cpu]
        self._reservations[cpu] = (addr, at, observed_seq)

    def store_conditional(
        self, cpu: int, addr: int, value: int, at: int
    ) -> bool:
        """SC: write iff no write to ``addr`` that the LL did not
        observe has become visible by ``at``, and no other CPU's
        successful SC to ``addr`` is still in flight then. Clears the
        reservation either way."""
        reservation = self._reservations.pop(cpu, None)
        if reservation is None:
            return False
        res_addr, ll_time, observed_seq = reservation
        if res_addr != addr or at < ll_time:
            return False
        held = self._held.get(addr)
        if held is not None and held[0] != cpu and at < held[1]:
            return False
        history = self._history.get(addr)
        if history:
            # The reservation breaks on any write that becomes visible
            # by SC time and that the LL did not read: either it became
            # visible after the LL executed, or it was recorded after
            # the LL ran (seq > observed) — the latter catches races
            # that tie at the very cycle of the LL.
            for visible_at, seq, _value in reversed(history):
                if visible_at > at:
                    continue
                if visible_at > ll_time or seq > observed_seq:
                    return False
        # Program order: the SC's write may not become visible before
        # this CPU's own still-draining store to the same address (a
        # lock re-acquire racing its own posted release would otherwise
        # be silently undone when the release drains).
        write_at = at
        own = self._own.get((cpu, addr))
        if own is not None and own[1] > write_at:
            write_at = own[1]
        self.write(addr, value, visible_at=write_at, cpu=cpu)
        self._held[addr] = (cpu, write_at)
        return True

    def drop_landed(self, at: int) -> None:
        """Forget every held word whose SC write is visible by ``at``:
        no SC completing at or after ``at`` can fall inside its window."""
        for addr in [a for a, (_cpu, until) in self._held.items()
                     if until <= at]:
            del self._held[addr]

    def has_reservation(self, cpu: int) -> bool:
        """Whether ``cpu`` holds a live LL reservation."""
        return cpu in self._reservations

    def clear_reservation(self, cpu: int) -> None:
        """Drop ``cpu``'s reservation (e.g. on context switch)."""
        self._reservations.pop(cpu, None)
