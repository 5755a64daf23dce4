"""Per-L2-line copy directory for the shared-L2 architecture.

The paper (Section 2.3): "there is a directory entry associated with
each L2 cache line. When there is a change to a cache line caused by a
write or a replacement all processors caching the line must receive
invalidates". The write-through L1s mean the L2 always has the current
data, so the directory only has to remember *who holds a copy*.
"""

from __future__ import annotations


class Directory:
    """Bitmask-of-holders directory keyed by line address."""

    __slots__ = ("_holders", "invalidations_sent")

    def __init__(self) -> None:
        self._holders: dict[int, int] = {}
        self.invalidations_sent = 0

    @property
    def masks(self) -> dict[int, int]:
        """The live ``line address -> holder bitmask`` map (no entry
        for an empty mask). A built path captures it to record a holder
        or test for other holders without a call; it is only ever
        mutated in place, checkpoint restore included."""
        return self._holders

    def add_holder(self, line_addr: int, cpu: int) -> None:
        """Record that ``cpu``'s L1 filled this line."""
        self._holders[line_addr] = self._holders.get(line_addr, 0) | (1 << cpu)

    def remove_holder(self, line_addr: int, cpu: int) -> None:
        """Record that ``cpu``'s L1 dropped this line (replacement)."""
        mask = self._holders.get(line_addr)
        if mask is None:
            return
        mask &= ~(1 << cpu)
        if mask:
            self._holders[line_addr] = mask
        else:
            del self._holders[line_addr]

    def holders(self, line_addr: int, excluding: int = -1) -> list[int]:
        """CPU ids holding the line, optionally excluding the writer."""
        mask = self._holders.get(line_addr, 0)
        if mask == 0:
            return []
        found = []
        cpu = 0
        while mask:
            if mask & 1 and cpu != excluding:
                found.append(cpu)
            mask >>= 1
            cpu += 1
        return found

    def clear(self, line_addr: int) -> list[int]:
        """Drop the entry (L2 replacement); returns the former holders."""
        mask = self._holders.pop(line_addr, 0)
        found = []
        cpu = 0
        while mask:
            if mask & 1:
                found.append(cpu)
            mask >>= 1
            cpu += 1
        return found

    def invalidate_for_write(self, line_addr: int, writer: int) -> list[int]:
        """Invalidate every copy except the writer's; returns the victims."""
        mask = self.invalidate_for_write_mask(line_addr, writer)
        found = []
        cpu = 0
        while mask:
            if mask & 1:
                found.append(cpu)
            mask >>= 1
            cpu += 1
        return found

    def invalidate_for_write_mask(self, line_addr: int, writer: int) -> int:
        """Allocation-free :meth:`invalidate_for_write`: victim bitmask.

        The write-through store path calls this per drained store; the
        overwhelmingly common result is "no other holders" and must not
        build a list to say so.
        """
        holders = self._holders
        mask = holders.get(line_addr)
        if mask is None:
            return 0
        victims = mask & ~(1 << writer)
        if victims:
            self.invalidations_sent += victims.bit_count()
            keep = mask & (1 << writer)
            if keep:
                holders[line_addr] = keep
            else:
                del holders[line_addr]
        return victims

    def is_holder(self, line_addr: int, cpu: int) -> bool:
        """Whether ``cpu``'s L1 is recorded as holding the line."""
        return bool(self._holders.get(line_addr, 0) & (1 << cpu))

    def __len__(self) -> int:
        return len(self._holders)
