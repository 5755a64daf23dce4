"""Miss status holding registers (MSHRs).

The paper's CPU has a lockup-free (non-blocking) L1 data cache in the
style of Kroft [13] supporting up to four outstanding misses. The MXS
model uses one :class:`MshrFile` per CPU: a load or store that misses
allocates an entry (or merges with an in-flight miss to the same line);
when the file is full, further misses cannot issue until an entry
retires.
"""

from __future__ import annotations

from repro.errors import SimulationError

_NEVER = 1 << 62


class MshrFile:
    """Tracks in-flight line fills for one CPU's data cache."""

    __slots__ = (
        "capacity",
        "_entries",
        "_earliest",
        "merges",
        "allocations",
        "full_stalls",
    )

    def __init__(self, capacity: int = 4) -> None:
        if capacity <= 0:
            raise SimulationError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, int] = {}  # line_addr -> fill-done cycle
        # Earliest fill-done cycle among the entries (``_NEVER`` when
        # empty): lets retire() return before scanning anything.
        self._earliest = _NEVER
        self.merges = 0
        self.allocations = 0
        self.full_stalls = 0

    def retire(self, now: int) -> None:
        """Free every entry whose fill completed at or before ``now``."""
        if now < self._earliest:
            return
        entries = self._entries
        done = [line for line, t in entries.items() if t <= now]
        for line in done:
            del entries[line]
        self._earliest = min(entries.values(), default=_NEVER)

    def probe(self, line_addr: int) -> int | None:
        """Completion cycle of an in-flight fill of this line, if any."""
        return self._entries.get(line_addr)

    def allocate(self, line_addr: int, done: int) -> bool:
        """Track a new outstanding miss; ``False`` if the file is full.

        A second miss to an already-tracked line should use
        :meth:`probe` and merge instead of allocating.
        """
        if line_addr in self._entries:
            # Merging caller convenience: keep the earlier completion.
            self.merges += 1
            if done < self._entries[line_addr]:
                self._entries[line_addr] = done
                if done < self._earliest:
                    self._earliest = done
            return True
        if len(self._entries) >= self.capacity:
            self.full_stalls += 1
            return False
        self._entries[line_addr] = done
        if done < self._earliest:
            self._earliest = done
        self.allocations += 1
        return True

    def load(self, entries: dict[int, int]) -> None:
        """Replace the in-flight fills (checkpoint restore)."""
        self._entries = dict(entries)
        self._earliest = min(entries.values(), default=_NEVER)

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def earliest_completion(self) -> int | None:
        """Completion cycle of the oldest outstanding fill, if any."""
        return self._earliest if self._entries else None
