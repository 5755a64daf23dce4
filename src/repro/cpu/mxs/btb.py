"""1024-entry branch target buffer with 2-bit saturating counters.

Direct-mapped on the branch PC. A branch predicts taken when its entry
matches and the counter is in a taken state, and the stored target must
also match for a taken prediction to be correct — a wrong target is a
misprediction even when the direction was right.
"""

from __future__ import annotations

from repro.errors import ConfigError


class _Entry:
    __slots__ = ("tag", "target", "counter")

    def __init__(self) -> None:
        self.tag = -1
        self.target = 0
        self.counter = 0


class BranchTargetBuffer:
    """Direct-mapped BTB; 2-bit counter per entry."""

    def __init__(self, entries: int = 1024) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("BTB entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._table = [_Entry() for _ in range(entries)]
        self.lookups = 0
        self.hits = 0

    def _entry(self, pc: int) -> _Entry:
        return self._table[(pc >> 2) & self._mask]

    def predict(self, pc: int) -> tuple[bool, int]:
        """Returns (predicted_taken, predicted_target)."""
        self.lookups += 1
        entry = self._entry(pc)
        if entry.tag != pc:
            return False, 0
        self.hits += 1
        return entry.counter >= 2, entry.target

    def update(self, pc: int, taken: bool, target: int) -> None:
        """Train the entry with the resolved outcome."""
        entry = self._entry(pc)
        if entry.tag != pc:
            # Allocate on taken branches only (untaken branches that
            # never hit the BTB predict correctly by default).
            if not taken:
                return
            entry.tag = pc
            entry.target = target
            entry.counter = 2
            return
        if taken:
            entry.target = target
            if entry.counter < 3:
                entry.counter += 1
        else:
            if entry.counter > 0:
                entry.counter -= 1

    def correct(self, pc: int, taken: bool, target: int) -> bool:
        """Would the current prediction match this outcome?

        :meth:`predict` without the lookup count (a probe, not a real
        lookup; a matching entry still counts as a hit), one call per
        fetched branch.
        """
        entry = self._table[(pc >> 2) & self._mask]
        if entry.tag != pc:
            return not taken  # no entry predicts not-taken
        self.hits += 1
        if (entry.counter >= 2) != taken:
            return False
        return not taken or entry.target == target

    def entry(self, pc: int) -> tuple[int, int, int]:
        """``(tag, target, counter)`` of the entry ``pc`` maps to, read
        without counting anything: :meth:`correct` for a taken branch
        is ``tag == pc and counter >= 2 and target == its target``."""
        entry = self._table[(pc >> 2) & self._mask]
        return entry.tag, entry.target, entry.counter
