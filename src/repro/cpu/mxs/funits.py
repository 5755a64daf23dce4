"""Functional-unit pool for the MXS model.

"To eliminate structural hazards there are two copies of every
functional unit except for the memory data port" (Section 2.1). All
units are fully pipelined, so each unit accepts one operation per
cycle; the pool therefore enforces a per-cycle, per-kind issue limit of
two (one for memory operations).
"""

from __future__ import annotations

from repro.isa.instructions import FU_INDEX, FU_KINDS, OpClass

#: Units per kind, indexed like :data:`~repro.isa.instructions.FU_KINDS`.
UNITS = tuple(1 if kind == "mem" else 2 for kind in FU_KINDS)


class FunctionalUnits:
    """Per-cycle issue-slot tracking for each functional-unit kind.

    ``free[k]`` is the number of kind-``k`` units still unclaimed in
    cycle ``cycle``; the first claim attempt of a new cycle refills it.
    ``MxsCpu.tick`` inlines :meth:`try_issue`.
    """

    __slots__ = ("free", "cycle", "structural_stalls")

    def __init__(self) -> None:
        self.free = list(UNITS)
        self.cycle = -1
        self.structural_stalls = 0

    def try_issue(self, op: OpClass, cycle: int) -> bool:
        """Claim a unit of the right kind for this cycle."""
        free = self.free
        if cycle != self.cycle:
            self.cycle = cycle
            free[:] = UNITS
        kind = FU_INDEX[op]
        if not free[kind]:
            self.structural_stalls += 1
            return False
        free[kind] -= 1
        return True
