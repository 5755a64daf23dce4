"""Shared types for the memory-system models."""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple


class AccessKind(IntEnum):
    """What a CPU is asking the memory system to do.

    ``STORE_COND`` is a store-conditional: timed like a store but never
    posted to a write buffer, because the program needs its outcome
    before it can continue.
    """

    IFETCH = 0
    LOAD = 1
    STORE = 2
    STORE_COND = 3


class StallLevel(IntEnum):
    """The memory-hierarchy level that serviced an access.

    Used by the CPU models to attribute stall cycles the way the
    paper's Figures 4-10 break down execution time.
    """

    NONE = 0    # single-cycle completion, no stall
    L1 = 1      # extra L1 hit latency (shared-L1 crossbar) or bank conflict
    L2 = 2      # serviced by the L2 cache
    MEM = 3     # serviced by main memory
    C2C = 4     # serviced by a cache-to-cache transfer over the bus
    STOREBUF = 5  # stalled on a full write buffer


class AccessResult(NamedTuple):
    """Outcome of one memory access.

    ``done``: cycle at which the data is available (loads/ifetch) or the
    CPU may proceed past the store.
    ``level``: where the access was serviced, for stall attribution.
    ``visible``: cycle at which a store's value reaches the coherence
    point and becomes observable by other CPUs. Equal to ``done``
    except for write-through stores, which release the CPU at ``done``
    but only become visible when the write buffer drains into the
    shared L2. (-1 means "same as done".)
    """

    done: int
    level: StallLevel
    visible: int = -1

    @property
    def visible_cycle(self) -> int:
        return self.done if self.visible < 0 else self.visible


#: ``new_result(AccessResult, (done, level, visible))`` is
#: ``AccessResult(done, level, visible)`` without the Python frame of
#: the NamedTuple's generated ``__new__`` — how the built access paths
#: return.
new_result = tuple.__new__
