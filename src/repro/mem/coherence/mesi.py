"""Snoopy MESI coherence for the shared-memory architecture.

Every bus transaction is snooped by the other three processors' cache
pairs (L1 data + L2, L2 inclusive of L1). The controller implements the
state transitions; the *timing* of the transactions (bus occupancy,
memory vs. cache-to-cache latency) is charged by
:class:`~repro.mem.shared_mem.SharedMemorySystem` using the result
returned here.

The snoop walks run in the packed-array domain: all methods take *line
addresses* and operate on the caches' flat tag/state columns through
``find``/``evict`` and direct state pokes — no per-snoop object
allocation.

States follow the classic invalidation protocol:

* remote read of a MODIFIED line → owner supplies data cache-to-cache
  and keeps a SHARED copy;
* remote read of an EXCLUSIVE/SHARED line → memory supplies, holders
  drop to SHARED;
* remote write (read-for-ownership or upgrade) → every other copy is
  invalidated; a MODIFIED owner supplies the data cache-to-cache.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.mem.cache import MODIFIED, SHARED, CacheArray, LineState
from repro.sim.stats import CacheStats


#: What a read snoop found in the other processors' caches.
NO_COPY = 0       # nobody caches the line: memory supplies, fill EXCLUSIVE
CLEAN_COPY = 1    # clean sharers only: memory supplies, fill SHARED
DIRTY_COPY = 2    # a MODIFIED owner supplies the data cache-to-cache


class SnoopController:
    """Applies MESI state changes across the private cache pairs.

    The walks are built once per requester (:meth:`walks`): closures
    over the *other* processors' resolved finders, evictors and stats,
    so a snoop never indexes ``self.l2s[cpu]`` or asks who the
    requester is. The ``snoop_*`` methods are the same walks by
    requester number.
    """

    def __init__(
        self,
        l1ds: list[CacheArray],
        l2s: list[CacheArray],
        l1d_stats: list[CacheStats],
        l2_stats: list[CacheStats],
    ) -> None:
        if len(l1ds) != len(l2s):
            raise ProtocolError("need one L2 per L1")
        self.l1ds = l1ds
        self.l2s = l2s
        self.l1d_stats = l1d_stats
        self.l2_stats = l2_stats
        self.n_cpus = len(l1ds)
        self._walks = [self._make_walks(cpu) for cpu in range(self.n_cpus)]

    # ------------------------------------------------------------------
    # snoop actions

    def walks(self, requester: int) -> tuple:
        """``requester``'s ``(read, write, upgrade)`` snoop closures.

        * ``read(line_addr)`` — a read miss went to the bus: every
          remote copy drops to SHARED; returns :data:`DIRTY_COPY` if a
          MODIFIED owner supplies the data, :data:`CLEAN_COPY` if only
          clean copies exist, else :data:`NO_COPY` — supplier *and*
          sharer presence from one walk (the L2 tags answer for the
          pair: L2 includes L1).
        * ``write(line_addr)`` — a read-for-ownership: every remote
          copy is invalidated; returns whether a MODIFIED owner
          supplied the dirty data.
        * ``upgrade(line_addr)`` — the invalidate-only transaction of
          a write hit on a SHARED line; returns the number of remote
          L2 copies invalidated.
        """
        return self._walks[requester]

    def _make_walks(self, requester: int) -> tuple:
        others = [cpu for cpu in range(self.n_cpus) if cpu != requester]
        readers = tuple(
            (
                self.l2s[cpu].make_find(),
                self.l2s[cpu].states,
                self.l1ds[cpu].make_find(),
                self.l1ds[cpu].states,
            )
            for cpu in others
        )
        writers = tuple(
            (
                self.l2s[cpu].make_evict(),
                self.l2_stats[cpu],
                self.l1ds[cpu].make_evict(),
                self.l1d_stats[cpu],
            )
            for cpu in others
        )

        def read(line_addr: int) -> int:
            found = NO_COPY
            for l2_find, l2_states, l1_find, l1_states in readers:
                way = l2_find(line_addr)
                if way < 0:
                    continue
                if l2_states[way] == MODIFIED:
                    found = DIRTY_COPY
                elif found == NO_COPY:
                    found = CLEAN_COPY
                l2_states[way] = SHARED
                way = l1_find(line_addr)
                if way >= 0:
                    if l1_states[way] == MODIFIED:
                        found = DIRTY_COPY
                    l1_states[way] = SHARED
            return found

        def write(line_addr: int) -> bool:
            dirty = False
            for l2_evict, l2_stats, l1_evict, l1_stats in writers:
                l2_state = l2_evict(line_addr)
                if l2_state < 0:
                    continue
                if l2_state == MODIFIED:
                    dirty = True
                l2_stats.invalidations_received += 1
                l1_state = l1_evict(line_addr)
                if l1_state >= 0:
                    if l1_state == MODIFIED:
                        dirty = True
                    l1_stats.invalidations_received += 1
            return dirty

        def upgrade(line_addr: int) -> int:
            invalidated = 0
            for l2_evict, l2_stats, l1_evict, l1_stats in writers:
                if l2_evict(line_addr) >= 0:
                    l2_stats.invalidations_received += 1
                    invalidated += 1
                if l1_evict(line_addr) >= 0:
                    l1_stats.invalidations_received += 1
            return invalidated

        return read, write, upgrade

    def snoop_read(self, requester: int, line_addr: int) -> str:
        """``requester``'s read walk; ``"c2c"`` if a MODIFIED owner
        supplies the data, else ``"mem"``."""
        found = self._walks[requester][0](line_addr)
        return "c2c" if found == DIRTY_COPY else "mem"

    def snoop_write(self, requester: int, line_addr: int) -> str:
        """``requester``'s write walk; ``"c2c"`` if a MODIFIED owner
        supplied the dirty data, else ``"mem"``."""
        return "c2c" if self._walks[requester][1](line_addr) else "mem"

    def upgrade(self, requester: int, line_addr: int) -> int:
        """``requester``'s upgrade walk; the number of remote copies
        invalidated."""
        return self._walks[requester][2](line_addr)

    # ------------------------------------------------------------------
    # introspection and invariants (tests and debug runs)

    def any_remote_copy(self, requester: int, line_addr: int) -> bool:
        """Does any other processor cache this line (L2 check suffices
        because L2 includes L1)?"""
        for cpu in range(self.n_cpus):
            if cpu == requester:
                continue
            if self.l2s[cpu].find(line_addr) >= 0:
                return True
        return False

    def check_invariants(self) -> None:
        """Raise :class:`ProtocolError` on MESI violations.

        Checked: at most one processor holds a line MODIFIED or
        EXCLUSIVE; if anyone holds it MODIFIED/EXCLUSIVE, nobody else
        holds it at all; L1 residency implies L2 residency (inclusion).
        """
        owners: dict[int, int] = {}
        holders: dict[int, set[int]] = {}
        for cpu in range(self.n_cpus):
            l2 = self.l2s[cpu]
            for line_addr, state in zip(l2.tags, l2.states):
                if line_addr < 0:
                    continue
                holders.setdefault(line_addr, set()).add(cpu)
                if state in (LineState.MODIFIED, LineState.EXCLUSIVE):
                    if line_addr in owners:
                        raise ProtocolError(
                            f"line {line_addr:#x} owned by both CPU "
                            f"{owners[line_addr]} and CPU {cpu}"
                        )
                    owners[line_addr] = cpu
            for line_addr in self.l1ds[cpu].tags:
                if line_addr >= 0 and l2.find(line_addr) < 0:
                    raise ProtocolError(
                        f"inclusion violated: CPU {cpu} L1 holds "
                        f"{line_addr:#x} but its L2 does not"
                    )
        for line_addr, owner in owners.items():
            others = holders.get(line_addr, set()) - {owner}
            if others:
                raise ProtocolError(
                    f"line {line_addr:#x} owned by CPU {owner} but also "
                    f"cached by {sorted(others)}"
                )
