"""Store (write) buffers.

Every architecture's L1 posts stores through a small write buffer: the
CPU moves on after one cycle while the store completes in the
background (write-through drain, write-allocate fill, or upgrade
transaction). The CPU only stalls when the buffer is full, waiting for
the oldest entry to complete. Store-conditionals bypass the buffer —
their outcome gates the program.

This mirrors the paper's machine: Table 1 gives stores a 1-cycle
latency, and the shared-L2 discussion attributes that architecture's
losses to *port contention* from write-through traffic, not to CPUs
waiting out their own stores.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError


class WriteBuffer:
    """Completion times of in-flight stores for one CPU.

    ``_pending`` is kept as a deque of completion times in
    non-decreasing order — an invariant :meth:`push` maintains by
    clamping each new time to the monotone ``last_visible`` before
    appending. Retiring the entries already complete at ``at`` is then
    a prefix pop, and the oldest entry is ``_pending[0]`` — no scan,
    no reallocation, on the hottest per-store path in the simulator.
    ``last_visible`` is the newest store's visibility time (what
    :meth:`push` returned for it).
    """

    __slots__ = ("depth", "_pending", "last_visible", "full_stalls", "stores")

    def __init__(self, depth: int = 8) -> None:
        if depth <= 0:
            raise ConfigError("write buffer depth must be positive")
        self.depth = depth
        self._pending: deque[int] = deque()
        self.last_visible = 0
        self.full_stalls = 0
        self.stores = 0

    def admit(self, at: int) -> tuple[int, bool]:
        """Make room for a new store arriving at ``at``.

        Returns ``(start, stalled)``: the cycle at which the store may
        enter the buffer (== ``at`` unless the buffer was full) and
        whether the CPU had to stall for a slot.
        """
        pending = self._pending
        while pending and pending[0] <= at:
            pending.popleft()
        if len(pending) < self.depth:
            return at, False
        self.full_stalls += 1
        return pending.popleft(), True

    def push(self, done: int) -> int:
        """Record a store completing at ``done``; returns its
        *visibility* time.

        The buffer drains in order, so a store can never become visible
        before an earlier store from the same CPU — the program-order
        guarantee lock releases rely on (the protected data must be
        globally visible before the release is).
        """
        self.stores += 1
        if done < self.last_visible:
            done = self.last_visible
        else:
            self.last_visible = done
        self._pending.append(done)
        return done

    def make_post(self):
        """Build ``post(at, done) -> release``: :meth:`admit` at ``at``
        then :meth:`push` of ``done`` as one call, for the lanes and
        built paths (nothing between the two reads the buffer, so
        running them back to back changes no outcome).

        ``release`` is the cycle the store enters the buffer; the CPU
        stalled for a slot exactly when ``release > at``, and the
        store's visibility time is ``last_visible`` afterwards.
        The closure captures ``_pending``, which is therefore only ever
        mutated in place (checkpoint restore included).
        """
        pending = self._pending
        popleft = pending.popleft
        append = pending.append
        depth = self.depth
        buffer = self

        def post(at: int, done: int) -> int:
            while pending and pending[0] <= at:
                popleft()
            if len(pending) >= depth:
                buffer.full_stalls += 1
                at = popleft()
            buffer.stores += 1
            if done < buffer.last_visible:
                done = buffer.last_visible
            else:
                buffer.last_visible = done
            append(done)
            return at

        return post

    def drain_time(self, at: int) -> int:
        """Cycle by which everything currently buffered completes."""
        pending = self._pending
        if pending and pending[-1] > at:
            return pending[-1]
        return at

    @property
    def occupancy(self) -> int:
        return len(self._pending)
