"""A small discrete-event engine.

The engine keeps a time-ordered queue of callbacks; a driver advances
simulated time and calls :meth:`Engine.run_until` so that any deferred
work scheduled for that cycle (or earlier) executes.

No simulation run schedules on it: every memory system models
contention with busy timelines (:mod:`repro.mem.bank`) and the run loop
(:mod:`repro.core.system`) fast-forwards on the CPUs' resume times
alone. The module and its tests stay **only** because the benchmark
ledger's ``drives.sim_engine`` micro-drive imports it; once that drive
is dropped (ROADMAP), so is this module.

Events scheduled for the same cycle run in FIFO order of scheduling,
which keeps the simulation deterministic.

Cancellation is lazy: :meth:`Event.cancel` only flags the event, and the
queue drops flagged entries when they reach the front. The engine keeps
a count of still-queued cancelled events so ``len(engine)`` stays O(1)
no matter how cancel-heavy the schedule is.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Ordered by ``(time, seq)`` so ties break in scheduling order.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        engine: "Engine | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._engine is not None:
                self._engine._cancelled += 1

    def __repr__(self) -> str:
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq}{flag}>"


class Engine:
    """Time-ordered event queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self.now = 0
        self._queue: list[Event] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._queue) - self._cancelled

    def schedule(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to run at ``time``.

        ``time`` may equal ``now`` (runs on the next :meth:`run_until`)
        but may not be in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, now is {self.now}"
            )
        event = Event(time, self._seq, callback, args, engine=self)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def run_until(self, time: int) -> int:
        """Run every pending event with ``event.time <= time``.

        Advances ``now`` to ``time`` and returns the number of events
        executed. Events may schedule further events; those are executed
        too if they fall within the window.
        """
        executed = 0
        queue = self._queue
        while queue and queue[0].time <= time:
            event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled -= 1
                continue
            # Detach so a late cancel() on an executed event cannot
            # decrement the count of an event no longer queued.
            event._engine = None
            if event.time > self.now:
                self.now = event.time
            event.callback(*event.args)
            executed += 1
        if time > self.now:
            self.now = time
        return executed

    def drain(self) -> int:
        """Run every remaining event regardless of time; return the count."""
        executed = 0
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._engine = None
            if event.time > self.now:
                self.now = event.time
            event.callback(*event.args)
            executed += 1
        return executed

    def peek_time(self) -> int | None:
        """Time of the earliest pending event, or ``None`` if idle.

        Prunes cancelled events lazily from the front of the queue so
        later pops see a live head.
        """
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
            self._cancelled -= 1
        if not queue:
            return None
        return queue[0].time
