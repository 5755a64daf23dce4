"""Live batch progress view fed by the event bus.

``python -m repro reproduce --live`` hooks a :class:`LiveView` into the collector's
``on_event`` callback: one repainted status line (TTY) or periodic
status lines (plain stream) showing per-worker state, jobs done/total,
the cache hit rate, and an ETA extrapolated from the mean wall time of
finished jobs. Rendering runs on the collector thread and is rate
limited; a rendering exception is swallowed by the bus so the view can
never cost telemetry.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

from repro.obs.bus import JOB_STATUS, BusEvent
from repro.obs.export import Tally


class LiveView:
    """Terminal progress renderer over the batch event stream: counts
    from its own :class:`~repro.obs.export.Tally`, plus what each
    worker pid is running."""

    def __init__(
        self,
        total: int,
        stream: TextIO | None = None,
        interval: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.clock = clock
        self.tally = Tally()
        #: pid -> job label currently executing there
        self.busy: dict[int, str] = {}
        self._last_paint = 0.0
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())

    # -- event feed -----------------------------------------------------

    def on_event(self, event: BusEvent) -> None:
        """Collector callback: fold one event in, repaint if due."""
        self.tally.add(event)
        if event.kind == "job.start":
            self.busy[event.pid] = event.fields.get("job", "?")
        elif event.kind in JOB_STATUS or event.kind == "worker.death":
            self.busy.pop(event.pid, None)
        now = self.clock()
        if now - self._last_paint >= self.interval:
            self._last_paint = now
            self.paint()

    def _count(self, *kinds: str) -> int:
        return sum(self.tally.by_kind.get(kind, 0) for kind in kinds)

    @property
    def done(self) -> int:
        """Jobs that reached a terminal status."""
        return self._count(*JOB_STATUS)

    @property
    def cached(self) -> int:
        return self._count("job.cached")

    @property
    def failed(self) -> int:
        return self._count("job.fail", "job.timeout", "job.quarantined")

    # -- rendering ------------------------------------------------------

    def eta_seconds(self) -> float | None:
        """Remaining-time estimate from the mean finished-job wall."""
        remaining = self.total - self.done
        if remaining <= 0 or self.tally.wall_count == 0:
            return None
        lanes = max(1, len(self.busy))
        mean = self.tally.wall_sum / self.tally.wall_count
        return remaining * mean / lanes

    def render(self) -> str:
        """The one-line status summary."""
        parts = [f"[batch] {self.done}/{self.total} done"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.failed:
            parts.append(f"{self.failed} failed")
        retries = self._count("job.retry")
        if retries:
            parts.append(f"{retries} retries")
        hits = self._count("cache.hit")
        probes = hits + self._count("cache.miss")
        if probes:
            rate = 100.0 * hits / probes
            parts.append(f"cache {rate:.0f}% hit")
        parts.append(f"{len(self.busy)} busy")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        line = " | ".join(parts)
        if self.busy:
            workers = ", ".join(
                f"{pid}:{label}"
                for pid, label in sorted(self.busy.items())
            )
            line += f" [{workers}]"
        return line

    def paint(self) -> None:
        """Write the status line (carriage-return repaint on a TTY)."""
        line = self.render()
        if self._is_tty:
            self.stream.write("\r\x1b[2K" + line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def finish(self) -> None:
        """Final paint plus a newline to release the status line."""
        self.paint()
        if self._is_tty:
            self.stream.write("\n")
            self.stream.flush()
