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

from repro.obs.bus import BusEvent

_TERMINALS = {"job.finish", "job.fail", "job.timeout",
              "job.cached", "job.quarantined"}


class LiveView:
    """Terminal progress renderer over the batch event stream."""

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
        self.done = 0
        self.failed = 0
        self.cached = 0
        self.retries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.wall_sum = 0.0
        self.wall_count = 0
        #: pid -> job label currently executing there
        self.busy: dict[int, str] = {}
        self._started = clock()
        self._last_paint = 0.0
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())

    # -- event feed -----------------------------------------------------

    def on_event(self, event: BusEvent) -> None:
        """Collector callback: fold one event in, repaint if due."""
        kind = event.kind
        if kind == "job.start":
            self.busy[event.pid] = event.fields.get("job", "?")
        elif kind in _TERMINALS:
            self.busy.pop(event.pid, None)
            self.done += 1
            if kind == "job.cached":
                self.cached += 1
            elif kind in ("job.fail", "job.timeout", "job.quarantined"):
                self.failed += 1
            wall = event.fields.get("wall_seconds")
            if kind == "job.finish" and isinstance(wall, (int, float)):
                self.wall_sum += wall
                self.wall_count += 1
        elif kind == "job.retry":
            self.retries += 1
        elif kind == "cache.hit":
            self.cache_hits += 1
        elif kind == "cache.miss":
            self.cache_misses += 1
        elif kind == "worker.death":
            self.busy.pop(event.pid, None)
        now = self.clock()
        if now - self._last_paint >= self.interval:
            self._last_paint = now
            self.paint()

    # -- rendering ------------------------------------------------------

    def eta_seconds(self) -> float | None:
        """Remaining-time estimate from the mean finished-job wall."""
        remaining = self.total - self.done
        if remaining <= 0 or self.wall_count == 0:
            return None
        lanes = max(1, len(self.busy))
        return remaining * (self.wall_sum / self.wall_count) / lanes

    def render(self) -> str:
        """The one-line status summary."""
        parts = [f"[batch] {self.done}/{self.total} done"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        probes = self.cache_hits + self.cache_misses
        if probes:
            rate = 100.0 * self.cache_hits / probes
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
