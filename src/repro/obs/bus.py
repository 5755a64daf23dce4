"""Batch-level telemetry: a process-safe event bus for the runner fleet.

PR 4's ``repro.obs`` sees inside a single :class:`~repro.core.system.System`;
this module extends the same opt-in philosophy to the *batch* layer.
A parent process that wants fleet telemetry constructs an
:class:`EventBus`; workers receive a picklable :class:`BusHandle` and
emit structured events (job started/finished/retried/timed-out,
cache hit/miss/store, checkpoint save/load, trace record/replay,
worker spawn/death, pool rebuilds) over a ``multiprocessing`` manager
queue to a collector thread in the parent, which assigns a total order
(``seq``), appends each event to a JSONL log as it arrives, counts it
in a running :class:`~repro.obs.export.Tally` (keeping no event list),
and feeds any live subscriber.

Durability properties the fault-injection suite relies on:

* ``BusHandle.emit`` is a synchronous RPC into the manager process, so
  every event emitted before a worker is SIGKILLed survives and is
  drained by the collector;
* the collector thread is independent of any one
  ``ProcessPoolExecutor`` — a pool rebuild loses no events, and
  :meth:`EventBus.flush` gives the runner a barrier ("everything
  emitted so far is in the log") before it records a rebuild;
* the JSONL log is written one complete line per event and flushed,
  so a killed *parent* leaves a readable prefix.

The bus is off by default everywhere. Instrumented library code
(the artifact stores, ``Job.resolve_factory``) emits through the
module-level :func:`emit`, which is a single ``is not None`` check on
the process-current handle when telemetry is off — the same contract the
single-System observability hooks honour. With the bus off, zero
events are produced and simulated statistics are byte-identical
(``tests/test_obs_bus.py`` enforces both).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

#: Every event kind the bus knows how to emit. ``validate_events``
#: rejects unknown kinds so the JSONL schema stays honest.
EVENT_KINDS = frozenset({
    # batch lifecycle (parent)
    "batch.start", "batch.end",
    # job lifecycle (worker for start/finish/fail/timeout; parent for
    # cached skips, retries, quarantine and cancellation decisions —
    # job.cancelled is the service layer's terminal state for a
    # client-cancelled job; job.unbudgeted: a timeout_s that nothing
    # can enforce where the job runs, off the main thread)
    "job.start", "job.finish", "job.fail", "job.timeout",
    "job.unbudgeted",
    "job.retry", "job.cached", "job.quarantined", "job.cancelled",
    # worker-pool lifecycle
    "worker.spawn", "worker.death", "pool.rebuild",
    # artifact stores (*.evict: an entry failed its store's integrity
    # check; cache.error: a finished result could not be published)
    "cache.hit", "cache.miss", "cache.store", "cache.evict", "cache.error",
    "ckpt.save", "ckpt.load", "ckpt.evict",
    "trace.record", "trace.hit", "trace.replay", "trace.evict",
})

#: Each event kind that ends a job → its terminal status (the
#: ``status`` label on ``repro_jobs_total``).
JOB_STATUS = {
    "job.finish": "ok",
    "job.fail": "failed",
    "job.timeout": "timeout",
    "job.cached": "cached",
    "job.quarantined": "quarantined",
    "job.cancelled": "cancelled",
}

#: Event kinds that must carry a ``job`` label.
_JOB_KINDS = frozenset(
    kind for kind in EVENT_KINDS if kind.startswith("job.")
)


@dataclass
class BusEvent:
    """One structured telemetry record.

    ``seq`` is assigned by the collector (a total order over the whole
    batch — wall clocks from different processes are not comparable at
    microsecond granularity, the sequence number is). ``fields`` holds
    the kind-specific payload (job label, attempt number, digests,
    byte counts, ...).
    """

    kind: str
    ts: float
    pid: int
    seq: int | None = None
    fields: dict = field(default_factory=dict)

    _CORE = ("kind", "ts", "pid", "seq")

    def to_dict(self) -> dict:
        """Flat JSON-serializable form (fields merged into the core)."""
        out = {"seq": self.seq, "ts": self.ts, "pid": self.pid,
               "kind": self.kind}
        out.update(self.fields)
        return out

    def to_json_line(self) -> str:
        """One JSONL log line (sorted keys, no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "BusEvent":
        fields = {
            key: value for key, value in data.items()
            if key not in cls._CORE
        }
        return cls(
            kind=data["kind"],
            ts=data["ts"],
            pid=data["pid"],
            seq=data.get("seq"),
            fields=fields,
        )


class BusHandle:
    """Picklable emitter end of the bus.

    Carries the manager-queue proxy plus the parent's pid (so worker
    processes can tell whether they are the parent — the serial path —
    or a pool worker that should announce itself). Emission never
    raises: telemetry must not be able to break a run, so a vanished
    manager (parent died) degrades to dropped events.
    """

    __slots__ = ("_queue", "parent_pid")

    def __init__(self, queue, parent_pid: int) -> None:
        self._queue = queue
        self.parent_pid = parent_pid

    def emit(self, kind: str, **fields) -> None:
        """Put one event on the bus (timestamp and pid stamped here)."""
        record = {"kind": kind, "ts": time.time(), "pid": os.getpid()}
        record.update(fields)
        try:
            self._queue.put(record)
        except Exception:  # noqa: BLE001 — telemetry is best-effort
            pass


# ----------------------------------------------------------------------
# process-current handle (how deep library code reaches the bus)

_CURRENT: BusHandle | None = None


def set_current(handle: BusHandle | None) -> BusHandle | None:
    """Install ``handle`` as this process's emitter; returns the old one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = handle
    return previous


def current() -> BusHandle | None:
    """This process's current bus handle (``None`` = telemetry off)."""
    return _CURRENT


def emit(kind: str, **fields) -> None:
    """Emit through the process-current handle; no-op when none is set.

    This is the hook instrumented library code (the artifact stores,
    ``Job.resolve_factory``) calls — one global ``None`` check when the
    bus is off.
    """
    handle = _CURRENT
    if handle is not None:
        handle.emit(kind, **fields)


# ----------------------------------------------------------------------
# the parent-side bus


class EventBus:
    """Parent-side collector: manager queue, JSONL log, live feed.

    Lifecycle: ``start()`` spins up a ``multiprocessing.Manager`` and a
    collector thread; ``handle()`` mints picklable emitters for
    workers (and for the parent itself); ``stop()`` drains, closes the
    log and shuts the manager down, returning the batch rollup.
    Usable as a context manager.

    ``on_event`` is an optional callable receiving each
    :class:`BusEvent` as it is collected (the live progress view);
    exceptions from it are swallowed so a rendering bug cannot lose
    telemetry.
    """

    _STOP = "__bus_stop__"
    _FLUSH = "__bus_flush__"

    def __init__(
        self,
        log_path: str | Path | None = None,
        on_event: Callable[[BusEvent], None] | None = None,
    ) -> None:
        self.log_path = Path(log_path) if log_path else None
        self.on_event = on_event
        from repro.obs.export import Tally  # export imports this module

        self._tally = Tally()
        # HTTP threads scrape the tally while the collector adds to it
        self._tally_lock = threading.Lock()
        self._manager = None
        self._queue = None
        self._thread: threading.Thread | None = None
        self._log_file = None
        self._seq = 0
        self._flush_lock = threading.Lock()
        self._flush_acks: dict[int, threading.Event] = {}
        self._flush_token = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "EventBus":
        """Spin up the manager, the log file and the collector thread."""
        if self._thread is not None:
            return self
        self._manager = multiprocessing.Manager()
        self._queue = self._manager.Queue()
        if self.log_path is not None:
            self.log_path.parent.mkdir(parents=True, exist_ok=True)
            self._log_file = open(self.log_path, "w", encoding="utf-8")
        self._thread = threading.Thread(
            target=self._collect, name="obs-bus-collector", daemon=True
        )
        self._thread.start()
        return self

    def __enter__(self) -> "EventBus":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def handle(self) -> BusHandle:
        """Mint a picklable emitter for a worker (or the parent)."""
        if self._queue is None:
            raise RuntimeError("EventBus.start() has not been called")
        return BusHandle(self._queue, os.getpid())

    def emit(self, kind: str, **fields) -> None:
        """Parent-side emission (same total order as worker events)."""
        self.handle().emit(kind, **fields)

    def flush(self, timeout: float = 10.0) -> bool:
        """Barrier: every event emitted before this call is collected.

        Puts a marker through the FIFO queue and waits for the
        collector to reach it — the runner calls this before recording
        a pool rebuild so events from the dead pool's workers are
        already in the log.
        """
        if self._queue is None or self._thread is None:
            return True
        with self._flush_lock:
            self._flush_token += 1
            token = self._flush_token
            ack = threading.Event()
            self._flush_acks[token] = ack
        try:
            self._queue.put({self._FLUSH: token})
        except Exception:  # noqa: BLE001 — manager already gone
            self._flush_acks.pop(token, None)
            return False
        ok = ack.wait(timeout)
        self._flush_acks.pop(token, None)
        return ok

    def stop(self) -> dict:
        """Drain and shut down; returns the batch rollup."""
        if self._thread is not None:
            try:
                self._queue.put(self._STOP)
            except Exception:  # noqa: BLE001
                pass
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
            self._queue = None
        return self.rollup()

    # -- collection -----------------------------------------------------

    def _collect(self) -> None:
        while True:
            try:
                item = self._queue.get()
            except (EOFError, OSError):
                break
            if item == self._STOP:
                break
            if isinstance(item, dict) and self._FLUSH in item:
                ack = self._flush_acks.get(item[self._FLUSH])
                if ack is not None:
                    ack.set()
                continue
            if not isinstance(item, dict) or "kind" not in item:
                continue  # never let a malformed record kill collection
            self._seq += 1
            try:
                event = BusEvent.from_dict(item)
            except (KeyError, TypeError):
                continue
            event.seq = self._seq
            with self._tally_lock:
                self._tally.add(event)
            if self._log_file is not None:
                self._log_file.write(event.to_json_line() + "\n")
                self._log_file.flush()
            if self.on_event is not None:
                try:
                    self.on_event(event)
                except Exception:  # noqa: BLE001 — viewer bugs drop nothing
                    pass

    # -- summaries ------------------------------------------------------

    def rollup(self) -> dict:
        """The running tally's counters plus ``log_path``."""
        with self._tally_lock:
            out = self._tally.snapshot()
        out["log_path"] = str(self.log_path) if self.log_path else None
        return out


# ----------------------------------------------------------------------
# reading and validating JSONL event logs


def parse_events(data: bytes) -> list[BusEvent]:
    """The bus events in a run of JSONL log lines, skipping each line
    that is not one (blank, foreign, or torn by a write in flight)."""
    events = []
    for line in data.split(b"\n"):
        try:
            events.append(BusEvent.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError):
            continue
    return events


def read_events(source: str | Path) -> list[BusEvent]:
    """Parse a JSONL event log into :class:`BusEvent` records (see
    :func:`parse_events`)."""
    return parse_events(Path(source).read_bytes())


def validate_events(source: str | Path | Iterable[dict]) -> list[str]:
    """Schema-check a JSONL event log (path or parsed records).

    Returns a list of problems (empty means valid): every line must be
    a JSON object with a known ``kind``, a numeric ``ts``, a positive
    integer ``pid`` and a strictly increasing integer ``seq`` (the
    collector's total order); ``job.*`` events must carry their job
    label.
    """
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except OSError as error:
            return [f"unreadable event log: {error}"]
        records: list = []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                records.append(f"line {number} is not valid JSON")
    else:
        records = list(source)

    errors: list[str] = []
    last_seq = 0
    for index, record in enumerate(records):
        if isinstance(record, str):  # parse error placeholder
            errors.append(record)
            continue
        if not isinstance(record, dict):
            errors.append(f"event {index} is not an object")
            continue
        kind = record.get("kind")
        if kind not in EVENT_KINDS:
            errors.append(f"event {index} has unknown kind {kind!r}")
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event {index} has bad ts {ts!r}")
        pid = record.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            errors.append(f"event {index} has bad pid {pid!r}")
        seq = record.get("seq")
        if not isinstance(seq, int):
            errors.append(f"event {index} has bad seq {seq!r}")
        elif seq <= last_seq:
            errors.append(
                f"event {index} breaks seq ordering "
                f"({seq} after {last_seq})"
            )
        else:
            last_seq = seq
        if kind in _JOB_KINDS and not record.get("job"):
            errors.append(f"event {index} ({kind}) is missing its job")
    return errors
