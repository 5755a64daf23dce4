"""Async priority job queue for the simulation service.

The queue is the daemon's single source of truth about every job it
has accepted: a thread-safe map of content-addressed
:class:`JobRecord` entries plus a priority heap of the ones still
waiting to run. Jobs are keyed by :meth:`~repro.core.runner.Job.key`
— the same SHA-256 content address the :class:`ResultCache` uses — so
submission is naturally idempotent: an identical spec submitted while
the first copy is queued, running or completed simply attaches to the
existing record instead of simulating twice.

State machine::

    queued ──▶ running ──▶ done | failed | quarantined | cancelled
       │                                        ▲
       └──▶ cached (result served from the      │
            content-addressed store)    cancel of a queued job

A retry after a worker crash moves ``running`` back to ``queued``
(attempt count preserved). Terminal *failure* states are re-runnable:
resubmitting a spec whose record failed, was cancelled or was
quarantined starts a fresh attempt under the same id.

:class:`QueueManifest` persists the non-terminal tail of the queue at
shutdown so ``repro serve --resume`` can re-enqueue unfinished work.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.core.experiment import ExperimentResult
from repro.core.runner import Job
from repro.core.store import publish, read_document
from repro.serve import wire

# Job lifecycle states (wire-visible strings).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
QUARANTINED = "quarantined"
CACHED = "cached"

#: States from which a record never moves again (without resubmission).
TERMINAL_STATES = frozenset(
    {DONE, FAILED, CANCELLED, QUARANTINED, CACHED}
)


@dataclass
class JobRecord:
    """One submitted job's lifecycle state inside the daemon.

    ``id`` is the job's content address; ``submits`` counts how many
    client submissions this record absorbed (dedup factor);
    ``attempts`` counts dispatches to the pool including crash
    retries. ``result_body`` is populated on ``done``/``cached``: the
    ``GET /v1/jobs/{id}/result`` document, encoded once when the
    result lands — a record that has one never changes again, so every
    fetch, and every final status answer that carries it, sends the
    same bytes.
    """

    id: str
    job: Job
    priority: int = 0
    state: str = QUEUED
    attempts: int = 0
    submits: int = 1
    error: str | None = None
    timed_out: bool = False
    cancel_requested: bool = False
    result_body: bytes | None = None
    cached: bool = False
    seq: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def terminal(self) -> bool:
        """Whether this record has reached a final state."""
        return self.state in TERMINAL_STATES

    def status(self) -> dict:
        """JSON-serializable status (the ``GET /v1/jobs/{id}`` body)."""
        return {
            "id": self.id,
            "label": self.job.label(),
            "backend": "replay" if self.job.replay else "interpreter",
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "submits": self.submits,
            "cached": self.cached,
            "error": self.error,
            "timed_out": self.timed_out,
            "cancel_requested": self.cancel_requested,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobQueue:
    """Thread-safe priority queue of :class:`JobRecord` entries.

    Lower ``priority`` runs sooner; ties break by submission order.
    Every state transition notifies the shared condition, which
    :meth:`claim` (the scheduler's blocking pop), :meth:`wait_idle`
    (the drain barrier) and :meth:`wait_terminal` (a parked
    ``?wait=`` request) wait on. A waiter that passed its owner's stop
    event is released by :meth:`wake`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._records: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = 0
        #: Requests inside :meth:`wait_terminal` right now.
        self.parked = 0

    # -- submission -----------------------------------------------------

    def submit(
        self,
        job: Job,
        priority: int = 0,
        served: Callable[[JobRecord], object] | None = None,
    ) -> tuple[JobRecord, bool]:
        """Accept ``job``; returns ``(record, deduped)``.

        ``deduped=True`` means an existing record absorbed the
        submission — the spec is already queued, running, or finished
        with a result. Failed/cancelled/quarantined records are
        replaced by a fresh queued one (a resubmit is a retry).

        ``served(record)``, given, is called on a fresh record before
        :meth:`claim` can see it (the daemon's result-cache look); a
        record it finished never reaches the heap, so the look and the
        dispatcher's own cannot both serve it.
        """
        key = job.key()
        with self._cond:
            record = self._records.get(key)
            if record is not None and (
                not record.terminal or record.result_body is not None
            ):
                record.submits += 1
                return record, True
            self._seq += 1
            record = JobRecord(
                id=key, job=job, priority=priority, seq=self._seq
            )
            self._records[key] = record
        try:
            if served is not None:
                served(record)
        finally:
            with self._cond:
                if record.state == QUEUED:
                    heapq.heappush(self._heap, (priority, record.seq, key))
                self._cond.notify_all()
        return record, False

    # -- scheduler side -------------------------------------------------

    def claim(
        self,
        timeout: float | None = None,
        stop: threading.Event | None = None,
    ) -> JobRecord | None:
        """Pop the highest-priority queued record.

        Returns ``None`` on timeout, or once ``stop`` is set and the
        queue has been :meth:`wake`-d. Heap entries whose record was
        cancelled or re-queued under a newer seq are stale and skipped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                while self._heap:
                    _, seq, key = heapq.heappop(self._heap)
                    record = self._records.get(key)
                    if (
                        record is not None
                        and record.seq == seq
                        and record.state == QUEUED
                    ):
                        return record
                if stop is not None and stop.is_set():
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return None

    def wake(self) -> None:
        """Make every waiter look at its stop event again."""
        with self._cond:
            self._cond.notify_all()

    def mark_running(self, record: JobRecord) -> bool:
        """Transition a claimed record to ``running``.

        Returns ``False`` when the record was cancelled between claim
        and dispatch — the caller must then drop it, not run it.
        """
        with self._cond:
            if record.state != QUEUED:
                return False
            record.state = RUNNING
            record.attempts += 1
            record.started_at = time.time()
            self._cond.notify_all()
            return True

    def requeue(self, record: JobRecord) -> None:
        """Put a record back in line (crash retry, shutdown rollback)."""
        with self._cond:
            if record.terminal:
                return
            record.state = QUEUED
            heapq.heappush(
                self._heap, (record.priority, record.seq, record.id)
            )
            self._cond.notify_all()

    def _land(self, record: JobRecord, state: str, **fields) -> None:
        """Move a record that is not yet terminal to a terminal state."""
        with self._cond:
            if record.terminal:
                return
            for name, value in fields.items():
                setattr(record, name, value)
            record.state = state
            record.finished_at = time.time()
            self._cond.notify_all()

    def finish(
        self,
        record: JobRecord,
        result: ExperimentResult,
        cached: bool = False,
    ) -> None:
        """Record a successful completion (``done`` or ``cached``)."""
        state = CACHED if cached else DONE
        body = json.dumps(
            {
                "id": record.id,
                "state": state,
                "cached": cached,
                "attempts": record.attempts,
                "result": result.to_dict(),
            },
            sort_keys=True,
        ).encode("utf-8")
        self._land(record, state, result_body=body, cached=cached)

    def fail(
        self,
        record: JobRecord,
        error: str,
        timed_out: bool = False,
        quarantined: bool = False,
    ) -> None:
        """Record a terminal failure (error, timeout, or quarantine)."""
        self._land(
            record,
            QUARANTINED if quarantined else FAILED,
            error=error,
            timed_out=timed_out,
        )

    def mark_cancelled(self, record: JobRecord) -> None:
        """Finalize a cancellation (queued skip or discarded result)."""
        self._land(record, CANCELLED)

    # -- client side ----------------------------------------------------

    def cancel(self, job_id: str) -> str | None:
        """Request cancellation of a job; returns its resulting state.

        A queued job is cancelled immediately and never runs. A running
        job gets ``cancel_requested`` set: the scheduler discards its
        result when the simulation lands and finalizes the record as
        ``cancelled`` (process workers cannot be interrupted mid-job
        without killing innocent neighbours). Terminal records are left
        untouched. Unknown ids return ``None``.
        """
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                return None
            if record.state == QUEUED:
                record.state = CANCELLED
                record.finished_at = time.time()
                self._cond.notify_all()
            elif record.state == RUNNING:
                record.cancel_requested = True
                self._cond.notify_all()
            return record.state

    def get(self, job_id: str) -> JobRecord | None:
        """The record for ``job_id``, or ``None``."""
        with self._lock:
            return self._records.get(job_id)

    def wait_terminal(
        self, job_id: str, timeout: float, released: threading.Event
    ) -> JobRecord | None:
        """Park until ``job_id`` is terminal; returns its record.

        Comes back early — with the record as it stands — when
        ``timeout`` runs out or ``released`` is set and the queue
        :meth:`wake`-d, and at once with ``None`` for an unknown id.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self.parked += 1
            try:
                while True:
                    record = self._records.get(job_id)
                    remaining = deadline - time.monotonic()
                    if (
                        record is None
                        or record.terminal
                        or released.is_set()
                        or remaining <= 0
                    ):
                        return record
                    self._cond.wait(remaining)
            finally:
                self.parked -= 1

    def records(self) -> list[JobRecord]:
        """All records in submission order."""
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.seq)

    def counts(self) -> dict:
        """Record count per state (the ``GET /v1/queue`` rollup)."""
        out: dict[str, int] = {}
        with self._lock:
            for record in self._records.values():
                out[record.state] = out.get(record.state, 0) + 1
        return dict(sorted(out.items()))

    def pending(self) -> list[JobRecord]:
        """Non-terminal records (what a shutdown must persist)."""
        with self._lock:
            return sorted(
                (r for r in self._records.values() if not r.terminal),
                key=lambda r: r.seq,
            )

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until every record is terminal (the drain barrier)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: all(r.terminal for r in self._records.values()),
                timeout,
            )


class QueueManifest:
    """On-disk record of jobs the daemon accepted but did not finish.

    One JSON file of wire payloads plus queue metadata, published at
    graceful shutdown and re-enqueued by ``repro serve --resume``.
    Results never live here: finished work is in the result cache.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def write(self, records: list[JobRecord]) -> None:
        """Persist the pending tail of the queue (atomic write)."""
        payload = {
            "version": repro.__version__,
            "wire_version": wire.WIRE_VERSION,
            "jobs": [
                {
                    "id": record.id,
                    "job": wire.job_to_payload(
                        record.job, record.priority
                    ),
                    "priority": record.priority,
                    "attempts": record.attempts,
                    "submits": record.submits,
                }
                for record in records
                if isinstance(record.job.workload, str)
            ],
        }
        publish(self.path, json.dumps(payload, sort_keys=True))

    def load(self) -> list[dict]:
        """Read persisted entries; unreadable manifests load as empty.

        Each entry is ``{"job": <wire payload>, "priority": int, ...}``
        — feed the payloads back through
        :func:`repro.serve.wire.job_from_payload` to re-enqueue.
        """
        jobs = read_document(self.path).get("jobs")
        return [
            entry for entry in (jobs if isinstance(jobs, list) else [])
            if isinstance(entry, dict) and isinstance(
                entry.get("job"), dict
            )
        ]

    def clear(self) -> None:
        """Remove the manifest (everything was re-enqueued or done)."""
        try:
            self.path.unlink()
        except OSError:
            pass
