"""Dispatch loop between the service queue and the warm worker pool.

The :class:`Scheduler` owns one dispatcher thread and one
:class:`~repro.core.runner.RunnerSession`. The thread claims the
highest-priority queued record, serves it straight from the
content-addressed :class:`ResultCache` when possible (``job.cached``
on the bus, no worker touched), and otherwise dispatches it to the
warm pool under a bounded-slot semaphore — at most ``runner.n_jobs``
simulations in flight, however fast clients submit.

Completions are handled on executor callback threads with the same
fault policy the batch :class:`~repro.core.runner.Runner` applies: a
SIGKILLed worker breaks the pool and fails every in-flight future
with ``BrokenProcessPool``; the first completion to notice rebuilds
the session pool (one ``worker.death``/``pool.rebuild`` pair on the
bus) and every crashed job is re-queued until its ``max_retries``
budget runs out, after which it is quarantined. Jobs whose record has
``cancel_requested`` set get their result discarded and land as
``cancelled`` — process workers are never interrupted mid-simulation,
because killing one would break the pool for innocent neighbours.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future
from concurrent.futures.process import BrokenProcessPool

from repro.core.runner import Runner
from repro.errors import JobTimeoutError
from repro.serve.queue import JobQueue, JobRecord


class Scheduler:
    """Moves jobs from a :class:`JobQueue` through a warm worker pool."""

    def __init__(self, runner: Runner, queue: JobQueue) -> None:
        self.runner = runner
        self.queue = queue
        self.session = runner.session()
        self._handle = (
            runner.bus.handle() if runner.bus is not None else None
        )
        self._slots = threading.BoundedSemaphore(runner.n_jobs)
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._executed = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-dispatch", daemon=True
        )

    @property
    def executed(self) -> int:
        """Simulations actually run to completion (dedup/cache skip
        neither submits nor increments this — the test hook proving
        identical specs simulated exactly once)."""
        with self._lock:
            return self._executed

    def inflight(self) -> int:
        """Jobs currently dispatched to the pool."""
        with self._lock:
            return len(self._inflight)

    def start(self) -> None:
        """Start the dispatcher thread."""
        self._thread.start()

    def _emit(self, kind: str, record: JobRecord, **fields) -> None:
        if self._handle is not None:
            self._handle.emit(
                kind, job=record.job.label(), tag=record.id, **fields
            )

    # -- dispatch side --------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.claim(stop=self._stop)
            if record is None:
                continue
            if self._stop.is_set():
                self.queue.requeue(record)
                return
            self._dispatch(record)

    def _dispatch(self, record: JobRecord) -> None:
        # Cache pre-pass before consuming a worker slot: a second
        # daemon sharing the cache directory (or a restart) may have
        # published the result since this record was submitted.
        cache = self.runner.cache
        if cache is not None and not record.cancel_requested:
            result = cache.get(record.job)
            if result is not None:
                self.queue.finish(record, result, cached=True)
                self._emit("job.cached", record, source="dispatch")
                return
        while not self._slots.acquire(timeout=0.2):
            if self._stop.is_set():
                self.queue.requeue(record)
                return
        if not self.queue.mark_running(record):
            # Cancelled (or otherwise moved on) between claim and
            # dispatch — drop the slot and the record.
            self._slots.release()
            return
        try:
            future, generation = self.session.submit(
                record.job, attempt=record.attempts, tag=record.id
            )
        except RuntimeError:
            # Session closed under us (shutdown): roll the record back
            # so the queue manifest captures it.
            self.queue.requeue(record)
            self._slots.release()
            return
        with self._lock:
            self._inflight[record.id] = future
        future.add_done_callback(
            lambda f, r=record, g=generation: self._complete(r, g, f)
        )

    # -- completion side ------------------------------------------------

    def _complete(
        self, record: JobRecord, generation: int, future: Future
    ) -> None:
        try:
            try:
                result = future.result()
            except BrokenProcessPool:
                self._crashed(record, generation)
            except CancelledError:
                # Shutdown cancelled the future before a worker picked
                # it up; leave the record queued for the manifest.
                self.queue.requeue(record)
            except JobTimeoutError as error:
                self.queue.fail(record, str(error), timed_out=True)
            except Exception as error:  # noqa: BLE001
                # Deterministic failure inside the simulation — a retry
                # cannot help (same policy as the batch runner).
                self.queue.fail(
                    record, f"{type(error).__name__}: {error}"
                )
            else:
                if record.cancel_requested:
                    # The simulation ran to completion but the client
                    # withdrew the request: discard, do not publish.
                    self.queue.mark_cancelled(record)
                    self._emit("job.cancelled", record, discarded=True)
                else:
                    if self.runner.cache is not None:
                        self.runner.cache.put(record.job, result)
                    self.queue.finish(record, result)
                with self._lock:
                    self._executed += 1
        finally:
            with self._lock:
                self._inflight.pop(record.id, None)
            self._slots.release()

    def _crashed(self, record: JobRecord, generation: int) -> None:
        """A worker died under this job; rebuild, then retry or bury."""
        if self.session.rebuild(generation):
            # This callback owns the rebuild: drain everything the dead
            # pool's workers managed to emit, then mark the event pair.
            if self.runner.bus is not None:
                self.runner.bus.flush()
            if self._handle is not None:
                self._handle.emit("worker.death", tag=record.id)
                self._handle.emit(
                    "pool.rebuild", generation=self.session.generation
                )
        if self._stop.is_set():
            self.queue.requeue(record)
        elif record.cancel_requested:
            self.queue.mark_cancelled(record)
            self._emit("job.cancelled", record, crashed=True)
        elif record.attempts > self.runner.max_retries:
            self._emit(
                "job.quarantined", record, attempts=record.attempts
            )
            self.queue.fail(
                record,
                f"quarantined after {record.attempts} crashed "
                "attempt(s)",
                quarantined=True,
            )
        else:
            self._emit("job.retry", record, attempt=record.attempts + 1)
            self.queue.requeue(record)

    # -- shutdown -------------------------------------------------------

    def stop(self, timeout: float = 10.0, force: bool = True) -> None:
        """Stop dispatching and tear the pool down.

        With ``force=True`` the session is closed first — SIGKILLing
        any workers still simulating, which settles their futures with
        ``BrokenProcessPool`` and rolls the records back to ``queued``
        (so the shutdown manifest captures them; checkpoint auto-resume
        makes the re-run cheap). With ``force=False`` in-flight work is
        allowed up to ``timeout`` seconds to land first.
        """
        self._stop.set()
        # claim() re-reads the stop flag when woken; a dispatcher held
        # on a full pool notices within the 0.2 s acquire() timeout.
        self.queue.wake()
        if self._thread.is_alive():
            self._thread.join(timeout=max(1.0, timeout))
        if force:
            self.session.close(force=True)
        with self._lock:
            inflight = list(self._inflight.values())
        for future in inflight:
            try:
                future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - settled is all we need
                pass
        self.session.close(force=force)
