"""Dispatch loop between the service queue and the warm worker pool.

The :class:`Scheduler` owns one dispatcher thread and one
:class:`~repro.core.runner.RunnerSession`. The thread claims the
highest-priority queued record, serves it straight from the
:class:`ResultCache` when possible (``job.cached``, no worker touched),
and otherwise dispatches it to the warm pool under a bounded-slot
semaphore: at most ``runner.n_jobs`` simulations in flight.

Completions are handled on executor callback threads. What a finished
future means — crash, timeout, failure, result — is decided by
:meth:`~repro.core.runner.RunnerSession.settle`, as for the batch
runner; this module maps the outcome onto the queue and adds what a
batch does not have: shutdown takes unfinished jobs back to
``queued``, and a job with ``cancel_requested`` set has its result
discarded and lands as ``cancelled`` — workers are never interrupted
mid-simulation: killing one breaks the pool for innocent neighbours.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.core.runner import Runner
from repro.serve.queue import JobQueue, JobRecord


class Scheduler:
    """Moves jobs from a :class:`JobQueue` through a warm worker pool."""

    def __init__(self, runner: Runner, queue: JobQueue) -> None:
        self.runner = runner
        self.queue = queue
        self.session = runner.session()
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
        self.session._emit(
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

    def serve_cached(self, record: JobRecord, source: str) -> bool:
        """Finish ``record`` from the result cache, if it is there."""
        cache = self.runner.cache
        result = cache.get(record.job) if cache is not None else None
        if result is None:
            return False
        self.queue.finish(record, result, cached=True)
        self._emit("job.cached", record, source=source)
        return True

    def _dispatch(self, record: JobRecord) -> None:
        # Cache pre-pass before consuming a worker slot: a second
        # daemon sharing the cache directory (or a restart) may have
        # published the result since this record was submitted.
        if not record.cancel_requested and self.serve_cached(
            record, "dispatch"
        ):
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
            if future.cancelled() or (
                self._stop.is_set()
                and isinstance(future.exception(), BrokenProcessPool)
            ):
                # Shutdown took the job back (never started, or its
                # worker SIGKILLed by the forced close): leave it
                # queued for the manifest.
                self.queue.requeue(record)
                return
            outcome = self.session.settle(
                record.job,
                future,
                generation,
                record.attempts,
                tag=record.id,
                discard=record.cancel_requested,
            )
            if outcome is not None and not outcome.failed:
                with self._lock:
                    self._executed += 1
            if record.cancel_requested and (
                outcome is None or not outcome.failed
            ):
                # The client withdrew the request: nothing is
                # retried, nothing was published.
                self.queue.mark_cancelled(record)
                self._emit("job.cancelled", record, crashed=outcome is None)
            elif outcome is None:
                self.queue.requeue(record)
            elif outcome.failed:
                self.queue.fail(
                    record,
                    outcome.error,
                    timed_out=outcome.timed_out,
                    quarantined=outcome.quarantined,
                )
            else:
                self.queue.finish(record, outcome.result)
        finally:
            with self._lock:
                self._inflight.pop(record.id, None)
            self._slots.release()

    # -- shutdown -------------------------------------------------------

    def stop(self, timeout: float = 10.0, force: bool = True) -> None:
        """Stop dispatching and tear the pool down.

        With ``force=True`` the session is closed first — SIGKILLing
        workers still simulating, which rolls their records back to
        ``queued`` for the shutdown manifest (checkpoint auto-resume
        makes the re-run cheap). With ``force=False`` in-flight work
        gets ``timeout`` seconds to land.
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
