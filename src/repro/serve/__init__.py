"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

This package turns the batch-oriented fault-tolerant
:class:`~repro.core.runner.Runner` into a long-running service. The
:class:`ServiceDaemon` front-ends an async priority
:class:`~repro.serve.queue.JobQueue` and a persistent warm worker pool
(:class:`~repro.core.runner.RunnerSession`) with a small JSON HTTP API
— submit, wait, fetch, cancel, stream events, scrape metrics — and
:class:`ServiceClient` (plus the ``repro client`` CLI) consumes it.
Jobs are content-addressed by :meth:`~repro.core.runner.Job.key`, so
identical specs from any number of clients dedup to a single
simulation and previously published results return instantly from the
:class:`~repro.core.runner.ResultCache`.

Module map: :mod:`~repro.serve.wire` (the JSON job subset, and the
HTTP framing both ends use),
:mod:`~repro.serve.queue` (records, priority queue, shutdown
manifest), :mod:`~repro.serve.scheduler` (dispatch loop + crash
policy), :mod:`~repro.serve.server` (daemon + HTTP front),
:mod:`~repro.serve.client` (Python API). See ``docs/SERVICE.md``.
"""

from repro.serve.client import ServiceClient, ServiceError
from repro.serve.queue import (
    JobQueue,
    JobRecord,
    QueueManifest,
    TERMINAL_STATES,
)
from repro.serve.scheduler import Scheduler
from repro.serve.server import EventRouter, ServiceDaemon
from repro.serve.wire import (
    WIRE_VERSION,
    WireError,
    job_from_payload,
    job_to_payload,
)

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceDaemon",
    "EventRouter",
    "Scheduler",
    "JobQueue",
    "JobRecord",
    "QueueManifest",
    "TERMINAL_STATES",
    "WIRE_VERSION",
    "WireError",
    "job_from_payload",
    "job_to_payload",
]
