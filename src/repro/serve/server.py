"""The ``repro serve`` daemon: simulation-as-a-service over HTTP.

:class:`ServiceDaemon` composes the pieces this package and the core
runner already provide — a priority :class:`~repro.serve.queue.JobQueue`,
a :class:`~repro.serve.scheduler.Scheduler` driving the warm
:class:`~repro.core.runner.RunnerSession` pool, the content-addressed
:class:`~repro.core.runner.ResultCache` and the batch
:class:`~repro.obs.bus.EventBus` — behind a small JSON HTTP API served
on stdlib ``socketserver`` threads (no new dependencies). Requests are
framed by :mod:`repro.serve.wire` and routed by :data:`_ROUTES`; each
endpoint is described in ``docs/SERVICE.md``.

Graceful shutdown (:meth:`ServiceDaemon.shutdown`, wired to
SIGINT/SIGTERM by the CLI) stops accepting, lets in-flight work drain
for a grace period, SIGKILLs what remains, persists every unfinished
job to a :class:`~repro.serve.queue.QueueManifest` for
``repro serve --resume``, and flushes the event bus so the telemetry
log is complete.

A job's status document, whichever endpoint answers with it, carries
the job's ``result`` once it has one (:meth:`ServiceDaemon.encode_status`),
so a finished job's result needs no exchange of its own.

Connections are HTTP/1.1 keep-alive: one handler thread per client
socket, ``TCP_NODELAY`` set, each response leaving in one send, idle
sockets dropped after :data:`IDLE_TIMEOUT_S`.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs

import repro
from repro.core.runner import ResultCache, Runner
from repro.errors import ReproError
from repro.obs import bus as obs_bus
from repro.obs.bus import BusEvent, EventBus
from repro.obs.export import header, prometheus_text, sample
from repro.serve import wire
from repro.serve.queue import (
    CACHED,
    CANCELLED,
    DONE,
    QUEUED,
    JobQueue,
    QueueManifest,
)
from repro.serve.scheduler import Scheduler
from repro.serve.wire import MAX_BODY_BYTES

#: Longest a ``?wait=`` request is held before it is answered with the
#: job's current (non-terminal) status; clients ask again.
MAX_HOLD_S = 30.0
#: Seconds a keep-alive socket may sit between requests before its
#: handler thread gives it up.
IDLE_TIMEOUT_S = 30.0
#: Longest a refused connection is listened to after its answer: what
#: the client had already sent is taken off the socket first, because
#: closing over unread input resets the connection and can cost the
#: client the answer.
LINGER_S = 1.0

#: The ``Server`` value of every response
_SERVER = f"repro/{repro.__version__}"


class EventRouter:
    """Fan bus events out to per-job streams by their ``tag`` field.

    Installed as the :class:`EventBus` ``on_event`` callback; keeps an
    append-only list per tag plus a condition the NDJSON stream
    handlers wait on, so a client watching one job wakes exactly when
    that job emits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._by_tag: dict[str, list[BusEvent]] = {}

    def __call__(self, event: BusEvent) -> None:
        """Collector callback: route one event (untagged ones skip)."""
        tag = event.fields.get("tag")
        if not isinstance(tag, str) or not tag:
            return
        with self._cond:
            self._by_tag.setdefault(tag, []).append(event)
            self._cond.notify_all()

    def events_for(self, tag: str, start: int = 0) -> list[BusEvent]:
        """Events routed to ``tag`` from index ``start`` onward."""
        with self._lock:
            return list(self._by_tag.get(tag, ())[start:])

    def wait(self, tag: str, start: int, timeout: float) -> bool:
        """Block until ``tag`` has more than ``start`` events."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._by_tag.get(tag, ())) <= start:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    return False
            return True


class ServiceDaemon:
    """Long-running simulation service: queue, warm pool, HTTP front.

    ``port=0`` binds an ephemeral port (tests); read the bound one from
    :attr:`port` after :meth:`start`. ``cache=None`` disables result
    caching and dedup-by-cache (in-flight dedup still applies).
    ``state_dir`` holds the shutdown queue manifest and the JSONL
    telemetry log. ``ckpt_every``/``ckpt_dir`` and ``trace_dir`` are
    daemon policy stamped onto every accepted job — they never cross
    the wire and do not change job identity.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        state_dir: str | Path | None = None,
        max_retries: int = 2,
        ckpt_every: int = 0,
        ckpt_dir: str | None = None,
        trace_dir: str | None = None,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.cache = cache
        self.state_dir = Path(state_dir) if state_dir else None
        self.ckpt_every = ckpt_every
        self.ckpt_dir = ckpt_dir
        self.trace_dir = trace_dir
        self.router = EventRouter()
        events_path = (
            self.state_dir / "events.jsonl" if self.state_dir else None
        )
        self.bus = EventBus(
            log_path=events_path, on_event=self.router
        )
        self.runner = Runner(
            jobs=jobs,
            cache=cache,
            max_retries=max_retries,
            bus=self.bus,
        )
        self.queue = JobQueue()
        # Built in start(): the scheduler mints bus handles, which
        # need the bus's manager to be running.
        self.scheduler: Scheduler | None = None
        self.manifest = (
            QueueManifest(self.state_dir / "queue_manifest.json")
            if self.state_dir
            else None
        )
        self.started_at: float | None = None
        self._accepting = False
        self._stopping = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shut = False
        self._httpd: _ServeHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._previous_handle: obs_bus.BusHandle | None = None

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after start)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def accepting(self) -> bool:
        """Whether ``POST /v1/jobs`` is currently admitted."""
        return self._accepting

    def start(self, resume: bool = False) -> "ServiceDaemon":
        """Bind, start the bus + scheduler, optionally re-enqueue a
        persisted manifest, and begin serving. Returns ``self``."""
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self.bus.start()
        # Current-handle for the daemon process: cache get/put hooks
        # (submit pre-checks, scheduler publishes) reach the bus.
        self._previous_handle = obs_bus.set_current(self.bus.handle())
        self.bus.emit("batch.start", service=True)
        self.scheduler = Scheduler(self.runner, self.queue)
        self.scheduler.start()
        self.started_at = time.time()
        self._accepting = True
        if resume and self.manifest is not None:
            self._resume_manifest()
        self._httpd = _ServeHTTPServer(
            (self.host, self._requested_port), _Handler, self
        )
        self._server_thread = threading.Thread(
            target=self._httpd.serve_until_stopped,
            name="repro-serve-http",
            daemon=True,
        )
        self._server_thread.start()
        return self

    def _resume_manifest(self) -> None:
        restored = 0
        for entry in self.manifest.load():
            try:
                job = self._apply_policy(
                    wire.job_from_payload(entry["job"])
                )
                job.key()
            except (ReproError, KeyError):
                continue
            priority = entry.get("priority", 0)
            if not isinstance(priority, int) or isinstance(
                priority, bool
            ):
                priority = 0
            self.queue.submit(job, priority)
            restored += 1
        self.manifest.clear()
        if restored:
            self.bus.emit("batch.start", resumed_jobs=restored,
                          service=True)

    def shutdown(self, grace: float = 10.0) -> bool:
        """Drain and stop everything; returns ``True`` if fully drained.

        Stops accepting, answers every parked ``?wait=`` request with
        its job's current status, waits up to ``grace`` seconds for the
        queue to go idle, force-stops the scheduler (SIGKILLing workers
        still simulating), persists the unfinished tail to the queue
        manifest, flushes and stops the bus, and closes the listener
        and every client socket still open. Idempotent.
        """
        with self._shutdown_lock:
            if self._shut:
                return True
            self._shut = True
        self._accepting = False
        self._stopping.set()
        self.queue.wake()
        drained = self.queue.wait_idle(timeout=grace)
        if self.scheduler is not None:
            self.scheduler.stop(timeout=max(1.0, grace), force=True)
        pending = self.queue.pending()
        if self.manifest is not None:
            if pending:
                self.manifest.write(pending)
            else:
                self.manifest.clear()
        self.bus.emit(
            "batch.end",
            jobs=len(self.queue.records()),
            unfinished=len(pending),
            service=True,
        )
        self.bus.flush()
        obs_bus.set_current(self._previous_handle)
        self.bus.stop()
        if self._httpd is not None:
            self._httpd.stop()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
            self._httpd.server_close()
        return drained

    # -- job admission --------------------------------------------------

    def _apply_policy(self, job):
        """Stamp daemon-owned execution policy onto an accepted job."""
        import dataclasses

        updates: dict = {}
        if self.ckpt_dir and self.ckpt_every:
            updates["ckpt_dir"] = self.ckpt_dir
            updates["ckpt_every"] = self.ckpt_every
        if self.trace_dir:
            updates["trace_dir"] = self.trace_dir
        return dataclasses.replace(job, **updates) if updates else job

    def submit(self, payload: dict) -> dict:
        """Admit one wire payload; returns the submission response:
        the job's status document (as ``GET /v1/jobs/{id}`` answers
        it) plus ``reused``, whether an existing record absorbed it.

        Raises :class:`~repro.serve.wire.WireError` for malformed or
        semantically invalid payloads (the handler's 400 path).
        """
        job = self._apply_policy(wire.job_from_payload(payload))
        priority = wire.submit_priority(payload)
        try:
            # The queue files the job under Job.key(), which is also
            # the semantic validation (scale, overrides, topology).
            # Submit-time pre-check: a spec already published by an
            # earlier run (or another daemon sharing the cache
            # directory) is answered ``cached``, touching no worker.
            record, deduped = self.queue.submit(
                job, priority,
                lambda fresh: self.scheduler.serve_cached(fresh, "submit"),
            )
        except ReproError as error:
            raise wire.WireError(str(error)) from error
        return {**record.status(), "reused": deduped}

    def cancel(self, job_id: str) -> dict | None:
        """Cancel a job; ``None`` for unknown ids."""
        record = self.queue.get(job_id)
        if record is None:
            return None
        before = record.state
        state = self.queue.cancel(job_id)
        if before == QUEUED and state == CANCELLED:
            self.bus.emit(
                "job.cancelled",
                job=record.job.label(),
                tag=record.id,
                source="queued",
            )
        return {
            "id": job_id,
            "state": state,
            "cancel_requested": record.cancel_requested,
        }

    # -- introspection --------------------------------------------------

    def status(self, job_id: str, wait: float = 0.0) -> dict | None:
        """Status document for one job; ``None`` for unknown ids.

        ``wait`` (seconds, clamped to :data:`MAX_HOLD_S`) parks the
        caller until the job is terminal; a daemon that is stopping
        answers at once.
        """
        record = self.queue.wait_terminal(
            job_id, min(wait, MAX_HOLD_S), self._stopping
        )
        return None if record is None else record.status()

    def encode_status(self, document: dict) -> bytes:
        """A status document (:meth:`submit`'s or :meth:`status`'s) as
        it goes on the wire.

        Once the job is ``done`` or ``cached`` the answer also carries
        ``result``: the record's ``/result`` body, spliced in as the
        bytes :meth:`JobQueue.finish` encoded, never encoded again. A
        record lands its body before its state, and one with a body is
        never replaced, so a final document always finds it.
        """
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        if document["state"] not in (DONE, CACHED):
            return body
        result = self.queue.get(document["id"]).result_body
        return b"".join((body[:-1], b', "result": ', result, b"}"))

    def open_connections(self) -> int:
        """Client sockets the HTTP front end currently holds open."""
        return self._httpd.open_connections() if self._httpd else 0

    def queue_info(self) -> dict:
        """The ``GET /v1/queue`` document."""
        return {
            "accepting": self._accepting,
            "workers": self.runner.n_jobs,
            "inflight": (
                self.scheduler.inflight() if self.scheduler else 0
            ),
            "executed": (
                self.scheduler.executed if self.scheduler else 0
            ),
            "counts": self.queue.counts(),
            "jobs": [
                record.status() for record in self.queue.records()
            ],
        }

    def health(self) -> dict:
        """The ``GET /v1/health`` document."""
        return {
            "ok": True,
            "version": repro.__version__,
            "wire_version": wire.WIRE_VERSION,
            "accepting": self._accepting,
            "workers": self.runner.n_jobs,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
        }

    def cache_info(self) -> dict:
        """The ``GET /v1/cache`` document (counters + disk usage)."""
        if self.cache is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "counters": self.cache.stats(),
            "disk": self.cache.disk_stats(),
        }

    def metrics_text(self) -> str:
        """The ``GET /v1/metrics`` body: batch rollup + service gauges."""
        text = prometheus_text(self.bus.rollup())
        lines: list[str] = []
        jobs = "repro_service_jobs"
        header(lines, jobs, "gauge", "Jobs by lifecycle state.")
        for state, count in self.queue.counts().items():
            sample(lines, jobs, count, {"state": state})
        scheduler = self.scheduler
        for name, kind, help_text, value in (
            ("accepting", "gauge", "Whether POST /v1/jobs is admitted.",
             int(self._accepting)),
            ("workers", "gauge", "Warm pool worker slots.",
             self.runner.n_jobs),
            ("inflight", "gauge", "Jobs dispatched to the pool.",
             scheduler.inflight() if scheduler else 0),
            ("executed_total", "counter",
             "Simulations run to completion by this daemon.",
             scheduler.executed if scheduler else 0),
            ("uptime_seconds", "gauge", "Daemon uptime.",
             (time.time() - self.started_at) if self.started_at else 0.0),
            ("longpoll_parked", "gauge",
             "Status requests held by ?wait= right now.", self.queue.parked),
        ):
            header(lines, f"repro_service_{name}", kind, help_text)
            sample(lines, f"repro_service_{name}", value)
        labelled = []
        if self._httpd is not None:
            connections, requests = self._httpd.traffic()
            name = "repro_service_http_connections_total"
            header(lines, name, "counter", "Client connections accepted.")
            sample(lines, name, connections)
            labelled += [
                ("http_requests_total", "Requests routed, by endpoint.",
                 "endpoint", requests),
                ("http_refused_total", "Requests refused with the "
                 "connection closed, by reason.", "reason",
                 self._httpd.refused()),
            ]
        if self.cache is not None:
            labelled.append((
                "cache_ops", "Result-cache counters since daemon start.",
                "op", self.cache.stats(),
            ))
        for name, help_text, label, counts in labelled:
            name = f"repro_service_{name}"
            header(lines, name, "counter", help_text)
            for key, count in sorted(counts.items()):
                sample(lines, name, count, {label: key})
        return text + "\n".join(lines) + "\n"

    # -- event streaming ------------------------------------------------

    def stream_events(self, job_id: str, poll: float = 0.25):
        """Yield NDJSON lines for one job's bus events until terminal.

        Each yielded line is a serialized :class:`BusEvent`; the stream
        closes with a synthetic ``serve.state`` line carrying the
        record's final state. Returns immediately (no lines) for
        unknown ids; ends early if the daemon begins shutting down.
        """
        if self.queue.get(job_id) is None:
            return
        cursor = 0
        while True:
            events = self.router.events_for(job_id, cursor)
            cursor += len(events)
            for event in events:
                yield event.to_json_line()
            record = self.queue.get(job_id)
            if record is not None and record.terminal:
                # Drain stragglers the collector already has queued.
                self.bus.flush(timeout=2.0)
                events = self.router.events_for(job_id, cursor)
                cursor += len(events)
                for event in events:
                    yield event.to_json_line()
                yield json.dumps(
                    {
                        "kind": "serve.state",
                        "id": job_id,
                        "state": record.state,
                        "attempts": record.attempts,
                        "ts": time.time(),
                    },
                    sort_keys=True,
                )
                return
            if self._stopping.is_set():
                return
            self.router.wait(job_id, cursor, poll)


class _ServeHTTPServer(socketserver.ThreadingTCPServer):
    """Threading TCP server carrying a reference to its daemon.

    Also the keeper of the connection books: which client sockets are
    open (so shutdown can hang up on them) and how many connections and
    requests there have been (``/v1/metrics``).
    """

    daemon_threads = True
    allow_reuse_address = True
    # handle_request() is only called on a readable listener; it must
    # not sit in a select of its own if that connection is gone again.
    timeout = 0

    def __init__(self, address, handler, service: ServiceDaemon) -> None:
        super().__init__(address, handler)
        self.service = service
        self._waker, self._wakee = socket.socketpair()
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._connections = 0
        self._requests: dict[str, int] = {}
        self._refused: dict[str, int] = {}
        #: (epoch second, its ``Date`` header value)
        self._date: tuple[int, str] = (0, "")

    # -- accept loop ----------------------------------------------------

    def serve_until_stopped(self) -> None:
        """Accept connections until :meth:`stop`; no poll interval."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wakee, selectors.EVENT_READ)
            while True:
                for key, _ in selector.select():
                    if key.fileobj is self._wakee:
                        return
                    self.handle_request()

    def stop(self) -> None:
        """End :meth:`serve_until_stopped` now."""
        self._waker.send(b"\0")

    def server_close(self) -> None:
        """Close the listener and hang up on every client still open."""
        super().server_close()
        self._waker.close()
        self._wakee.close()
        with self._lock:
            still_open = list(self._open)
        for connection in still_open:
            # Read side only: the handler thread sees end-of-stream and
            # closes the socket itself, after any answer it is writing.
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass

    # -- connection books -----------------------------------------------

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._open.add(request)
            self._connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """A client that hung up mid-exchange is not worth a traceback."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def count(self, endpoint: str) -> None:
        """Book one routed request."""
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def count_refused(self, reason: str) -> None:
        """Book one request refused with the connection closed."""
        with self._lock:
            self._refused[reason] = self._refused.get(reason, 0) + 1

    def traffic(self) -> tuple[int, dict[str, int]]:
        """Connections accepted and requests routed per endpoint."""
        with self._lock:
            return self._connections, dict(self._requests)

    def refused(self) -> dict[str, int]:
        """Requests refused with the connection closed, per reason."""
        with self._lock:
            return dict(self._refused)

    def open_connections(self) -> int:
        """Client sockets currently open."""
        with self._lock:
            return len(self._open)

    def http_date(self) -> str:
        """The ``Date`` header value, formatted once a second."""
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True))
        return self._date[1]


class _Handler(socketserver.StreamRequestHandler):
    """Serves the ``/v1`` API on one client socket.

    One instance serves the socket for as long as the client keeps it:
    every exchange must leave the socket at the start of the next
    request, or say ``Connection: close``. A request is framed by
    :func:`wire.read_request` and :func:`wire.read_body` and routed by
    :data:`_ROUTES`; a message whose framing would have to be guessed
    at is refused by name (:meth:`_refuse`) — the table is in
    ``docs/SERVICE.md``.
    """

    server: _ServeHTTPServer
    # Keep-alive with Nagle on stalls every small exchange ~40 ms
    # against the peer's delayed ACK.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    #: whether the connection stays open after this exchange's answer
    keep_alive = False

    @property
    def service(self) -> ServiceDaemon:
        """The daemon this server front-ends."""
        return self.server.service

    def handle(self) -> None:
        """Answer requests until one is the last, the client goes or the
        socket idles past :attr:`timeout`."""
        try:
            while self._exchange():
                pass
        except TimeoutError:
            pass  # idle, or a client that stopped reading

    def _exchange(self) -> bool:
        """Read, answer and route one request; whether another may
        follow on this socket."""
        self.keep_alive = False
        try:
            request = wire.read_request(self.rfile)
            if request is None:
                return False
            method, target, headers, self.keep_alive = request
            if method not in _VERBS:
                raise wire.FramingError(
                    501, "method", f"Unsupported method ({method!r})"
                )
            if headers.get("expect", "").lower() == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = wire.read_body(self.rfile, headers)
        except wire.FramingError as error:
            self._refuse(error.status, error.reason, str(error))
            return False
        path, _, query = target.partition("?")
        parts = [part for part in path.split("/") if part]
        job_id = ""
        if parts[:2] == ["v1", "jobs"] and len(parts) > 2:
            job_id, parts[2] = parts[2], "{id}"
        endpoint, serve = _ROUTES.get(
            (method, "/" + "/".join(parts)), ("other", None)
        )
        self.server.count(endpoint)
        if serve is None:
            self._error(404, f"no such endpoint: {method} {target}")
        else:
            serve(self, job_id, query, body)
        return self.keep_alive

    # -- plumbing -------------------------------------------------------

    def _head(
        self, code: int, content_type: str, length: int | None = None
    ) -> bytes:
        """Status line and header block of one response; with no
        ``length`` the body runs until the connection closes."""
        head = (
            f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
            f"Server: {_SERVER}\r\n"
            f"Date: {self.server.http_date()}\r\n"
            f"Content-Type: {content_type}\r\n"
        )
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        if not self.keep_alive:
            head += "Connection: close\r\n"
        return (head + "\r\n").encode("latin-1")

    def _send_bytes(self, code: int, body: bytes, content_type: str) -> None:
        """One response, status line to last body byte, in one write."""
        self.wfile.write(self._head(code, content_type, len(body)) + body)

    def _send_json(self, code: int, payload: dict) -> None:
        self._send_bytes(
            code,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            "application/json",
        )

    def _send_status(self, code: int, document: dict) -> None:
        self._send_bytes(
            code, self.service.encode_status(document), "application/json"
        )

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _refuse(self, code: int, reason: str, message: str) -> None:
        """Answer a request that will not be read any further and give
        the connection up; booked under ``reason``."""
        self.server.count_refused(reason)
        self.keep_alive = False
        self._error(code, message)
        # Lingering close: end of answer, then whatever was already on
        # its way here is taken off the socket so that close() finds
        # nothing unread.
        connection = self.connection
        try:
            connection.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + LINGER_S
            unread = MAX_BODY_BYTES
            while unread > 0:
                connection.settimeout(max(0.0, deadline - time.monotonic()))
                taken = connection.recv(min(unread, 1 << 16))
                if not taken:
                    break
                unread -= len(taken)
        except OSError:
            pass  # timed out, or the client is gone already

    def _json_object(self, raw: bytes) -> dict | None:
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, ValueError):
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def _hold_seconds(self, query: str) -> float | None:
        """The ``?wait=`` value; 400 sent and ``None`` if not a number."""
        values = parse_qs(query).get("wait") if query else None
        if not values:
            return 0.0
        try:
            hold = float(values[-1])
        except ValueError:
            hold = math.nan
        if math.isnan(hold):
            self._error(400, "wait must be a number of seconds")
            return None
        return max(0.0, hold)

    # -- endpoints: (job id, query, body) -> one answer ------------------

    def _submit(self, _job_id: str, _query: str, body: bytes) -> None:
        payload = self._json_object(body)
        if payload is None:
            return
        if not self.service.accepting:
            self._error(503, "daemon is shutting down; not accepting jobs")
            return
        try:
            response = self.service.submit(payload)
        except wire.WireError as error:
            self._error(400, str(error))
            return
        fresh = not response["reused"] and response["state"] != CACHED
        self._send_status(202 if fresh else 200, response)

    def _cancel(self, job_id: str, *_) -> None:
        response = self.service.cancel(job_id)
        if response is None:
            self._error(404, f"unknown job {job_id}")
            return
        self._send_json(200, response)

    def _status(self, job_id: str, query: str, _body: bytes) -> None:
        hold = self._hold_seconds(query)
        if hold is None:
            return
        status = self.service.status(job_id, wait=hold)
        if status is None:
            self._error(404, f"unknown job {job_id}")
            return
        self._send_status(200, status)

    def _result(self, job_id: str, *_) -> None:
        record = self.service.queue.get(job_id)
        if record is None:
            self._error(404, f"unknown job {job_id}")
            return
        if record.result_body is not None:
            self._send_bytes(200, record.result_body, "application/json")
            return
        if record.terminal:
            error = record.error or (
                f"job ended {record.state} without a result"
            )
        else:
            error = f"job has not finished; poll /v1/jobs/{job_id} for status"
        self._send_json(
            409, {"id": record.id, "state": record.state, "error": error}
        )

    def _events(self, job_id: str, *_) -> None:
        if self.service.queue.get(job_id) is None:
            self._error(404, f"unknown job {job_id}")
            return
        # No Content-Length: the stream ends when the job does, and the
        # connection closes with it.
        self.keep_alive = False
        self.wfile.write(self._head(200, "application/x-ndjson"))
        try:
            for line in self.service.stream_events(job_id):
                self.wfile.write(line.encode("utf-8") + b"\n")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _health(self, *_) -> None:
        self._send_json(200, self.service.health())

    def _queue(self, *_) -> None:
        self._send_json(200, self.service.queue_info())

    def _cache(self, *_) -> None:
        self._send_json(200, self.service.cache_info())

    def _metrics(self, *_) -> None:
        self._send_bytes(
            200,
            self.service.metrics_text().encode("utf-8"),
            "text/plain; version=0.0.4",
        )


#: (method, path shape) -> (endpoint label on
#: ``repro_service_http_requests_total``, the handler that answers);
#: a shape names the job id ``{id}``. A request matching no row is a
#: 404, booked ``other``.
_ROUTES = {
    ("POST", "/v1/jobs"): ("submit", _Handler._submit),
    ("POST", "/v1/jobs/{id}/cancel"): ("cancel", _Handler._cancel),
    ("GET", "/v1/jobs/{id}"): ("status", _Handler._status),
    ("GET", "/v1/jobs/{id}/result"): ("result", _Handler._result),
    ("GET", "/v1/jobs/{id}/events"): ("events", _Handler._events),
    ("GET", "/v1/queue"): ("queue", _Handler._queue),
    ("GET", "/v1/metrics"): ("metrics", _Handler._metrics),
    ("GET", "/v1/cache"): ("cache", _Handler._cache),
    ("GET", "/v1/health"): ("health", _Handler._health),
}
#: the verbs any route takes; another is a 501, refused unread
_VERBS = frozenset(method for method, _ in _ROUTES)
