"""Python client for the ``repro serve`` daemon.

:class:`ServiceClient` wraps the JSON HTTP API in plain method calls
over a small connection class of its own (stdlib sockets only,
matching the daemon's no-new-dependencies rule), whose messages are
framed by :mod:`repro.serve.wire`, the one framing module both ends
use: submit a :class:`~repro.core.runner.Job` or
a raw wire payload, read status, block until terminal, fetch the full
:class:`~repro.core.experiment.ExperimentResult`, cancel, and follow
the live NDJSON event stream. The ``repro client`` CLI subcommands are
thin shells over this class.
"""

from __future__ import annotations

import json
import socket
import ssl
import threading
import time
import weakref
from typing import Iterator
from urllib.parse import SplitResult, urlsplit

from repro.core.experiment import ExperimentResult
from repro.core.runner import Job
from repro.errors import ReproError
from repro.serve import wire
from repro.serve.queue import CACHED, DONE, TERMINAL_STATES

DEFAULT_SERVER = "http://127.0.0.1:8765"

#: Share of the socket timeout :meth:`ServiceClient.wait` asks the
#: daemon to hold a status request for; the rest is for the answer to a
#: hold that ran out to arrive in.
HOLD_SHARE = 0.8
#: Floor on one round of :meth:`ServiceClient.wait` when the daemon
#: answers ahead of the hold (it predates ``?wait=``, or is draining).
EARLY_ANSWER_PACE_S = 0.2
#: The terminal states with a result: a content-addressed job in one
#: never changes again (a failure may be retried by a resubmit).
_FINAL_STATES = (DONE, CACHED)


class ServiceError(ReproError):
    """An error response (or transport failure) from the service."""

    def __init__(self, message: str, code: int | None = None) -> None:
        super().__init__(message)
        self.code = code


class _Connection:
    """One socket to the daemon, opened on first use, and the buffered
    reader :func:`wire.read_response` takes its responses from for as
    long as it lives. A request leaves in one ``sendall``: head and
    body sent apart on a no-delay socket are two segments, and two
    reads at the daemon."""

    def __init__(self, url: SplitResult, timeout: float | None) -> None:
        self.url, self.timeout = url, timeout
        self.sock = self.rfile = None

    def _open(self) -> None:
        url = self.url
        default = {"http": 80, "https": 443}.get(url.scheme)
        try:
            port = url.port or default
        except ValueError:  # a port that is not a number
            port = None
        if not (default and port and url.hostname):
            raise ServiceError(f"not an http(s) server URL: {url.geturl()!r}")
        sock = socket.create_connection((url.hostname, port), self.timeout)
        # Nagle's algorithm would stall each exchange ~40 ms
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if url.scheme == "https":  # a failed handshake closes the socket
            sock = ssl.create_default_context().wrap_socket(
                sock, server_hostname=url.hostname
            )
        self.sock, self.rfile = sock, sock.makefile("rb")

    def send(
        self, method: str, target: str, accept: str, body: bytes | None
    ) -> None:
        """Send one request, connecting first if there is no socket."""
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: {self.url.netloc}\r\n"
            f"Accept: {accept}\r\n"
        )
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        if self.sock is None:
            self._open()
        self.sock.sendall((head + "\r\n").encode("latin-1") + (body or b""))

    def close(self) -> None:
        if self.sock is not None:
            # Say goodbye on the wire: close() alone tells the daemon
            # nothing while a forked child holds a copy of the socket.
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None


def _close_all(connections: dict, lock: threading.Lock) -> None:
    with lock:
        doomed = list(connections.values())
        connections.clear()
    for connection in doomed:
        connection.close()


class ServiceClient:
    """Talks to one ``repro serve`` daemon.

    ``server`` is the base URL (scheme + host + port). ``timeout`` is
    the per-request socket timeout; :meth:`wait` asks the daemon to
    hold each status request for less than that, so a slow simulation
    never trips it.

    Each thread that calls into a client gets its own persistent
    connection, opened on first use and kept until :meth:`close` (also
    the context-manager exit, and what happens when the client is
    garbage-collected), so one instance may be shared between threads.
    Each thread also keeps its last status answer (from :meth:`submit`,
    :meth:`status` or :meth:`wait`) in one slot. When that answer was
    final it is all :meth:`wait` needs, and the result it carried is
    handed to :meth:`result_payload` once, with no request.
    """

    def __init__(
        self,
        server: str = DEFAULT_SERVER,
        timeout: float = 10.0,
    ) -> None:
        self.server = server.rstrip("/")
        self.timeout = timeout
        self._url = urlsplit(self.server)
        self._lock = threading.Lock()
        #: thread ident -> that thread's connection
        self._connections: dict[int, _Connection] = {}
        #: per thread: ``last``, its last status answer and the result
        #: that answer carried (``None`` once handed out)
        self._local = threading.local()
        weakref.finalize(self, _close_all, self._connections, self._lock)

    def close(self) -> None:
        """Close every connection; the next call opens a fresh one."""
        _close_all(self._connections, self._lock)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ------------------------------------------------------

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        accept: str = "application/json",
    ) -> bytes:
        """One request on this thread's connection; the response body.

        Raises :class:`ServiceError` for a transport failure or an
        error status (``code`` set, with the daemon's ``error`` text).
        """
        ident = threading.get_ident()
        connection = self._connections.get(ident)
        if connection is None:
            connection = _Connection(self._url, self.timeout)
            with self._lock:
                self._connections[ident] = connection
        while True:
            kept = connection.sock is not None
            try:
                connection.send(method, self._url.path + path, accept, body)
                status, raw, persistent = wire.read_response(connection.rfile)
                break
            except (wire.FramingError, OSError) as error:
                connection.close()
                # A kept socket the daemon has since dropped (idle
                # timeout, restart) fails on its next use: go again,
                # once, on a new one. Every call is safe to repeat —
                # submit is idempotent by content address.
                if kept and isinstance(error, ConnectionError):
                    continue
                raise ServiceError(
                    f"cannot reach {self.server}: {error}"
                ) from error
        if not persistent:
            connection.close()
        if status >= 400:
            detail = ""
            try:
                detail = json.loads(raw).get("error", "")
            except (ValueError, AttributeError):
                pass  # body may not be JSON
            raise ServiceError(
                f"{method} {path} failed: HTTP {status}"
                + (f" — {detail}" if detail else ""),
                code=status,
            )
        return raw

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
    ) -> dict:
        body = (
            None if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        return json.loads(self._exchange(method, path, body))

    def _status_request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
    ) -> dict:
        """A request answered with a status document; the ``result`` a
        final answer carries goes to this thread's slot, not to the
        caller."""
        answer = self._request(method, path, payload)
        self._local.last = (answer, answer.pop("result", None))
        return answer

    # -- submission -----------------------------------------------------

    def submit(self, job: Job | dict, priority: int = 0) -> dict:
        """Submit a job (or raw wire payload); returns the response.

        The response is the job's status document (what
        :meth:`status` returns: the content-addressed ``id``, its
        current ``state`` and the rest) plus ``reused`` — ``cached``
        means the result is already available, ``reused: true`` means
        an identical spec was already known and this submission
        attached to it.
        """
        if isinstance(job, Job):
            payload = wire.job_to_payload(job, priority)
        else:
            payload = dict(job)
            if priority:
                payload["priority"] = priority
        return self._status_request("POST", "/v1/jobs", payload)

    # -- status ---------------------------------------------------------

    def status(self, job_id: str) -> dict:
        """Current lifecycle status of ``job_id``."""
        return self._status_request("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until ``job_id`` is terminal; returns the final status.

        When this thread's last status answer was about ``job_id`` and
        ``done`` or ``cached`` — final for a content-addressed job —
        that answer is the final status and no request is made.
        Otherwise it long-polls: each status request carries ``?wait=S``
        and the daemon answers when the job ends or the hold ``S`` runs
        out, so a job of any length within one hold costs one request.
        Raises :class:`ServiceError` when ``timeout`` (seconds) expires
        first.
        """
        last, _ = getattr(self._local, "last", (None, None))
        if (
            last is not None
            and last["id"] == job_id
            and last["state"] in _FINAL_STATES
        ):
            return last
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            asked = time.monotonic()
            hold = self.timeout * HOLD_SHARE
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - asked))
            status = self._status_request(
                "GET", f"/v1/jobs/{job_id}?wait={hold:.3f}"
            )
            if status["state"] in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:g}s"
                )
            early = (
                asked + min(hold, EARLY_ANSWER_PACE_S) - time.monotonic()
            )
            if early > 0:
                time.sleep(early)

    # -- results --------------------------------------------------------

    def result_payload(self, job_id: str) -> dict:
        """The raw ``/result`` document (result JSON + metadata).

        The result this thread's last answer carried, if that answer was
        about ``job_id``, is handed out once with no request; otherwise
        (or from a daemon whose answers carry none) it is fetched.
        """
        last, result = getattr(self._local, "last", (None, None))
        if result is not None and last["id"] == job_id:
            self._local.last = (last, None)  # handed out once
            return result
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def result(self, job_id: str) -> ExperimentResult:
        """The job's :class:`ExperimentResult`, deserialized."""
        return ExperimentResult.from_dict(
            self.result_payload(job_id)["result"]
        )

    def run(
        self,
        job: Job | dict,
        priority: int = 0,
        timeout: float | None = None,
    ) -> ExperimentResult:
        """Submit, wait for completion, and fetch the result: one
        exchange for a job that is already final, two for one that ends
        within a hold.

        The blocking convenience path — the service-side equivalent of
        :meth:`Job.run`. Raises :class:`ServiceError` if the job ends
        without a result (failed, quarantined, cancelled).
        """
        job_id = self.submit(job, priority)["id"]
        status = self.wait(job_id, timeout=timeout)
        if status["state"] not in _FINAL_STATES:
            raise ServiceError(
                f"job {job_id} ended {status['state']}"
                + (
                    f": {status['error']}"
                    if status.get("error")
                    else ""
                )
            )
        return self.result(job_id)

    # -- control --------------------------------------------------------

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; returns the resulting state."""
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    # -- streaming ------------------------------------------------------

    def watch(self, job_id: str) -> Iterator[dict]:
        """Follow ``job_id``'s live event stream (parsed NDJSON).

        Yields each bus event routed to the job as a dict; the last
        item is the synthetic ``serve.state`` record carrying the final
        state. The stream has a connection of its own, open for the
        job's lifetime, so no socket timeout is applied.
        """
        connection = _Connection(self._url, None)
        try:
            connection.send(
                "GET", f"{self._url.path}/v1/jobs/{job_id}/events",
                "application/x-ndjson", None,
            )
            status, _, _ = wire.read_response(connection.rfile, stream=True)
            if status != 200:
                raise ServiceError(
                    f"watch {job_id} failed: HTTP {status}", code=status
                )
            for line in connection.rfile:
                try:
                    yield json.loads(line)
                except ValueError:  # a blank or torn line
                    continue
        except (wire.FramingError, OSError) as error:
            raise ServiceError(
                f"cannot reach {self.server}: {error}"
            ) from error
        finally:
            connection.close()

    # -- daemon introspection -------------------------------------------

    def queue(self) -> dict:
        """The daemon's queue document (counts + job listing)."""
        return self._request("GET", "/v1/queue")

    def health(self) -> dict:
        """Liveness probe (version, uptime, accepting flag)."""
        return self._request("GET", "/v1/health")

    def cache(self) -> dict:
        """Result-cache counters and disk usage."""
        return self._request("GET", "/v1/cache")

    def metrics(self) -> str:
        """The Prometheus text exposition (raw body)."""
        return self._exchange(
            "GET", "/v1/metrics", accept="text/plain"
        ).decode("utf-8")
