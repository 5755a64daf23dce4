"""Python client for the ``repro serve`` daemon.

:class:`ServiceClient` wraps the JSON HTTP API in plain method calls
built on ``http.client`` (stdlib only, matching the daemon's
no-new-dependencies rule): submit a :class:`~repro.core.runner.Job` or
a raw wire payload, read status, block until terminal, fetch the full
:class:`~repro.core.experiment.ExperimentResult`, cancel, and follow
the live NDJSON event stream. The ``repro client`` CLI subcommands are
thin shells over this class.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import weakref
from typing import Iterator
from urllib.parse import urlsplit

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


class _Headers(dict):
    """A response's headers as :func:`wire.read_headers` returns them,
    answering by any spelling of a name — and ``get_all``, which is how
    ``HTTPResponse.getheader`` asks."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)

    def get_all(self, name: str, default=None):
        value = self.get(name)
        return default if value is None else [value]


class _Response(http.client.HTTPResponse):
    """``HTTPResponse`` that reads its header block in one pass.

    ``begin()`` is the stdlib's but for who parses the headers:
    :func:`wire.read_headers`, where ``http.client.parse_headers``
    hands every line to ``email.parser``. Set as ``response_class`` on
    the connection, so ``http`` and ``https`` share it.
    """

    def begin(self) -> None:
        if self.headers is not None:
            return  # already begun
        try:
            while True:
                version, status, reason = self._read_status()
                if status != http.client.CONTINUE:
                    break
                wire.read_headers(self.fp)  # the 100 response's own
            headers = _Headers(wire.read_headers(self.fp))
        except wire.FramingError as error:
            raise http.client.HTTPException(str(error)) from error
        self.code = self.status = status
        self.reason = reason.strip()
        if version in ("HTTP/1.0", "HTTP/0.9"):
            self.version = 10
        elif version.startswith("HTTP/1."):
            self.version = 11
        else:
            raise http.client.UnknownProtocol(version)
        self.headers = self.msg = headers
        self.chunked = (
            headers.get("transfer-encoding", "").lower() == "chunked"
        )
        self.chunk_left = None
        self.will_close = self._check_close()
        self.length = None
        length = headers.get("content-length", "")
        if not self.chunked and length.isascii() and length.isdigit():
            self.length = int(length)
        if (
            status in (http.client.NO_CONTENT, http.client.NOT_MODIFIED)
            or 100 <= status < 200
            or self._method == "HEAD"
        ):
            self.length = 0
        if not self.chunked and self.length is None:
            # neither framing: the body ends when the connection does
            self.will_close = True


class _Connection(http.client.HTTPConnection):
    """``HTTPConnection`` whose request leaves in one ``send()``, head
    and body together, and whose responses are :class:`_Response`.

    ``_send_output`` is the stdlib's own, but for one ``send()`` where
    it sends the head and then the body: on a no-delay socket those
    are two segments, two system calls here and two reads at the
    daemon.
    """

    response_class = _Response

    def _send_output(self, message_body=None, encode_chunked=False):
        if message_body.__class__ is not bytes or encode_chunked:
            return super()._send_output(message_body, encode_chunked)
        self._buffer.extend((b"", message_body))
        request = b"\r\n".join(self._buffer)
        del self._buffer[:]
        self.send(request)


class _SecureConnection(_Connection, http.client.HTTPSConnection):
    """:class:`_Connection` over TLS."""


def _close_all(connections: dict, lock: threading.Lock) -> None:
    with lock:
        doomed = list(connections.values())
        connections.clear()
    for connection in doomed:
        if connection.sock is not None:
            # Say goodbye on the wire: close() alone tells the daemon
            # nothing while a forked child holds a copy of the socket.
            try:
                connection.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
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
        self._connections: dict[int, http.client.HTTPConnection] = {}
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

    def _new_connection(
        self, timeout: float | None
    ) -> http.client.HTTPConnection:
        # http.client sets TCP_NODELAY on every socket it connects.
        factory = {
            "http": _Connection,
            "https": _SecureConnection,
        }.get(self._url.scheme)
        try:
            host, port = self._url.hostname, self._url.port
        except ValueError:  # a port that is not a number
            host = None
        if factory is None or not host:
            raise ServiceError(
                f"not an http(s) server URL: {self.server!r}"
            )
        return factory(host, port, timeout=timeout)

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
        headers = {"Accept": accept}
        if body is not None:
            headers["Content-Type"] = "application/json"
        ident = threading.get_ident()
        connection = self._connections.get(ident)
        if connection is None:
            connection = self._new_connection(self.timeout)
            with self._lock:
                self._connections[ident] = connection
        while True:
            kept = connection.sock is not None
            try:
                connection.request(
                    method, self._url.path + path, body=body,
                    headers=headers,
                )
                response = connection.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, OSError) as error:
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
        if response.status >= 400:
            detail = ""
            try:
                detail = json.loads(raw).get("error", "")
            except (ValueError, AttributeError):
                pass  # body may not be JSON
            raise ServiceError(
                f"{method} {path} failed: HTTP {response.status}"
                + (f" — {detail}" if detail else ""),
                code=response.status,
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
        connection = self._new_connection(None)
        try:
            connection.request(
                "GET",
                f"{self._url.path}/v1/jobs/{job_id}/events",
                headers={"Accept": "application/x-ndjson"},
            )
            response = connection.getresponse()
            if response.status != 200:
                raise ServiceError(
                    f"watch {job_id} failed: HTTP {response.status}",
                    code=response.status,
                )
            for raw in response:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue
        except (http.client.HTTPException, OSError) as error:
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
