"""Wire format for the simulation service.

The service accepts jobs as plain JSON — a serialized subset of
:class:`~repro.core.runner.Job` — and returns statuses, results and
events as plain JSON back. This module is the single place that subset
is defined: :func:`job_from_payload` turns an untrusted client payload
into a validated :class:`Job` (rejecting unknown fields loudly, so a
typo like ``"archs"`` can never silently run a default machine), and
:func:`job_to_payload` is its inverse for the Python client and the
queue manifest.

Beneath the JSON, this is the one framing module both ends use:
:func:`read_headers` is the one pass over an HTTP header block that the
daemon (requests) and the client (responses) share,
:func:`read_request` and :func:`read_body` the daemon's reader of a
request around it, :func:`read_response` the client's reader of a
response, and :class:`FramingError` what either makes of a message it
will not guess at.

Deliberately *not* on the wire: execution-policy paths
(``ckpt_dir``/``trace_dir`` — the daemon decides where its artifact
stores live), callables (workloads cross the wire by registry name,
their parameters as ``workload_args``) and ``cpu_params`` (no current
preset needs per-request CPU parameter overrides; add the field here
when one does).
"""

from __future__ import annotations

import dataclasses
import inspect
import re

from repro.core.runner import Job
from repro.errors import ReproError
from repro.mem.hierarchy import MemConfig

#: Wire-format version, echoed in submissions and manifests so a
#: future incompatible change can be detected instead of misparsed.
WIRE_VERSION = 1

#: field name -> expected types, for the Job subset that crosses the
#: wire
_JOB_FIELDS: dict[str, tuple[type, ...]] = {
    "workload": (str,),
    "arch": (str,),
    "cpu_model": (str,),
    "scale": (str,),
    "n_cpus": (int,),
    "workload_args": (dict,),
    "overrides": (dict,),
    "max_cycles": (int,),
    "obs_sample": (int,),
    "replay": (bool,),
    "timeout_s": (int, float),
    "ckpt_every": (int,),
}

#: ``Job``'s defaults, read once: a field at its default is left off
#: the wire, because an omitted field means what it means on a ``Job``
_DEFAULTS = {
    field.name: field.default for field in dataclasses.fields(Job)
}

#: the ``MemConfig`` fields an override may set, by the scalar type
#: each is declared with (the bus timing record and the model's own
#: switches stay off the wire)
_OVERRIDE_TYPES = {
    field.name: {"int": int, "str": str}[field.type]
    for field in dataclasses.fields(MemConfig)
    if field.type in ("int", "str")
}

#: submission-level fields that are not Job fields
_SUBMIT_FIELDS = frozenset({"priority", "version"})


#: Longest request, status or header line taken and most header lines
#: in one message — the stdlib's limits (``http.client._MAXLINE`` and
#: ``_MAXHEADERS``).
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
#: Largest request body read; a longer ``Content-Length`` is a 413.
MAX_BODY_BYTES = 1 << 20

#: ``HTTP/1.x NNN reason``: the status line of a response
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?: [^\r\n]*)?\r?\n")
#: ``HTTP/<major>.<minor>``: the last word of a request line
_HTTP_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})")

#: ``field-name ":"`` of RFC 7230 §3.2: a token, then the colon with no
#: space before it. A line that opens with a space (an obs-fold
#: continuation) or has no colon does not match.
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+:")


class WireError(ReproError):
    """A malformed or unserviceable wire payload."""


class FramingError(ReproError):
    """An HTTP message whose framing cannot be taken as sent.

    ``status`` is what a server answers it with (502, a gateway's
    answer, for a response); ``reason`` is its label on
    ``repro_service_http_refused_total``.
    """

    def __init__(self, status: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason


def read_headers(rfile) -> dict[str, str]:
    """Read one header block off ``rfile``: lower-cased name -> value.

    The one header pass both ends of the service make per message (the
    stdlib's hands every line to ``email.parser``). Lines end in CRLF
    or a bare LF; a repeated name joins its values with ``", "`` in
    arrival order (RFC 7230 §3.2.2). What a lenient parser would guess
    at is a :class:`FramingError` instead: an over-long line, more than
    :data:`MAX_HEADERS` lines, a line with no colon, a space before the
    colon, a folded continuation line.
    """
    headers: dict[str, str] = {}
    readline = rfile.readline
    for _ in range(MAX_HEADERS + 1):
        line = readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise FramingError(
                431, "line_too_long",
                f"header line over {MAX_LINE_BYTES} bytes",
            )
        if line in (b"\r\n", b"\n", b""):
            return headers
        match = _FIELD_NAME.match(line)
        if match is None:
            raise FramingError(
                400, "header_line",
                f"malformed header line: {line[:64]!r}",
            )
        end = match.end()
        name = line[:end - 1].decode("ascii").lower()
        value = line[end:].strip().decode("iso-8859-1")
        if name in headers:
            value = f"{headers[name]}, {value}"
        headers[name] = value
    raise FramingError(
        431, "too_many_headers", f"more than {MAX_HEADERS} header lines"
    )


def read_request(rfile) -> tuple[str, str, dict[str, str], bool] | None:
    """Read one request head off ``rfile``: ``(method, target, headers,
    persistent)``, or ``None`` at EOF or on a blank line, which end the
    connection unanswered.

    ``persistent`` is false for HTTP/1.0 without ``Connection:
    keep-alive`` and after ``Connection: close``; an HTTP/1.0 request's
    ``Expect`` is dropped (RFC 7231 §5.1.1). A request line over
    :data:`MAX_LINE_BYTES`, one that is not three words (the two-word
    HTTP/0.9 form among them) and a version that is not ``HTTP/1.x``
    are each a :class:`FramingError` by name, as is what
    :func:`read_headers` refuses.
    """
    raw = rfile.readline(MAX_LINE_BYTES + 1)
    if len(raw) > MAX_LINE_BYTES:
        raise FramingError(414, "line_too_long", "Request-URI Too Long")
    line = str(raw, "iso-8859-1").rstrip("\r\n")
    words = line.split()
    if not words:
        return None
    if len(words) != 3:
        raise FramingError(
            400, "request_line", f"bad request line: {line[:64]!r}"
        )
    method, target, version = words
    match = _HTTP_VERSION.fullmatch(version)
    major = int(match[1]) if match else 0
    if major < 1:
        raise FramingError(
            400, "request_line", f"bad request version: {version[:64]!r}"
        )
    if major > 1:
        raise FramingError(
            505, "http_version",
            f"HTTP version {version[5:]} is not supported",
        )
    headers = read_headers(rfile)
    connection = headers.get("connection", "").lower()
    if int(match[2]) >= 1:
        persistent = connection != "close"
    else:  # HTTP/1.0
        persistent = connection == "keep-alive"
        headers.pop("expect", None)
    return method, target, headers, persistent


def read_body(rfile, headers: dict[str, str]) -> bytes:
    """Read the body of a request with ``headers`` off ``rfile``.

    Neither framing header means no body (RFC 7230 §3.3.3; ``curl -X
    POST .../cancel`` sends exactly this). Any ``Transfer-Encoding``, a
    ``Content-Length`` that is not one decimal number, one over
    :data:`MAX_BODY_BYTES` and a body that ends short are each a
    :class:`FramingError` by name; all but the last leave the body
    unread.
    """
    if "transfer-encoding" in headers:
        # with a Content-Length beside it too: two framings of one
        # body is how requests are smuggled past a front end
        raise FramingError(
            400, "transfer_encoding",
            "Transfer-Encoding is not supported; send Content-Length",
        )
    header = headers.get("content-length")
    if header is None:
        return b""
    # repeated headers arrive joined: they must all agree
    lengths = {part.strip() for part in header.split(",")}
    length = lengths.pop()
    if lengths or not (length.isascii() and length.isdigit()):
        raise FramingError(
            400, "content_length", f"bad Content-Length: {header[:64]!r}"
        )
    if len(length) > 18 or int(length) > MAX_BODY_BYTES:
        raise FramingError(
            413, "body_too_large", f"request body over {MAX_BODY_BYTES} bytes"
        )
    body = rfile.read(int(length))
    if len(body) < int(length):
        raise FramingError(
            400, "short_body", "request body shorter than Content-Length"
        )
    return body


def read_response(
    rfile, stream: bool = False
) -> tuple[int, bytes | None, bool]:
    """Read one response off ``rfile``: ``(status, body, persistent)``.

    Interim 1xx responses are skipped. The body is ``Content-Length``
    bytes, none for 204 and 304, or everything until the connection
    closes (the event stream), which ``stream`` leaves on ``rfile``
    (body ``None``). ``persistent`` is false after ``Connection:
    close``, HTTP/1.0 without keep-alive and a close-delimited body.
    EOF before the status line is a :class:`ConnectionError` (a kept
    socket the peer dropped); a bad status line, a
    ``Transfer-Encoding``, a bad ``Content-Length`` and a short body
    are each a :class:`FramingError` by name.
    """
    status = 100
    while status < 200:
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("connection closed before the status line")
        if len(line) > MAX_LINE_BYTES:
            raise FramingError(
                502, "line_too_long",
                f"status line over {MAX_LINE_BYTES} bytes",
            )
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise FramingError(
                502, "status_line", f"bad status line: {line[:64]!r}"
            )
        status = int(match[2])
        headers = read_headers(rfile)
    if "transfer-encoding" in headers:
        raise FramingError(
            502, "transfer_encoding",
            f"Transfer-Encoding {headers['transfer-encoding'][:64]!r} is "
            "not supported",
        )
    connection = headers.get("connection", "").lower()
    if match[1] == b"0":  # HTTP/1.0
        persistent = connection == "keep-alive"
    else:
        persistent = connection != "close"
    length = headers.get("content-length")
    if status in (204, 304):
        return status, b"", persistent
    if length is None:
        return status, None if stream else rfile.read(), False
    if not (length.isascii() and length.isdigit()):
        raise FramingError(
            502, "content_length", f"bad Content-Length: {length[:64]!r}"
        )
    body = rfile.read(int(length))
    if len(body) < int(length):
        raise FramingError(
            502, "short_body",
            f"body ended after {len(body)} of {length} bytes",
        )
    return status, body, persistent


def _require(condition: bool, message: str) -> None:
    """Raise :class:`WireError` unless ``condition`` holds."""
    if not condition:
        raise WireError(message)


def job_from_payload(payload: dict) -> Job:
    """Build a validated :class:`Job` from a client JSON payload.

    Unknown fields, wrong types, missing required fields, unknown
    workload names and an unknown arch raise :class:`WireError`; an
    omitted field is left to ``Job``, which decides what it means.
    """
    _require(isinstance(payload, dict), "job payload must be an object")
    unknown = set(payload) - set(_JOB_FIELDS) - _SUBMIT_FIELDS
    _require(
        not unknown,
        f"unknown job field(s): {', '.join(sorted(unknown))}",
    )
    _require(
        isinstance(payload.get("workload"), str),
        "job payload needs a workload name (string)",
    )
    from repro.workloads import WORKLOADS

    _require(
        payload["workload"] in WORKLOADS,
        f"unknown workload {payload['workload']!r}; "
        f"valid: {', '.join(sorted(WORKLOADS))}",
    )
    _require(
        isinstance(payload.get("arch"), str),
        "job payload needs an arch/topology preset name (string)",
    )
    kwargs: dict = {}
    for name, types in _JOB_FIELDS.items():
        value = payload.get(name)
        if value is None:
            if name == "max_cycles" and name in payload:
                kwargs[name] = None  # an explicit null: uncapped
            continue
        _require(
            isinstance(value, types) and not (
                bool not in types and isinstance(value, bool)
            ),
            f"job field {name!r} must be "
            f"{' or '.join(t.__name__ for t in types)}, "
            f"got {value!r}",
        )
        kwargs[name] = value
    for key, value in kwargs.get("overrides", {}).items():
        # an unknown field is MemConfig's to name (Job.spec())
        kind = _OVERRIDE_TYPES.get(key, int)
        _require(
            type(value) is kind,
            f"override {key!r} must be {kind.__name__}, got {value!r}",
        )
    arguments = kwargs.get("workload_args")
    if arguments:
        # what the factory takes after (n_cpus, functional, scale);
        # one with ``**kwargs`` vouches for its own
        accepted = inspect.signature(WORKLOADS[kwargs["workload"]]).parameters
        open_ended = any(
            parameter.kind is parameter.VAR_KEYWORD
            for parameter in accepted.values()
        )
        names = tuple(accepted)[3:]
        for key, value in arguments.items():
            _require(
                open_ended or key in names,
                f"workload {kwargs['workload']!r} takes no argument "
                f"{key!r}",
            )
            _require(
                type(value) in (int, float, str, bool),
                f"workload argument {key!r} must be a number, a string "
                f"or a boolean, got {value!r}",
            )
    try:
        return Job(**kwargs)
    except ReproError as error:  # the natural count of an unknown arch
        raise WireError(str(error)) from None


def submit_priority(payload: dict) -> int:
    """Extract the submission priority (lower runs sooner; default 0)."""
    priority = payload.get("priority", 0) if isinstance(payload, dict) \
        else 0
    _require(
        isinstance(priority, int) and not isinstance(priority, bool),
        f"priority must be an integer, got {priority!r}",
    )
    return priority


def job_to_payload(job: Job, priority: int = 0) -> dict:
    """Serialize ``job`` (plus ``priority``) for the wire or manifest.

    Only wire-visible fields are emitted; policy fields the daemon
    owns (checkpoint/trace directories) never round-trip through
    clients. Raises :class:`WireError` for factory-callable workloads,
    which cannot cross the wire by value.
    """
    _require(
        isinstance(job.workload, str),
        "only registry-named workloads can be submitted over the wire",
    )
    payload: dict = {"version": WIRE_VERSION}
    for name in _JOB_FIELDS:
        value = getattr(job, name)
        if name in ("overrides", "workload_args"):
            if value:
                payload[name] = dict(value)
        elif value != _DEFAULTS[name]:
            payload[name] = value
    if priority:
        payload["priority"] = priority
    return payload
