"""Tests for the service's wire path: keep-alive, long-poll, lifecycle.

Everything here runs a real :class:`ServiceDaemon` and real sockets,
but for the pins of the client's own logic and of its response reader,
which take canned answers. What the wire path saves is asserted on the
daemon's own counters
(connections accepted, requests routed per endpoint, requests parked),
never on a latency threshold; the few clock checks only bound a wait
that used to be a fixed timer from above, with room to spare.
"""

from __future__ import annotations

import gc
import http.client
import io
import json
import re
import socket
import struct
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.core import runner as runner_module
from repro.core.experiment import ExperimentResult
from repro.core.runner import ResultCache, Runner
from repro.obs.bus import read_events
from repro.serve import ServiceClient, ServiceDaemon, ServiceError
from repro.serve import client as serve_client
from repro.serve import server as serve_server
from repro.serve import wire
from repro.serve.queue import JobQueue
from test_serve import FAST, SLOW, _job, running_daemon

#: the 7 applications x 3 paper architectures of Figures 4-10
MATRIX = [
    {"workload": workload, "arch": arch, "n_cpus": 4}
    for workload in (
        "eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "multiprog"
    )
    for arch in ("shared-l1", "shared-l2", "shared-mem")
]


def eventually(predicate, timeout=5.0) -> bool:
    """Poll ``predicate`` until true; handler threads exit on their own
    schedule after a socket closes."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def traffic(client) -> tuple[int, dict[str, int]]:
    """(connections_total, requests by endpoint) scraped from metrics."""
    text = client.metrics()
    connections = int(
        re.search(
            r"^repro_service_http_connections_total (\d+)$", text, re.M
        ).group(1)
    )
    requests = {
        endpoint: int(count)
        for endpoint, count in re.findall(
            r'^repro_service_http_requests_total\{endpoint="(\w+)"\} (\d+)$',
            text,
            re.M,
        )
    }
    return connections, requests


def raw_connection(daemon) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)


def exchange(connection, method, path, body=None, headers=None):
    """One request; returns (status, parsed JSON body, response)."""
    connection.request(method, path, body=body, headers=headers or {})
    response = connection.getresponse()
    raw = response.read()
    assert response.getheader("Content-Type") == "application/json", raw
    return response.status, json.loads(raw), response


def assert_health_follows(connection):
    """The request after the one under test is answered as itself."""
    status, document, _ = exchange(connection, "GET", "/v1/health")
    assert status == 200 and document["ok"] is True


# ----------------------------------------------------------------------
# the counts: one connection, one status request per wait


def test_one_connection_and_one_status_request_per_wait(tmp_path):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        digests = []
        for spec in MATRIX:
            job_id = client.submit(spec)["id"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            digests.append(client.result_payload(job_id)["result"])
        connections, requests = traffic(client)
        assert connections == 1
        # however long each job simulated, its wait was one request,
        # and the answer that saw it end carried its result
        assert requests["status"] == len(MATRIX) == 21
        assert requests["submit"] == 21
        assert requests.get("result", 0) == 0
        assert daemon.scheduler.executed == 21

        for spec, first in zip(MATRIX, digests):
            job_id = client.submit(spec)["id"]
            assert client.wait(job_id)["state"] == "done"
            # the encoded-once body decodes to the same document
            assert client.result_payload(job_id)["result"] == first
        connections, again = traffic(client)
        assert connections == 1
        # a repeat is one submit: it answered "done", which is final,
        # with the result, so neither wait nor result_payload asked
        assert again["status"] - requests["status"] == 0
        assert sum(
            again.get(endpoint, 0) - requests.get(endpoint, 0)
            for endpoint in ("submit", "status", "result")
        ) == again["submit"] - requests["submit"] == 21
        assert daemon.scheduler.executed == 21


def exchanges(client) -> Counter:
    """Requests the daemon has answered, by endpoint, the metrics
    scrapes that count them left out."""
    counts = Counter(traffic(client)[1])
    del counts["metrics"]
    return counts


def test_submit_answers_with_the_status_document_plus_reused(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        fresh = client.submit(FAST)
        assert fresh["reused"] is False
        assert set(fresh) == set(client.status(fresh["id"])) | {"reused"}
        client.wait(fresh["id"], timeout=60)
        again = client.submit(FAST)
        assert again == {**client.status(fresh["id"]), "reused": True}
        assert again["state"] == "done" and again["submits"] == 2


def test_cached_run_is_one_request(tmp_path):
    cache_dir = tmp_path / "shared-cache"
    with running_daemon(tmp_path, cache_dir=cache_dir) as (_, client):
        local = client.run(FAST, timeout=60)
    with running_daemon(
        tmp_path, cache_dir=cache_dir, state=tmp_path / "serve2"
    ) as (daemon, client):
        # first sight (served from the store at submit), then a repeat
        # (attached to the daemon's record): one submit each, answered
        # with the result
        for _ in range(2):
            before = exchanges(client)
            served = client.run(FAST)
            assert exchanges(client) - before == Counter(submit=1)
            assert served.stats.to_dict() == local.stats.to_dict()
        assert daemon.scheduler.executed == 0


# ----------------------------------------------------------------------
# a final answer carries its result

#: the keys of a status document, as every client has always read them
STATUS_KEYS = {
    "id", "label", "backend", "state", "priority", "attempts", "submits",
    "cached", "error", "timed_out", "cancel_requested", "submitted_at",
    "started_at", "finished_at",
}


def raw_body(connection, method, path, body=None) -> bytes:
    """One request on a plain ``http.client`` connection; the body as
    it came off the wire."""
    connection.request(method, path, body=body)
    response = connection.getresponse()
    assert response.status in (200, 202), response.status
    return response.read()


def test_a_final_answer_splices_the_result_body_and_encodes_it_never(
    tmp_path, monkeypatch
):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        client.wait(job_id, timeout=60)
        record = daemon.queue.get(job_id)
        dumped = []
        real_dumps = json.dumps

        def spying(obj, *args, **kwargs):
            dumped.append(obj)
            return real_dumps(obj, *args, **kwargs)

        def refused(self):
            raise AssertionError("a finished result was encoded again")

        monkeypatch.setattr(json, "dumps", spying)
        monkeypatch.setattr(ExperimentResult, "to_dict", refused)
        connection = raw_connection(daemon)
        result = raw_body(connection, "GET", f"/v1/jobs/{job_id}/result")
        answers = {
            "submit": raw_body(connection, "POST", "/v1/jobs",
                               real_dumps(FAST)),
            "status": raw_body(connection, "GET", f"/v1/jobs/{job_id}"),
            "long-poll": raw_body(
                connection, "GET", f"/v1/jobs/{job_id}?wait=5"
            ),
        }
        connection.close()
        assert result == record.result_body
        for endpoint, answer in answers.items():
            # the /result body, byte for byte, as the last member
            assert answer.endswith(b', "result": ' + result + b"}"), endpoint
            document = json.loads(answer)
            assert document.pop("result") == json.loads(result)
            assert set(document) - {"reused"} == STATUS_KEYS, endpoint
        assert not [
            obj for obj in dumped
            if isinstance(obj, dict) and "result" in obj
        ]


def test_an_answer_before_a_result_carries_none_and_result_asks(tmp_path):
    daemon = ServiceDaemon(port=0, jobs=1)  # never started: encoding only
    queue = daemon.queue
    landed = {
        "queued": lambda record: None,
        "running": lambda record: queue.mark_running(record),
        "failed": lambda record: queue.fail(record, "boom"),
        "quarantined": lambda record: queue.fail(
            record, "boom", quarantined=True
        ),
        "cancelled": lambda record: queue.cancel(record.id),
        "done": lambda record: queue.finish(record, _job().run()),
    }
    for n, (state, land) in enumerate(landed.items()):
        record, _ = queue.submit(_job(max_cycles=10_000 + n))
        land(record)
        document = record.status()
        assert document["state"] == state
        answer = json.loads(daemon.encode_status(document))
        assert ("result" in answer) is (state == "done"), state
        answer.pop("result", None)
        assert answer == document

    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        client.submit(SLOW)
        queued = client.submit(FAST)  # behind SLOW: stays queued
        assert queued["state"] == "queued"
        assert client.cancel(queued["id"])["state"] == "cancelled"
        assert client.wait(queued["id"])["state"] == "cancelled"
        before = exchanges(client)
        with pytest.raises(ServiceError) as excinfo:
            client.result_payload(queued["id"])
        assert excinfo.value.code == 409
        assert exchanges(client) - before == Counter(result=1)


def test_a_held_result_goes_to_its_thread_for_its_id_once(tmp_path):
    other = {**FAST, "workload": "ear"}
    with running_daemon(tmp_path) as (daemon, client):
        expected = client.run(FAST, timeout=60).stats.to_dict()
        other_id = client.submit(other)["id"]
        client.wait(other_id, timeout=60)
        job_id = client.submit(FAST)["id"]  # final: carries the result
        before = exchanges(client)

        def elsewhere(fetch):
            with ThreadPoolExecutor(max_workers=1) as pool:
                return pool.submit(fetch).result(timeout=60)

        # another thread holds nothing of this thread's
        assert elsewhere(lambda: client.result_payload(job_id))["id"] == (
            job_id
        )
        assert exchanges(client) - before == Counter(result=1)
        # another id asks, and leaves the held result where it is
        assert client.result_payload(other_id)["id"] == other_id
        assert exchanges(client) - before == Counter(result=2)
        held = client.result_payload(job_id)
        assert exchanges(client) - before == Counter(result=2)
        assert ExperimentResult.from_dict(
            held["result"]
        ).stats.to_dict() == expected
        # handed out once: a second call asks
        assert client.result_payload(job_id) == held
        assert exchanges(client) - before == Counter(result=3)


def test_four_threads_on_one_client_receive_only_their_own_results(
    tmp_path,
):
    specs = [
        {**FAST, "workload": workload}
        for workload in ("fft", "ear", "mp3d", "eqntott")
    ]
    rounds = 10
    with running_daemon(tmp_path) as (daemon, client):
        expected = {}
        for spec in specs:
            job_id = client.submit(spec)["id"]
            client.wait(job_id, timeout=120)
            expected[job_id] = client.result_payload(job_id)
        before = exchanges(client)
        barrier = threading.Barrier(len(specs))

        def drive(spec):
            barrier.wait(timeout=30)
            served = []
            for _ in range(rounds):
                job_id = client.submit(spec)["id"]
                client.wait(job_id)
                served.append((job_id, client.result_payload(job_id)))
            return served

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(specs)) as pool:
                served = list(pool.map(drive, specs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for spec, answers in zip(specs, served):
            for job_id, payload in answers:
                assert payload == expected[job_id]
                assert payload["result"]["workload"] == spec["workload"]
        assert exchanges(client) - before == Counter(
            submit=len(specs) * rounds
        )


def test_returned_documents_keep_their_keys_and_a_fresh_run_is_two(
    tmp_path,
):
    with running_daemon(tmp_path) as (daemon, client):
        before = exchanges(client)
        client.run(FAST, timeout=60)  # fresh: ends within one hold
        assert exchanges(client) - before == Counter(submit=1, status=1)
        fresh = client.submit({**FAST, "workload": "ear"})
        waited = client.wait(fresh["id"], timeout=60)
        assert waited["state"] == "done"
        again = client.submit(FAST)
        status = client.status(fresh["id"])
        assert set(fresh) == set(again) == STATUS_KEYS | {"reused"}
        assert set(waited) == set(status) == STATUS_KEYS
        # the held results are still there to hand out
        before = exchanges(client)
        assert client.result_payload(fresh["id"])["id"] == fresh["id"]
        assert exchanges(client) - before == Counter()


def test_no_other_document_carries_a_result(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        client.wait(job_id, timeout=60)
        assert "result" not in daemon.queue.get(job_id).status()
        jobs = client.queue()["jobs"]
        assert [job["id"] for job in jobs] == [job_id]
        assert "result" not in jobs[0]
        events = list(client.watch(job_id))
        assert events[-1]["kind"] == "serve.state"
        assert not [event for event in events if "result" in event]
        connection = raw_connection(daemon)
        assert b'"result": ' in raw_body(
            connection, "GET", f"/v1/jobs/{job_id}"
        )
        connection.close()


# ----------------------------------------------------------------------
# either end may be the older one


def without_results(monkeypatch):
    """Make the daemon answer as it did before its answers carried
    results."""
    monkeypatch.setattr(
        ServiceDaemon, "encode_status",
        lambda self, document: json.dumps(
            document, sort_keys=True
        ).encode("utf-8"),
    )


def test_a_daemon_without_results_costs_the_requests_it_always_did(
    tmp_path, monkeypatch
):
    without_results(monkeypatch)
    with running_daemon(tmp_path) as (daemon, client):
        before = exchanges(client)
        fresh = client.run(FAST, timeout=60)
        assert exchanges(client) - before == Counter(
            submit=1, status=1, result=1
        )
        before = exchanges(client)
        cached = client.run(FAST)
        assert exchanges(client) - before == Counter(submit=1, result=1)
    assert fresh.stats.to_dict() == cached.stats.to_dict()


def test_a_client_that_ignores_unknown_keys_still_works(tmp_path):
    # the requests a client that predates results in answers makes:
    # submit, its final answer trusted, then /result
    with running_daemon(tmp_path) as (daemon, client):
        client.run(FAST, timeout=60)
        connection = raw_connection(daemon)
        status, answer, _ = exchange(
            connection, "POST", "/v1/jobs", json.dumps(FAST),
            {"Content-Type": "application/json"},
        )
        assert status == 200 and answer["state"] == "done"
        assert set(answer) - STATUS_KEYS == {"reused", "result"}
        status, document, _ = exchange(
            connection, "GET", f"/v1/jobs/{answer['id']}/result"
        )
        assert status == 200 and document == answer["result"]
        assert ExperimentResult.from_dict(
            document["result"]
        ).stats.to_dict() == _job().run().stats.to_dict()
        connection.close()


def test_cli_submit_wait_and_result_are_one_request_each_printing_as_before(
    tmp_path, monkeypatch, capsys
):
    from repro.cli import main

    flags = ["-w", "fft", "-a", "shared-l2", "-s", "test"]
    with running_daemon(tmp_path) as (daemon, client):
        server = ["--server", client.server]
        assert main(["client", "submit", *flags, "--wait", *server]) == 0
        job_id = re.search(r"^job (\w+)$", capsys.readouterr().out, re.M)[1]

        def printed(*argv):
            before = exchanges(client)
            assert main(["client", *argv, *server]) == 0
            return capsys.readouterr().out, exchanges(client) - before

        with monkeypatch.context() as patched:
            without_results(patched)
            old_submit, asked = printed("submit", *flags, "--wait")
            assert asked == Counter(submit=1, result=1)
            old_result, asked = printed("result", job_id)
            assert asked == Counter(status=1, result=1)
        new_submit, asked = printed("submit", *flags, "--wait")
        assert asked == Counter(submit=1)
        new_result, asked = printed("result", job_id)
        assert asked == Counter(status=1)
    assert new_submit == old_submit and "cycles" in new_submit
    assert new_result == old_result and "cycles" in new_result


def test_first_sight_cached_specs_are_read_from_the_cache_once(tmp_path):
    cache_dir = tmp_path / "cache"
    Runner(jobs=2, cache=ResultCache(cache_dir)).run(
        [wire.job_from_payload(spec) for spec in MATRIX]
    )
    state = tmp_path / "serve"
    with running_daemon(tmp_path, cache_dir=cache_dir, state=state) as (
        daemon, client
    ):
        ids = [client.submit(spec)["id"] for spec in MATRIX]
        assert {client.status(job_id)["state"] for job_id in ids} == {
            "cached"
        }
    # (read once the dispatcher has stopped: a second look would have
    # been the dispatcher's)
    assert daemon.cache.hits == len(MATRIX) == 21
    assert daemon.scheduler.executed == 0
    cached = Counter(
        event.fields["tag"]
        for event in read_events(state / "events.jsonl")
        if event.kind == "job.cached"
    )
    assert cached == Counter(ids)


def test_wait_trusts_only_this_threads_final_submit_answer():
    client = ServiceClient("http://127.0.0.1:9")  # never connected
    asked = []
    answer = {}

    def canned(method, path, payload=None):
        asked.append(method)
        return dict(answer) if method == "POST" else {
            "id": answer["id"], "state": "done"
        }

    client._request = canned
    for state in (
        "done", "cached", "failed", "quarantined", "cancelled",
        "queued", "running",
    ):
        answer.update(id="job", state=state)
        client.submit(FAST)
        asked.clear()
        assert client.wait("job")["state"] in ("done", "cached")
        # a failure is terminal but a resubmit retries it: ask
        assert asked == ([] if state in ("done", "cached") else ["GET"])

    answer.update(id="job", state="done")
    client.submit(FAST)
    asked.clear()
    elsewhere = threading.Thread(target=client.wait, args=("job",))
    elsewhere.start()
    elsewhere.join()
    assert asked == ["GET"]  # another thread's submit says nothing
    answer.update(id="other", state="queued")
    client.submit(FAST)
    asked.clear()
    client.wait("job")
    assert asked == ["GET"]  # one slot: the last submit only


# ----------------------------------------------------------------------
# the client's transport: one sendall per request, wire.read_response
# the reader, the stdlib's http.client the oracle (public names only)


def test_a_post_leaves_in_one_send(tmp_path, monkeypatch):
    sent = []
    real = socket.socket.sendall

    def counting(self, data, *flags):
        sent.append((self, bytes(data)))
        return real(self, data, *flags)

    monkeypatch.setattr(socket.socket, "sendall", counting)
    with running_daemon(tmp_path) as (daemon, client):
        client.health()  # connected outside the count
        (connection,) = client._connections.values()

        def ours():  # the daemon's answers are sendall calls too
            return [data for sock, data in sent if sock is connection.sock]

        sent.clear()
        job_id = client.submit(FAST)["id"]
        (segment,) = ours()
        head, body = segment.split(b"\r\n\r\n", 1)
        assert head.startswith(b"POST /v1/jobs HTTP/1.1\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == FAST
        sent.clear()
        client.wait(job_id, timeout=60)
        assert len(ours()) == 1  # a GET is one send too


def test_the_daemon_reads_the_stdlib_request_from_ours():
    # what http.client sends and the daemon does without: an
    # Accept-Encoding of identity, and a Content-Length of 0 on a
    # bodiless POST (no framing header means no body)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    url = serve_client.urlsplit(f"http://127.0.0.1:{port}")
    ours = serve_client._Connection(url, timeout=10)
    stock = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        for method, target, body in (
            ("POST", "/v1/jobs", b'{"workload": "fft"}'),
            ("POST", "/v1/jobs", b""),
            ("POST", "/v1/jobs/abc/cancel", None),
            ("GET", "/v1/jobs/abc?wait=8.000", None),
        ):
            read = []
            for send in (
                lambda: ours.send(method, target, "application/json", body),
                lambda: stock.request(
                    method, target, body=body,
                    headers={"Accept": "application/json"} | (
                        {} if body is None
                        else {"Content-Type": "application/json"}
                    ),
                ),
            ):
                send()
                peer, _ = listener.accept()
                with peer, peer.makefile("rb") as rfile:
                    *line, headers, kept = wire.read_request(rfile)
                    got = wire.read_body(rfile, headers)
                    read.append((line, headers, kept, got))
                ours.close()
                stock.close()
            (line, headers, kept, got), theirs = read
            stock_line, stock_headers, stock_kept, stock_got = theirs
            assert line == stock_line == [method, target]
            assert kept is stock_kept is True
            assert got == stock_got == (body or b"")
            del stock_headers["accept-encoding"]
            if body is None and method == "POST":
                assert stock_headers.pop("content-length") == "0"
            assert headers == stock_headers
    finally:
        listener.close()


class Canned:
    """A socket whose peer has already sent ``data``."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


#: responses with every framing a client meets from an HTTP/1.x server
#: but chunked, which the daemon never sends and the client refuses
CANNED = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\n\r\n{}",
    b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n"
    b"Content-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\n\r\nunframed",
    b"HTTP/1.1 100 Continue\r\nX-A: 1\r\n\r\n"
    b"HTTP/1.1 204 No Content\r\n\r\n",
    b"HTTP/1.1 409 Conflict\r\ncontent-length: 3\r\n"
    b"Connection: Keep-Alive\r\n\r\n{}\n",
    b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\nConnection: close\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
    b"Connection: close\r\n\r\n{\"kind\": \"a\"}\n{\"kind\": \"b\"}\n",
)


@pytest.mark.parametrize("data", CANNED)
def test_read_response_reads_what_the_stdlib_reads(data):
    stock = http.client.HTTPResponse(Canned(data), method="GET")
    stock.begin()
    ours = wire.read_response(io.BytesIO(data))
    assert ours == (stock.status, stock.read(), not stock.will_close)


def test_a_streamed_body_is_left_on_the_reader():
    rfile = io.BytesIO(CANNED[-1])
    status, body, persistent = wire.read_response(rfile, stream=True)
    assert (status, body, persistent) == (200, None, False)
    assert list(rfile) == [b'{"kind": "a"}\n', b'{"kind": "b"}\n']


@pytest.fixture
def canned_server():
    """Answers each connection with one canned response, then hangs up;
    yields a setter for the response and the server URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    answer = []

    def serve():
        while True:
            try:
                peer, _ = listener.accept()
            except OSError:
                return  # the listener closed
            with peer, peer.makefile("rb") as rfile:
                try:
                    wire.read_body(rfile, wire.read_request(rfile)[2])
                    peer.sendall(answer[0])
                    peer.shutdown(socket.SHUT_WR)
                    peer.recv(1)  # until the client hangs up too
                except OSError:
                    pass  # the client gave up reading first

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield answer.append, f"http://127.0.0.1:{listener.getsockname()[1]}"
    listener.close()
    thread.join(timeout=5)


@pytest.mark.parametrize(
    "response, fault",
    (
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", "Transfer-Encoding 'chunked' is not"),
        (b"HTTP/1.1 200 " + b"x" * wire.MAX_LINE_BYTES + b"\r\n\r\n",
         f"status line over {wire.MAX_LINE_BYTES} bytes"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
         "body ended after 2 of 10 bytes"),
        (b"HTTP/2 200\r\n\r\n", "bad status line"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
         "bad Content-Length"),
        (b"HTTP/1.1 200 OK\r\nX-A : 1\r\n\r\n", "malformed header line"),
    ),
    ids=(
        "transfer_encoding", "line_too_long", "short_body", "status_line",
        "content_length", "header_line",
    ),
)
def test_a_response_that_cannot_be_framed_is_a_service_error_by_name(
    canned_server, response, fault
):
    answer, server = canned_server
    answer(response)
    with ServiceClient(server, timeout=10) as client:
        with pytest.raises(ServiceError, match=re.escape(fault)):
            client.health()
        with pytest.raises(ServiceError, match=re.escape(fault)):
            list(client.watch("abc"))


def test_result_body_is_encoded_once_and_matches_local_run(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        client.wait(job_id, timeout=60)
        record = daemon.queue.get(job_id)
        body = record.result_body
        first = client.result_payload(job_id)
        second = client.result_payload(job_id)
        assert record.result_body is body  # same bytes object served
    assert first == second == json.loads(body)
    assert first["id"] == job_id and first["state"] == "done"
    assert first["cached"] is False and first["attempts"] == 1
    served = ExperimentResult.from_dict(first["result"])
    assert served.stats.to_dict() == _job().run().stats.to_dict()


def test_both_ends_disable_nagle(tmp_path):
    # keep-alive with Nagle on either side stalls ~40 ms per request
    with running_daemon(tmp_path) as (daemon, client):
        client.health()
        (ours,) = client._connections.values()
        (theirs,) = daemon._httpd._open
        for sock in (ours.sock, theirs):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


# ----------------------------------------------------------------------
# keep-alive desync: a POST body is drained or refused, never left


def test_unrouted_post_body_does_not_poison_the_connection(tmp_path):
    with running_daemon(tmp_path) as (daemon, _):
        connection = raw_connection(daemon)
        body = json.dumps(FAST)
        status, document, _ = exchange(connection, "POST", "/v1/nope", body)
        assert status == 404 and "no such endpoint" in document["error"]
        assert_health_follows(connection)
        status, document, _ = exchange(
            connection, "POST", f"/v1/jobs/{'f' * 64}/cancel", body
        )
        assert status == 404 and "unknown job" in document["error"]
        assert_health_follows(connection)
        # all of it on the one socket
        assert daemon._httpd.traffic()[0] == 1
        connection.close()


def test_cancel_with_a_body_cancels_and_keeps_the_connection(tmp_path):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        client.submit(SLOW)
        queued_id = client.submit(FAST)["id"]
        connection = raw_connection(daemon)
        status, document, _ = exchange(
            connection, "POST", f"/v1/jobs/{queued_id}/cancel",
            json.dumps({"reason": "changed my mind"}),
        )
        assert status == 200 and document["state"] == "cancelled"
        assert_health_follows(connection)
        connection.close()


@pytest.mark.parametrize(
    "length, expected",
    [
        (str(serve_server.MAX_BODY_BYTES + 1), 413),
        ("-5", 400),
        ("lots", 400),
    ],
)
def test_unreadable_content_length_is_refused_and_closes(
    tmp_path, length, expected
):
    with running_daemon(tmp_path) as (daemon, _):
        connection = raw_connection(daemon)
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        document = json.loads(response.read())
        assert response.status == expected and document["error"]
        # the body was never read, so the daemon hangs up rather than
        # parse it as a request; http.client re-opens transparently
        assert response.getheader("Connection") == "close"
        assert_health_follows(connection)
        assert daemon._httpd.traffic()[0] == 2
        connection.close()


def test_chunked_post_is_refused_and_closes(tmp_path):
    with running_daemon(tmp_path) as (daemon, _):
        connection = raw_connection(daemon)
        # headers only: the daemon must answer without waiting for (or
        # reading) a body it cannot frame
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
        assert response.getheader("Connection") == "close"
        assert_health_follows(connection)
        connection.close()


def test_post_without_any_length_has_no_body(tmp_path):
    # what ``curl -X POST .../cancel`` sends: no Content-Length at all
    with running_daemon(tmp_path) as (daemon, _):
        connection = raw_connection(daemon)
        connection.putrequest("POST", f"/v1/jobs/{'f' * 64}/cancel")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 404
        assert "unknown job" in json.loads(response.read())["error"]
        assert_health_follows(connection)
        assert daemon._httpd.traffic()[0] == 1
        connection.close()


def test_get_with_a_body_is_drained_too(tmp_path):
    with running_daemon(tmp_path) as (daemon, _):
        connection = raw_connection(daemon)
        status, document, _ = exchange(
            connection, "GET", "/v1/health", body=b'{"surprise": 1}'
        )
        assert status == 200 and document["ok"]
        assert_health_follows(connection)
        assert daemon._httpd.traffic()[0] == 1
        connection.close()


# ----------------------------------------------------------------------
# the wire-side fault lane: every message the daemon will not guess at
# is refused by name, in the JSON contract, and costs only its own
# connection


class RawPeer:
    """A client that writes bytes, not requests: one socket, what was
    sent on it, and the answers read back off it."""

    def __init__(self, daemon, sent: bytes, half_close: bool = False):
        self.sock = socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=10
        )
        self.sock.sendall(sent)
        if half_close:
            self.sock.shutdown(socket.SHUT_WR)
        self.reader = self.sock.makefile("rb")

    def answer(self) -> tuple[int, dict, dict]:
        """The next response: (status, headers, JSON body)."""
        version, status, _ = self.reader.readline().split(None, 2)
        assert version == b"HTTP/1.1"
        headers = {}
        for line in iter(self.reader.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        assert headers["content-type"] == "application/json"
        body = self.reader.read(int(headers["content-length"]))
        return int(status), headers, json.loads(body)

    def hung_up(self) -> bool:
        """Whether the daemon has closed its side (blocks until it has,
        or this socket's timeout fails the test)."""
        return self.reader.read() == b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _post(headers: str, body: str = "{}") -> bytes:
    return (
        f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n{headers}\r\n{body}"
    ).encode("latin-1")


def _get(headers: str = "", target: str = "/v1/health HTTP/1.1") -> bytes:
    return f"GET {target}\r\nHost: x\r\n{headers}\r\n".encode("latin-1")


_LONG = "x" * (wire.MAX_LINE_BYTES + 1)

#: id -> (bytes sent, status, text in the error, refusal label or None
#: where the request is merely answered, whether the daemon hangs up)
WIRE_FAULTS = {
    # framing the e-mail parser let through (first length won, chunked
    # beside a length was read by length, odd header lines were dropped)
    "lengths-disagree": (
        _post("Content-Length: 2\r\nContent-Length: 3\r\n"),
        400, "bad Content-Length: '2, 3'", "content_length", True,
    ),
    "chunked-beside-a-length": (
        _post("Transfer-Encoding: chunked\r\nContent-Length: 2\r\n"),
        400, "Transfer-Encoding is not supported", "transfer_encoding", True,
    ),
    "space-before-colon": (
        _get("Accept : */*\r\n"),
        400, "malformed header line: b'Accept : */*", "header_line", True,
    ),
    "folded-continuation": (
        _get("Accept: a,\r\n  b\r\n"),
        400, "malformed header line: b'  b", "header_line", True,
    ),
    "line-without-colon": (
        _get("garbage\r\n"),
        400, "malformed header line: b'garbage", "header_line", True,
    ),
    # what the stdlib refused itself, with an HTML page or no status line
    "http-2": (
        _get(target="/v1/health HTTP/2.0"),
        505, "HTTP version 2.0 is not supported", "http_version", True,
    ),
    "http-0.9-request-line": (
        b"GET /v1/health\r\n\r\n",
        400, "bad request line: 'GET /v1/health'", "request_line", True,
    ),
    "version-that-is-not-one": (
        _get(target="/v1/health HTTP/one"),
        400, "bad request version: 'HTTP/one'", "request_line", True,
    ),
    "request-line-too-long": (
        _get(target=f"/v1/{_LONG} HTTP/1.1"),
        414, "Request-URI Too Long", "line_too_long", True,
    ),
    "header-line-too-long": (
        _get(f"Accept: {_LONG}\r\n"),
        431, "header line over 65536 bytes", "line_too_long", True,
    ),
    "too-many-headers": (
        _get("".join(f"X-{n}: y\r\n" for n in range(wire.MAX_HEADERS))),
        431, "more than 100 header lines", "too_many_headers", True,
    ),
    "verb-the-daemon-does-not-have": (
        b"BREW /v1/health HTTP/1.1\r\nHost: x\r\n\r\n",
        501, "Unsupported method ('BREW')", "method", True,
    ),
    # refusals the daemon already made, now booked by reason
    "length-not-a-number": (
        _post("Content-Length: \xb2\r\n"),
        400, "bad Content-Length: '\xb2'", "content_length", True,
    ),
    "oversized-body": (
        _post(f"Content-Length: {serve_server.MAX_BODY_BYTES + 1}\r\n"),
        413, "request body over 1048576 bytes", "body_too_large", True,
    ),
    "body-shorter-than-its-length": (
        _post("Content-Length: 10\r\n"),
        400, "request body shorter than Content-Length", "short_body", True,
    ),
    # answered, not refused: the connection is the client's to keep
    "bad-wait": (
        _get(target=f"/v1/jobs/{'f' * 64}?wait=soon HTTP/1.1"),
        400, "wait must be a number of seconds", None, False,
    ),
    "lengths-agree": (
        _post("Content-Length: 2\r\nContent-Length: 2\r\n"),
        400, "job payload needs a workload name", None, False,
    ),
    "bare-lf-line-endings": (
        b"GET /v1/health HTTP/1.1\nHost: x\n\n", 200, None, None, False,
    ),
    "http-1.0": (
        _get(target="/v1/health HTTP/1.0"), 200, None, None, True,
    ),
    "http-1.0-keep-alive": (
        _get("Connection: keep-alive\r\n", "/v1/health HTTP/1.0"),
        200, None, None, False,
    ),
}


@pytest.mark.parametrize("case", WIRE_FAULTS)
def test_wire_fault_is_answered_by_name_and_costs_one_connection(
    tmp_path, case
):
    sent, status, text, reason, closes = WIRE_FAULTS[case]
    with running_daemon(tmp_path) as (daemon, client):
        peer = RawPeer(
            daemon, sent, half_close=case == "body-shorter-than-its-length"
        )
        got, headers, document = peer.answer()
        assert got == status
        if text is None:
            assert document["ok"] is True
        else:
            assert set(document) == {"error"} and text in document["error"]
        if closes:
            assert headers["connection"] == "close"
            assert peer.hung_up()
        else:
            assert "connection" not in headers
            peer.sock.sendall(_get())
            assert peer.answer()[2]["ok"] is True  # same socket, in step
        peer.close()
        # the next connection is served, and the books name the reason
        assert client.health()["ok"]
        assert daemon._httpd.refused() == ({reason: 1} if reason else {})
        booked = re.findall(
            r"^repro_service_http_refused_total\{reason=\"(\w+)\"\} (\d+)$",
            client.metrics(),
            re.M,
        )
        assert booked == ([(reason, "1")] if reason else [])
        assert daemon._httpd.traffic()[0] == 2
        assert eventually(lambda: daemon.open_connections() == 1)


@pytest.mark.parametrize("case", WIRE_FAULTS)
def test_a_request_frames_as_its_row_says_without_a_socket(case):
    # the request-side twin of the response reader's pins: each row
    # through the daemon's own reader, over bytes
    sent, status, text, reason, closes = WIRE_FAULTS[case]
    rfile = io.BytesIO(sent)
    try:
        method, _, headers, persistent = wire.read_request(rfile)
        wire.read_body(rfile, headers)
    except wire.FramingError as error:
        assert (error.status, error.reason) == (status, reason)
        assert text in str(error)
        return
    if reason == "method":  # framed; no route takes the verb
        assert (method, status) == ("BREW", 501)
    else:
        assert reason is None and persistent is not closes
    assert rfile.read() == b""  # the next request starts here


def _response_head(daemon, sent: bytes):
    """Send ``sent`` on a fresh socket; the answer's status line, its
    header names in order with their values, and its body (read by
    ``Content-Length``, or to the hang-up without one)."""
    with socket.create_connection(
        ("127.0.0.1", daemon.port), timeout=10
    ) as sock, sock.makefile("rb") as reader:
        sock.sendall(sent)
        status = reader.readline()
        fields = [
            line.decode("latin-1").rstrip("\r\n").split(": ", 1)
            for line in iter(reader.readline, b"\r\n")
        ]
        values = dict(fields)
        length = values.get("Content-Length")
        body = reader.read(int(length)) if length else reader.read()
    return status, [name for name, _ in fields], values, body


def test_response_heads_keep_their_status_lines_and_header_order(tmp_path):
    # the five kinds of answer: a document, a fresh submit, an answer
    # that is an error, a refusal, and the event stream, which has no
    # length and ends with the connection
    framed = ["Server", "Date", "Content-Type", "Content-Length"]
    with running_daemon(tmp_path) as (daemon, client):
        body = json.dumps(FAST)
        heads = {
            "health": _response_head(daemon, _get()),
            "submit": _response_head(
                daemon, _post(f"Content-Length: {len(body)}\r\n", body)
            ),
            "unknown": _response_head(
                daemon, _get(target=f"/v1/jobs/{'f' * 64} HTTP/1.1")
            ),
            "refusal": _response_head(
                daemon, _post("Transfer-Encoding: chunked\r\n", "")
            ),
        }
        job_id = json.loads(heads["submit"][3])["id"]
        assert client.wait(job_id, timeout=60)["state"] == "done"
        heads["events"] = _response_head(
            daemon, _get(target=f"/v1/jobs/{job_id}/events HTTP/1.1")
        )
    assert {case: head[:2] for case, head in heads.items()} == {
        "health": (b"HTTP/1.1 200 OK\r\n", framed),
        "submit": (b"HTTP/1.1 202 Accepted\r\n", framed),
        "unknown": (b"HTTP/1.1 404 Not Found\r\n", framed),
        "refusal": (b"HTTP/1.1 400 Bad Request\r\n", framed + ["Connection"]),
        "events": (
            b"HTTP/1.1 200 OK\r\n",
            ["Server", "Date", "Content-Type", "Connection"],
        ),
    }
    for case, (_, _, values, _) in heads.items():
        assert values["Server"] == f"repro/{repro.__version__}", case
    _, _, refusal, _ = heads["refusal"]
    _, _, values, body = heads["events"]
    assert refusal["Connection"] == values["Connection"] == "close"
    assert values["Content-Type"] == "application/x-ndjson"
    assert json.loads(body.splitlines()[-1])["kind"] == "serve.state"


def test_expect_100_continue_is_answered_before_the_body(tmp_path):
    with running_daemon(tmp_path) as (daemon, _):
        body = json.dumps(FAST)
        peer = RawPeer(daemon, _post(
            f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n",
            body="",
        ))
        # the go-ahead arrives while the daemon still waits for the body
        assert peer.reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert peer.reader.readline() == b"\r\n"
        peer.sock.sendall(body.encode())
        status, _, document = peer.answer()
        assert status == 202 and document["label"].startswith("fft/")
        peer.close()


def test_no_request_reaches_the_email_parser(tmp_path, monkeypatch):
    # http.client.parse_headers is the door into email.parser, for the
    # stdlib's server and client alike: neither end goes through it
    def unreachable(*args, **kwargs):
        raise AssertionError("header block handed to email.parser")

    monkeypatch.setattr(http.client, "parse_headers", unreachable)
    monkeypatch.setattr("email.parser.Parser.parsestr", unreachable)
    monkeypatch.setattr("email.feedparser.FeedParser.feed", unreachable)
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        assert client.wait(job_id, timeout=60)["state"] == "done"
        first = client.result_payload(job_id)
        assert client.submit(FAST)["reused"] is True  # the hit path
        assert client.wait(job_id)["state"] == "done"
        assert client.result_payload(job_id) == first
        assert list(client.watch(job_id))[-1]["kind"] == "serve.state"
        assert "repro_service_http_requests_total" in client.metrics()
        assert daemon._httpd.traffic()[1]["submit"] == 2


def test_hit_rounds_over_http_resolve_each_distinct_job_once(
    tmp_path, monkeypatch
):
    specs = [{**FAST, "workload": name} for name in ("fft", "ear", "mp3d")]
    with running_daemon(tmp_path) as (daemon, client):
        ids = [client.submit(spec)["id"] for spec in specs]
        for job_id in ids:
            assert client.wait(job_id, timeout=60)["state"] == "done"
        resolved = []
        real = runner_module.resolve_topology
        monkeypatch.setattr(
            runner_module, "resolve_topology",
            lambda *args: resolved.append(args) or real(*args),
        )
        runner_module._address_of.cache_clear()
        for _ in range(90):
            assert [client.submit(spec)["id"] for spec in specs] == ids
        assert len(resolved) == len(specs)
        assert daemon.scheduler.executed == len(specs)


# ----------------------------------------------------------------------
# clients that vanish mid-exchange


def handler_threads() -> int:
    """Live per-connection threads of any daemon in this process."""
    return sum(
        "process_request_thread" in thread.name
        for thread in threading.enumerate()
    )


def test_client_dropped_mid_long_poll_is_gone_by_the_end_of_its_hold(
    tmp_path,
):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        client.submit(SLOW)
        queued_id = client.submit(FAST)["id"]  # behind SLOW: stays put
        # the pool forks its worker for SLOW; a fork after the raw
        # socket below exists would hold a copy of it open past close
        assert eventually(lambda: daemon.scheduler.session.pids())
        client.close()
        assert eventually(lambda: handler_threads() == 0)
        peer = RawPeer(
            daemon, _get(target=f"/v1/jobs/{queued_id}?wait=1.5 HTTP/1.1")
        )
        assert eventually(lambda: daemon.queue.parked == 1)
        assert handler_threads() == 1
        peer.close()
        # nobody is told the client left: its request stays parked, but
        # no later than its hold, and then thread and socket both go
        assert eventually(lambda: daemon.queue.parked == 0)
        assert eventually(lambda: daemon.open_connections() == 0)
        assert eventually(lambda: handler_threads() == 0)
        assert daemon._httpd.traffic()[1]["status"] == 1
        assert client.wait(queued_id, timeout=120)["state"] == "done"


def test_client_dropped_mid_event_stream_does_not_delay_shutdown(tmp_path):
    daemon = ServiceDaemon(port=0, jobs=1, state_dir=tmp_path / "serve")
    daemon.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{daemon.port}")
        client.submit(SLOW)
        queued_id = client.submit(FAST)["id"]
        client.close()
        peer = RawPeer(
            daemon, _get(target=f"/v1/jobs/{queued_id}/events HTTP/1.1")
        )
        assert peer.reader.readline() == b"HTTP/1.1 200 OK\r\n"
        assert eventually(lambda: daemon.open_connections() == 1)
        peer.close()
        started = time.monotonic()
        daemon.shutdown(grace=0.0)
        # the stream's thread was waiting on the job, not on the client
        assert time.monotonic() - started < 10
    finally:
        daemon.shutdown(grace=0.0)
    assert eventually(lambda: daemon.open_connections() == 0)
    assert eventually(lambda: handler_threads() == 0)


# ----------------------------------------------------------------------
# long-poll


def test_wait_on_unknown_id_is_an_immediate_404(tmp_path):
    with running_daemon(tmp_path) as (_, client):
        started = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs/{'f' * 64}?wait=8")
        assert excinfo.value.code == 404
        assert time.monotonic() - started < 4.0
        with pytest.raises(ServiceError) as excinfo:
            client.wait("f" * 64, timeout=30)
        assert excinfo.value.code == 404


def test_wait_value_that_is_not_a_number_is_a_400(tmp_path):
    with running_daemon(tmp_path) as (_, client):
        job_id = client.submit(FAST)["id"]
        for bad in ("soon", "nan"):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", f"/v1/jobs/{job_id}?wait={bad}")
            assert excinfo.value.code == 400
        # a negative hold is no hold; status stays a plain GET
        assert client._request("GET", f"/v1/jobs/{job_id}?wait=-1")["id"]
        client.wait(job_id, timeout=60)


@pytest.mark.parametrize("fields", ({}, {"n_cpus": 4}), ids=("natural", "4"))
def test_an_unknown_arch_is_a_400_that_names_it(tmp_path, fields):
    # Without a CPU count the preset is looked up as the Job is built
    # (its natural count), with one as the Job is keyed: the
    # submitter's mistake either way, answered by name.
    payload = {"workload": "fft", "arch": "no-such-preset", **fields}
    with running_daemon(tmp_path) as (daemon, _):
        connection = raw_connection(daemon)
        status, document, _ = exchange(
            connection, "POST", "/v1/jobs", body=json.dumps(payload)
        )
        assert status == 400
        assert "unknown topology 'no-such-preset'" in document["error"]
        assert_health_follows(connection)
        connection.close()


def test_wait_timeout_is_honoured_mid_hold(tmp_path):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        job_id = client.submit(SLOW)["id"]
        before = daemon._httpd.traffic()[1].get("status", 0)
        started = time.monotonic()
        with pytest.raises(ServiceError, match="still"):
            client.wait(job_id, timeout=0.3)
        elapsed = time.monotonic() - started
        assert 0.3 <= elapsed < 0.3 + 0.5
        # one hold of 0.3 s, not a string of short polls
        assert daemon._httpd.traffic()[1]["status"] - before == 1
        assert client.wait(job_id, timeout=120)["state"] == "done"


def test_wait_zero_is_one_immediate_look(tmp_path):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        job_id = client.submit(SLOW)["id"]
        with pytest.raises(ServiceError, match="still"):
            client.wait(job_id, timeout=0)
        assert client.wait(job_id, timeout=120)["state"] == "done"
        assert client.wait(job_id, timeout=0)["state"] == "done"


def test_other_clients_are_served_while_one_is_parked(tmp_path):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        slow_id = client.submit(SLOW)["id"]
        with ThreadPoolExecutor(max_workers=1) as pool:
            parked = pool.submit(client.wait, slow_id, 120)
            assert eventually(lambda: daemon.queue.parked == 1)
            other = ServiceClient(client.server)
            assert "repro_service_longpoll_parked 1" in other.metrics()
            fast_id = other.submit(FAST)["id"]
            assert other.status(fast_id)["state"] == "queued"
            assert eventually(
                lambda: other.status(slow_id)["state"] == "running"
            )
            assert not parked.done()
            assert parked.result(timeout=120)["state"] == "done"
        assert daemon.queue.parked == 0
        assert other.wait(fast_id, timeout=60)["state"] == "done"


def test_old_daemon_that_ignores_wait_is_paced_not_hammered(
    tmp_path, monkeypatch
):
    # a daemon from before ``?wait=`` answers every status at once
    monkeypatch.setattr(
        serve_server._Handler, "_hold_seconds", lambda self, query: 0.0
    )
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        job_id = client.submit(SLOW)["id"]
        started = time.monotonic()
        assert client.wait(job_id, timeout=120)["state"] == "done"
        elapsed = time.monotonic() - started
        polls = daemon._httpd.traffic()[1]["status"]
        assert polls <= elapsed / 0.2 + 2


# ----------------------------------------------------------------------
# connection lifecycle


def test_idle_connection_times_out_and_client_reconnects_once(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(serve_server._Handler, "timeout", 0.2)
    with running_daemon(tmp_path) as (daemon, client):
        assert client.health()["ok"]
        assert daemon.open_connections() == 1
        # the idle socket stops pinning a handler thread
        assert eventually(lambda: daemon.open_connections() == 0)
        # the stale socket costs one silent reconnect, not an error
        assert client.health()["ok"]
        assert daemon._httpd.traffic()[0] == 2
        job_id = client.submit(FAST)["id"]
        assert client.wait(job_id, timeout=60)["state"] == "done"


def test_daemon_restart_is_one_reconnect_and_a_dead_one_an_error(tmp_path):
    first = ServiceDaemon(port=0, jobs=1, state_dir=tmp_path / "a")
    first.start()
    port = first.port
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0)
    try:
        assert client.health()["ok"]
    finally:
        first.shutdown(grace=5.0)
    assert eventually(lambda: first.open_connections() == 0)
    second = ServiceDaemon(port=port, jobs=1, state_dir=tmp_path / "b")
    second.start()
    try:
        assert client.health()["ok"]  # kept socket was dead: reconnected
        assert second._httpd.traffic()[0] == 1
    finally:
        second.shutdown(grace=5.0)
    assert eventually(lambda: second.open_connections() == 0)
    with pytest.raises(ServiceError, match="cannot reach"):
        client.health()
    with pytest.raises(ServiceError, match="cannot reach"):
        client.health()


def test_one_client_shared_by_four_threads(tmp_path):
    specs = [
        {**FAST, "workload": workload}
        for workload in ("fft", "ear", "mp3d", "eqntott")
    ]
    with running_daemon(tmp_path) as (daemon, client):
        barrier = threading.Barrier(4)

        def drive(spec):
            barrier.wait(timeout=30)
            return client.run(spec, timeout=120).stats.cycles

        with ThreadPoolExecutor(max_workers=4) as pool:
            served = list(pool.map(drive, specs))
            # a connection per calling thread, each still open
            assert daemon._httpd.traffic()[0] == 4
            assert daemon.open_connections() == 4
        client.close()
        assert eventually(lambda: daemon.open_connections() == 0)
        assert client.health()["ok"]  # close() is not the end
    local = [
        _job(workload=spec["workload"]).run().stats.cycles
        for spec in specs
    ]
    assert served == local


def test_books_lose_no_update_under_contention(tmp_path):
    # 8 threads on one client (and on the daemon's books) with the
    # interpreter switching threads as often as it can
    threads, calls = 8, 40
    with running_daemon(tmp_path) as (daemon, client):
        barrier = threading.Barrier(threads)

        def hammer(_):
            barrier.wait(timeout=30)
            return sum(client.health()["ok"] for _ in range(calls))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                answered = list(pool.map(hammer, range(threads), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert answered == [calls] * threads
        connections, requests = daemon._httpd.traffic()
        assert connections == threads == len(client._connections)
        assert requests == {"health": threads * calls}
        assert daemon.open_connections() == threads
        client.close()
        assert eventually(lambda: daemon.open_connections() == 0)


def test_bad_server_url_is_a_service_error():
    for server in ("localhost:8765", "ftp://127.0.0.1", "http://h:port"):
        with pytest.raises(ServiceError, match="not an http"):
            ServiceClient(server).health()


def test_dropped_clients_leak_no_socket_and_no_thread(tmp_path, capfd):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        client.wait(job_id, timeout=60)

        def use_and_drop():
            own = ServiceClient(client.server)
            own.submit(FAST)
            own.wait(job_id)
            return own.result_payload(job_id)["id"]

        def ask_and_vanish(request: bytes):
            # gone before the answer, the result inside it, is read:
            # the close resets the connection
            peer = socket.create_connection(("127.0.0.1", daemon.port))
            peer.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            peer.sendall(request)
            peer.close()

        threads_before = threading.active_count()
        for _ in range(5):
            assert use_and_drop() == job_id
        body = json.dumps(FAST)
        for request in (
            _post(f"Content-Length: {len(body)}\r\n", body),
            _get(target=f"/v1/jobs/{job_id} HTTP/1.1"),
            _get(target=f"/v1/jobs/{job_id}?wait=5 HTTP/1.1"),
        ):
            ask_and_vanish(request)
        gc.collect()
        assert eventually(lambda: daemon._httpd.traffic()[0] == 1 + 5 + 3)
        # only the fixture's client is still connected
        assert eventually(lambda: daemon.open_connections() == 1)
        assert eventually(
            lambda: threading.active_count() <= threads_before
        )
        with ServiceClient(client.server) as scoped:
            assert scoped.health()["ok"]
            assert daemon.open_connections() == 2
        assert eventually(lambda: daemon.open_connections() == 1)
    assert "Traceback" not in capfd.readouterr().err


def test_shutdown_releases_a_parked_request_with_the_current_status(
    tmp_path,
):
    daemon = ServiceDaemon(port=0, jobs=1, state_dir=tmp_path / "serve")
    daemon.start()
    client = ServiceClient(f"http://127.0.0.1:{daemon.port}", timeout=60)
    try:
        job_id = client.submit(SLOW)["id"]
        client.submit(FAST)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parked = pool.submit(
                client._request, "GET", f"/v1/jobs/{job_id}?wait=30"
            )
            waiting = pool.submit(client.wait, job_id, 120)
            assert eventually(lambda: daemon.queue.parked == 2)
            started = time.monotonic()
            daemon.shutdown(grace=0.0)
            # answered, not hung and not cut off: the job's state as
            # the drain found it
            assert parked.result(timeout=10)["state"] in (
                "queued", "running"
            )
            # wait() keeps asking, and finds the daemon gone
            with pytest.raises(ServiceError, match="cannot reach"):
                waiting.result(timeout=10)
            assert time.monotonic() - started < 10
    finally:
        daemon.shutdown(grace=0.0)
    assert daemon.queue.parked == 0
    # shutdown hung up on the clients that were still connected
    assert eventually(lambda: daemon.open_connections() == 0)


def test_shutdown_wakes_the_dispatcher_and_the_accept_loop(tmp_path):
    # claim() with no timeout returns only for a job or a woken stop
    queue = JobQueue()
    stop = threading.Event()
    claimed = []
    dispatcher = threading.Thread(
        target=lambda: claimed.append(queue.claim(stop=stop))
    )
    dispatcher.start()
    stop.set()
    queue.wake()
    dispatcher.join(timeout=5.0)
    assert not dispatcher.is_alive() and claimed == [None]

    daemon = ServiceDaemon(port=0, jobs=1, state_dir=tmp_path / "serve")
    daemon.start()
    daemon.scheduler.stop(timeout=5.0)
    assert not daemon.scheduler._thread.is_alive()
    started = time.monotonic()
    daemon._httpd.stop()
    daemon._server_thread.join(timeout=5.0)
    assert not daemon._server_thread.is_alive()
    # no 0.5 s accept poll to sit out
    assert time.monotonic() - started < 0.25
    daemon.shutdown(grace=0.0)
