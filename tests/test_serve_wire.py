"""Tests for the service's wire path: keep-alive, long-poll, lifecycle.

Everything here runs a real :class:`ServiceDaemon` and real sockets.
What the wire path saves is asserted on the daemon's own counters
(connections accepted, requests routed per endpoint, requests parked),
never on a latency threshold; the few clock checks only bound a wait
that used to be a fixed timer from above, with room to spare.
"""

from __future__ import annotations

import gc
import http.client
import json
import re
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.experiment import ExperimentResult
from repro.serve import ServiceClient, ServiceDaemon, ServiceError
from repro.serve import server as serve_server
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
        # however long each job simulated, its wait was one request
        assert requests["status"] == len(MATRIX) == 21
        assert requests["submit"] == requests["result"] == 21
        assert daemon.scheduler.executed == 21

        for spec, first in zip(MATRIX, digests):
            job_id = client.submit(spec)["id"]
            assert client.wait(job_id)["state"] == "done"
            # the encoded-once body decodes to the same document
            assert client.result_payload(job_id)["result"] == first
        connections, again = traffic(client)
        assert connections == 1
        assert sum(
            again[endpoint] - requests[endpoint]
            for endpoint in ("submit", "status", "result")
        ) == 63
        assert daemon.scheduler.executed == 21


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


def test_dropped_clients_leak_no_socket_and_no_thread(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        client.wait(job_id, timeout=60)

        def use_and_drop():
            own = ServiceClient(client.server)
            own.submit(FAST)
            own.wait(job_id)
            return own.result_payload(job_id)["id"]

        threads_before = threading.active_count()
        for _ in range(5):
            assert use_and_drop() == job_id
        gc.collect()
        assert daemon._httpd.traffic()[0] == 1 + 5
        # only the fixture's client is still connected
        assert eventually(lambda: daemon.open_connections() == 1)
        assert eventually(
            lambda: threading.active_count() <= threads_before
        )
        with ServiceClient(client.server) as scoped:
            assert scoped.health()["ok"]
            assert daemon.open_connections() == 2
        assert eventually(lambda: daemon.open_connections() == 1)


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
