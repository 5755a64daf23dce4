"""Tests for the simulation service: wire format, queue, daemon, client.

The end-to-end tests run a real :class:`ServiceDaemon` on an ephemeral
port and talk to it over actual HTTP with :class:`ServiceClient` —
submission, polling, result fetch, dedup of identical specs across
concurrent clients, cancellation of queued and running jobs, worker
SIGKILL recovery, event streaming, metrics, and the shutdown manifest
→ ``--resume`` round trip.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.runner import Job, ResultCache
from repro.errors import ReproError
from repro.obs.bus import validate_events
from repro.obs.export import prometheus_text, rollup_events
from repro.serve import (
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    WireError,
    job_from_payload,
    job_to_payload,
)
from repro.serve.queue import (
    CANCELLED,
    QUEUED,
    RUNNING,
    JobQueue,
    QueueManifest,
)

FAST = {"workload": "fft", "arch": "shared-l2", "n_cpus": 4}
#: ~1 s inside a worker: long enough to catch "running" reliably.
SLOW = {"workload": "ocean", "arch": "shared-l2", "scale": "bench",
        "n_cpus": 4}


# ----------------------------------------------------------------------
# wire format


@pytest.mark.parametrize(
    "cap", ({}, {"max_cycles": None}, {"max_cycles": 123}),
    ids=("default-cap", "uncapped", "own-cap"),
)
def test_wire_round_trip_preserves_identity(cap):
    job = Job(
        arch="cluster-l1",
        workload="ear",
        scale="bench",
        n_cpus=8,
        overrides={"l2_assoc": 4},
        timeout_s=30.0,
        **cap,
    )
    restored = job_from_payload(job_to_payload(job, priority=2))
    assert restored.max_cycles == job.max_cycles
    assert restored.key() == job.key()
    assert restored.overrides == {"l2_assoc": 4}
    assert restored.timeout_s == 30.0


def test_wire_payload_omits_defaults():
    payload = job_to_payload(Job(arch="shared-l2", workload="fft"))
    assert payload["workload"] == "fft"
    assert "overrides" not in payload
    assert "max_cycles" not in payload
    assert "replay" not in payload
    assert "priority" not in payload


def test_wire_rejects_unknown_fields():
    with pytest.raises(WireError, match="unknown job field"):
        job_from_payload({**FAST, "archs": "typo"})


def test_wire_rejects_bad_types():
    with pytest.raises(WireError, match="n_cpus"):
        job_from_payload({**FAST, "n_cpus": "four"})
    with pytest.raises(WireError, match="n_cpus"):
        job_from_payload({**FAST, "n_cpus": True})
    with pytest.raises(WireError, match="override"):
        job_from_payload({**FAST, "overrides": {"l2_assoc": "big"}})


def test_wire_carries_workload_args_both_ways():
    job = Job(
        arch="shared-l1", workload="synthetic", scale="bench",
        workload_args={"sharing": 0.85, "grain": 384},
        overrides={"l1_coherence": "invalidate"},
    )
    payload = job_to_payload(job)
    assert payload["workload_args"] == {"sharing": 0.85, "grain": 384}
    restored = job_from_payload(payload)
    assert restored == job and restored.key() == job.key()
    assert "workload_args" not in job_to_payload(Job("shared-l1", "fft"))


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"workload_args": ["sharing"]}, "workload_args"),
        ({"workload_args": {"vec_words": 96}}, "takes no argument 'vec_words'"),
        ({"workload": "eqntott", "workload_args": {"words": 96}},
         "takes no argument 'words'"),
        ({"workload": "synthetic", "workload_args": {"sharing": [0.5]}},
         "workload argument 'sharing'"),
        ({"workload": "synthetic", "workload_args": {"sharing": None}},
         "workload argument 'sharing'"),
        ({"overrides": {"l1_coherence": 1}}, "override 'l1_coherence'"),
        ({"overrides": {"l1_fast_path": True}}, "override 'l1_fast_path'"),
    ],
)
def test_wire_refuses_workload_args_and_overrides_by_name(fields, named):
    with pytest.raises(WireError, match=named):
        job_from_payload({**FAST, **fields})


def test_wire_requires_workload_and_arch():
    with pytest.raises(WireError, match="workload"):
        job_from_payload({"arch": "shared-l2"})
    with pytest.raises(WireError, match="arch"):
        job_from_payload({"workload": "fft"})


def test_wire_defaults_cpus_from_preset():
    job = job_from_payload({"workload": "fft", "arch": "cluster-l1"})
    from repro.mem.topology import get_preset

    assert job.n_cpus == get_preset("cluster-l1").default_cpus


def test_wire_rejects_factory_workloads():
    def factory(n_cpus, functional, scale):
        raise AssertionError("never called")

    with pytest.raises(WireError, match="registry-named"):
        job_to_payload(Job(arch="shared-l2", workload=factory))


# ----------------------------------------------------------------------
# job queue


def _job(**kwargs) -> Job:
    base = dict(arch="shared-l2", workload="fft", n_cpus=4)
    base.update(kwargs)
    return Job(**base)


def test_queue_orders_by_priority_then_submission():
    queue = JobQueue()
    late, _ = queue.submit(_job(workload="ear"), priority=5)
    urgent, _ = queue.submit(_job(workload="fft"), priority=-1)
    normal, _ = queue.submit(_job(workload="mp3d"), priority=0)
    claimed = [queue.claim(timeout=0.1).id for _ in range(3)]
    assert claimed == [urgent.id, normal.id, late.id]


def test_queue_dedups_identical_specs():
    queue = JobQueue()
    first, deduped_first = queue.submit(_job())
    second, deduped_second = queue.submit(_job())
    assert not deduped_first and deduped_second
    assert first is second
    assert first.submits == 2
    # only one claimable entry exists
    assert queue.claim(timeout=0.05) is first
    assert queue.claim(timeout=0.05) is None


def test_queue_resubmit_after_failure_starts_fresh():
    queue = JobQueue()
    record, _ = queue.submit(_job())
    queue.mark_running(record)
    queue.fail(record, "boom")
    fresh, deduped = queue.submit(_job())
    assert not deduped
    assert fresh.state == QUEUED
    assert fresh.id == record.id  # same content address


def test_queue_cancel_semantics():
    queue = JobQueue()
    record, _ = queue.submit(_job())
    assert queue.cancel("no-such-id") is None
    assert queue.cancel(record.id) == CANCELLED
    # the heap entry is now stale: claim must skip it
    assert queue.claim(timeout=0.05) is None
    # a claimed-then-cancelled record cannot be marked running
    running, _ = queue.submit(_job(workload="ear"))
    claimed = queue.claim(timeout=0.1)
    queue.cancel(claimed.id)
    assert queue.mark_running(claimed) is False
    # cancel of a running record only requests it
    other, _ = queue.submit(_job(workload="mp3d"))
    queue.mark_running(other)
    assert queue.cancel(other.id) == RUNNING
    assert other.cancel_requested


def test_queue_manifest_round_trip(tmp_path):
    queue = JobQueue()
    record, _ = queue.submit(_job(overrides={"l2_assoc": 2}), priority=3)
    manifest = QueueManifest(tmp_path / "manifest.json")
    manifest.write(queue.pending())
    entries = manifest.load()
    assert len(entries) == 1
    restored = job_from_payload(entries[0]["job"])
    assert restored.key() == record.id
    assert entries[0]["priority"] == 3
    manifest.clear()
    assert manifest.load() == []


def test_queue_manifest_tolerates_garbage(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("not json {")
    assert QueueManifest(path).load() == []
    path.write_text(json.dumps({"jobs": [42, {"nojob": 1}]}))
    assert QueueManifest(path).load() == []


# ----------------------------------------------------------------------
# result-cache hardening


def test_result_cache_evicts_mismatched_content_address(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job_a = _job()
    job_b = _job(workload="ear")
    cache.put(job_a, job_a.run())
    # file job_a's entry under job_b's address: the read-time audit
    # must refuse to serve it and evict the misplaced entry
    path_b = cache.path_for(job_b)
    path_b.parent.mkdir(parents=True, exist_ok=True)
    path_b.write_text(cache.path_for(job_a).read_text())
    assert cache.get(job_b) is None
    assert cache.evictions == 1
    assert not path_b.exists()
    # the legitimate entry still serves
    assert cache.get(job_a) is not None


# ----------------------------------------------------------------------
# end-to-end over HTTP


@contextlib.contextmanager
def running_daemon(
    tmp_path, jobs=2, resume=False, state=None, **kwargs
):
    """A started daemon on an ephemeral port, always shut down."""
    cache_dir = kwargs.pop("cache_dir", tmp_path / "cache")
    cache = (
        None if kwargs.pop("no_cache", False) else ResultCache(cache_dir)
    )
    daemon = ServiceDaemon(
        port=0,
        jobs=jobs,
        cache=cache,
        state_dir=state if state is not None else tmp_path / "serve",
        **kwargs,
    )
    daemon.start(resume=resume)
    try:
        yield daemon, ServiceClient(f"http://127.0.0.1:{daemon.port}")
    finally:
        daemon.shutdown(grace=15.0)


def test_service_submit_poll_fetch_differential(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        response = client.submit(FAST)
        assert response["state"] in ("queued", "running", "done")
        status = client.wait(response["id"], timeout=60)
        assert status["state"] == "done"
        assert status["attempts"] == 1
        served = client.result(response["id"])
        assert daemon.scheduler.executed == 1
    local = job_from_payload(FAST).run()
    # the simulations are deterministic: the service result must be
    # bit-identical to an in-process run of the same spec
    assert served.stats.to_dict() == local.stats.to_dict()
    assert served.extras.get("sync") == local.extras.get("sync")


def test_concurrent_clients_dedup_to_single_simulation(tmp_path):
    specs = [FAST, FAST, {**FAST, "workload": "ear"},
             {**FAST, "workload": "ear"}]
    with running_daemon(tmp_path) as (daemon, client):
        def submit_and_wait(spec):
            own = ServiceClient(client.server)
            job_id = own.submit(spec)["id"]
            own.wait(job_id, timeout=60)
            return own.result(job_id).stats.cycles

        with ThreadPoolExecutor(max_workers=4) as pool:
            cycles = list(pool.map(submit_and_wait, specs))
        # identical specs from different clients returned identical
        # results from ONE simulation each: 4 submissions, 2 runs
        assert cycles[0] == cycles[1]
        assert cycles[2] == cycles[3]
        assert daemon.scheduler.executed == 2
        assert daemon.cache.stores == 2
        records = daemon.queue.records()
        assert len(records) == 2
        assert sorted(r.submits for r in records) == [2, 2]


def test_cached_spec_returns_instantly_on_fresh_daemon(tmp_path):
    cache_dir = tmp_path / "shared-cache"
    with running_daemon(tmp_path, cache_dir=cache_dir) as (_, client):
        job_id = client.submit(FAST)["id"]
        client.wait(job_id, timeout=60)
    # a brand-new daemon sharing the cache directory must serve the
    # same spec from the store without simulating
    with running_daemon(
        tmp_path, cache_dir=cache_dir, state=tmp_path / "serve2"
    ) as (daemon, client):
        response = client.submit(FAST)
        assert response["state"] == "cached"
        status = client.status(response["id"])
        assert status["state"] == "cached"
        assert daemon.scheduler.executed == 0
        assert daemon.cache.hits >= 1
        served = client.result(response["id"])
        assert served.stats.cycles > 0


def test_cancel_queued_job_never_runs(tmp_path):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        slow_id = client.submit(SLOW)["id"]
        fast_id = client.submit(FAST)["id"]  # stuck behind the slow one
        response = client.cancel(fast_id)
        assert response["state"] == "cancelled"
        assert client.wait(slow_id, timeout=120)["state"] == "done"
        assert client.status(fast_id)["state"] == "cancelled"
        # give the dispatcher a beat: the cancelled record must never
        # reach the pool
        time.sleep(0.5)
        assert daemon.scheduler.executed == 1
        document = client.result_payload(slow_id)
        assert document["result"]["stats"]["cycles"] > 0


def test_cancel_running_job_discards_result(tmp_path):
    with running_daemon(tmp_path, jobs=1) as (daemon, client):
        job_id = client.submit(SLOW)["id"]
        deadline = time.monotonic() + 60
        while client.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        response = client.cancel(job_id)
        assert response["cancel_requested"] or response[
            "state"
        ] == "cancelled"
        status = client.wait(job_id, timeout=120)
        assert status["state"] == "cancelled"
        # the result was discarded, not published
        with pytest.raises(ServiceError) as excinfo:
            client.result_payload(job_id)
        assert excinfo.value.code == 409
        assert daemon.cache.stores == 0


def test_sigkilled_worker_retries_and_serves_correct_result(tmp_path):
    with running_daemon(tmp_path, jobs=2) as (daemon, client):
        job_id = client.submit(SLOW)["id"]
        deadline = time.monotonic() + 60
        while client.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        victims = daemon.scheduler.session.pids()
        assert victims, "warm pool has no workers"
        for pid in victims:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        status = client.wait(job_id, timeout=180)
        assert status["state"] == "done"
        assert status["attempts"] >= 2
        served = client.result(job_id)
        metrics = client.metrics()
        assert "repro_pool_rebuilds_total 1" in metrics
    local = job_from_payload(SLOW).run()
    assert served.stats.to_dict() == local.stats.to_dict()


def test_event_stream_follows_job_to_completion(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        events = list(client.watch(job_id))
        kinds = [event["kind"] for event in events]
        assert kinds[-1] == "serve.state"
        assert events[-1]["state"] in ("done", "cached")
        assert "job.finish" in kinds or "job.cached" in kinds
        # every routed event belongs to this job
        assert all(
            event.get("tag") == job_id
            for event in events
            if event["kind"] != "serve.state"
        )


def test_metrics_and_queue_endpoints(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        job_id = client.submit(FAST)["id"]
        client.wait(job_id, timeout=60)
        metrics = client.metrics()
        assert 'repro_jobs_total{status="ok"} 1' in metrics
        assert 'repro_service_jobs{state="done"} 1' in metrics
        assert "repro_service_executed_total 1" in metrics
        document = client.queue()
        assert document["counts"] == {"done": 1}
        assert document["accepting"] is True
        health = client.health()
        assert health["ok"] and health["workers"] == 2
        cache_doc = client.cache()
        assert cache_doc["enabled"]
        assert cache_doc["disk"]["entries"] == 1


def test_metrics_body_for_a_fixed_daemon_state(tmp_path):
    """The ``/v1/metrics`` exposition, byte for byte, for a fixed
    queue (two queued, one deduped), wire traffic and cache traffic."""
    daemon = ServiceDaemon(jobs=2, cache=ResultCache(tmp_path))
    for workload in ("fft", "ear", "fft"):
        daemon.queue.submit(_job(workload=workload))
    daemon._accepting = True
    daemon._httpd = SimpleNamespace(
        traffic=lambda: (3, {"submit": 3, "status": 2}),
        refused=lambda: {"header_line": 1},
    )
    daemon.cache.get(_job(arch="shared-l1"))
    body = daemon.metrics_text()
    rollup = prometheus_text(rollup_events([]))
    assert body == rollup + FIXED_SERVICE_METRICS


FIXED_SERVICE_METRICS = """\
# HELP repro_service_jobs Jobs by lifecycle state.
# TYPE repro_service_jobs gauge
repro_service_jobs{state="queued"} 2
# HELP repro_service_accepting Whether POST /v1/jobs is admitted.
# TYPE repro_service_accepting gauge
repro_service_accepting 1
# HELP repro_service_workers Warm pool worker slots.
# TYPE repro_service_workers gauge
repro_service_workers 2
# HELP repro_service_inflight Jobs dispatched to the pool.
# TYPE repro_service_inflight gauge
repro_service_inflight 0
# HELP repro_service_executed_total Simulations run to completion by this daemon.
# TYPE repro_service_executed_total counter
repro_service_executed_total 0
# HELP repro_service_uptime_seconds Daemon uptime.
# TYPE repro_service_uptime_seconds gauge
repro_service_uptime_seconds 0.0
# HELP repro_service_longpoll_parked Status requests held by ?wait= right now.
# TYPE repro_service_longpoll_parked gauge
repro_service_longpoll_parked 0
# HELP repro_service_http_connections_total Client connections accepted.
# TYPE repro_service_http_connections_total counter
repro_service_http_connections_total 3
# HELP repro_service_http_requests_total Requests routed, by endpoint.
# TYPE repro_service_http_requests_total counter
repro_service_http_requests_total{endpoint="status"} 2
repro_service_http_requests_total{endpoint="submit"} 3
# HELP repro_service_http_refused_total Requests refused with the connection closed, by reason.
# TYPE repro_service_http_refused_total counter
repro_service_http_refused_total{reason="header_line"} 1
# HELP repro_service_cache_ops Result-cache counters since daemon start.
# TYPE repro_service_cache_ops counter
repro_service_cache_ops{op="misses"} 1
"""


def test_http_error_paths(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("f" * 64)
        assert excinfo.value.code == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"workload": "fft"})  # missing arch
        assert excinfo.value.code == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**FAST, "workload": "no-such-workload"})
        assert excinfo.value.code == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.code == 404
        # result of an unfinished job is a 409, not a hang
        slow_id = client.submit(SLOW)["id"]
        with pytest.raises(ServiceError) as excinfo:
            client.result_payload(slow_id)
        assert excinfo.value.code == 409
        client.wait(slow_id, timeout=120)


def test_submit_rejected_while_shutting_down(tmp_path):
    with running_daemon(tmp_path) as (daemon, client):
        daemon._accepting = False
        with pytest.raises(ServiceError) as excinfo:
            client.submit(FAST)
        assert excinfo.value.code == 503
        daemon._accepting = True  # let teardown drain normally


def test_shutdown_persists_manifest_and_resume_reenqueues(tmp_path):
    state = tmp_path / "serve-state"
    daemon = ServiceDaemon(
        port=0,
        jobs=1,
        cache=ResultCache(tmp_path / "cache"),
        state_dir=state,
    )
    daemon.start()
    client = ServiceClient(f"http://127.0.0.1:{daemon.port}")
    try:
        running_id = client.submit(SLOW)["id"]
        queued_ids = [
            client.submit({**FAST, "workload": workload})["id"]
            for workload in ("ear", "mp3d")
        ]
        deadline = time.monotonic() + 60
        while client.status(running_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        # grace too short to drain: the running job is killed and the
        # queued ones never start — all three must be persisted
        daemon.shutdown(grace=0.1)
    manifest = QueueManifest(state / "queue_manifest.json")
    persisted = {entry["id"] for entry in manifest.load()}
    assert persisted == {running_id, *queued_ids}
    with running_daemon(
        tmp_path, jobs=1, state=state, resume=True
    ) as (daemon2, client2):
        restored = {record.id for record in daemon2.queue.records()}
        assert restored == persisted
        # resumed work actually completes
        assert client2.wait(running_id, timeout=120)["state"] == "done"
    # the fresh shutdown drained fully, so the manifest is gone
    assert manifest.load() == []


def test_runner_session_incremental_submit_and_rebuild(tmp_path):
    from repro.core.runner import Runner

    session = Runner(jobs=1).session()
    try:
        future, generation = session.submit(_job())
        assert future.result(timeout=120).stats.cycles > 0
        assert generation == 0
        # first rebuild of a generation wins; replays are no-ops
        assert session.rebuild(generation) is True
        assert session.rebuild(generation) is False
        assert session.generation == 1
        future, generation = session.submit(_job(workload="ear"))
        assert generation == 1
        assert future.result(timeout=120).stats.cycles > 0
    finally:
        session.close(force=True)
    with pytest.raises(RuntimeError):
        session.submit(_job())


def test_forced_close_reaps_its_workers_before_returning():
    """A SIGKILLed worker is waited for inside ``close``: none is left
    a zombie for the pool's manager thread to reap later, so the
    caller's RUSAGE_CHILDREN already holds the workers' CPU time."""
    from repro.core.runner import Runner

    session = Runner(jobs=2).session()
    futures = [session.submit(_job())[0] for _ in range(2)]
    for future in futures:
        assert future.result(timeout=120).stats.cycles > 0
    pids = session.pids()
    assert pids
    session.close(force=True)
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# ----------------------------------------------------------------------
# CLI integration


def test_cli_client_submit_wait_and_cache_stats(tmp_path, capsys):
    from repro.cli import main

    with running_daemon(tmp_path) as (daemon, client):
        server = client.server
        rc = main([
            "client", "submit", "--workload", "fft", "--arch",
            "shared-l2", "--wait", "--server", server,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "state" in out and "cycles" in out
        rc = main(["client", "queue", "--server", server])
        assert rc == 0
        assert "1 done" in capsys.readouterr().out
        rc = main(["cache", "stats", "--server", server, "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["disk"]["entries"] == 1
    rc = main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "entries  1" in out


def test_cli_serve_rejects_checkpoint_policy_without_dir(capsys):
    from repro.cli import main

    rc = main(["serve", "--checkpoint-every", "1000"])
    assert rc == 2
    assert "--checkpoint-dir" in capsys.readouterr().err


def test_serve_process_serves_plain_and_replay_then_stops_clean(tmp_path):
    """The operator's entry point: a real ``repro serve`` process runs a
    plain and a replay job, and SIGINT leaves exit status 0, a valid
    event log and no socket listening."""
    state = tmp_path / "state"
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", str(tmp_path / "cache"), "--state-dir",
            str(state), "--trace-dir", str(tmp_path / "traces"),
        ],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(re.search(r":(\d+) ", daemon.stdout.readline())[1])
        client = ServiceClient(f"http://127.0.0.1:{port}")
        for spec in (FAST, {**FAST, "workload": "eqntott", "replay": True}):
            job_id = client.submit(spec)["id"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            assert client.result(job_id).stats.cycles > 0
    finally:
        daemon.send_signal(signal.SIGINT)
        try:
            daemon.communicate(timeout=60)
        finally:
            daemon.kill()
    assert daemon.returncode == 0
    assert validate_events(state / "events.jsonl") == []
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5)
