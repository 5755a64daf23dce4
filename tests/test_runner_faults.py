"""Runner fault tolerance: crashes, timeouts, resumed batches, torn caches.

The killing workload factories live in :mod:`tests.ckpt_helpers` (they
must be module-level to pickle into pool workers) and must only run
with ``jobs >= 2`` — under ``jobs=1`` they would SIGKILL the test
process itself.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest

import ckpt_helpers
from repro.ckpt import CheckpointStore, snapshot_system
from repro.core.configs import config_for_scale
from repro.core.runner import Job, ResultCache, Runner
from repro.core.system import System
from repro.errors import ConfigError
from repro.mem.functional import FunctionalMemory
from repro.workloads import WORKLOADS

CAP = 2_000_000


def normal_job(arch: str = "shared-l1") -> Job:
    return Job(arch=arch, workload="fft", scale="test", max_cycles=CAP)


# ----------------------------------------------------------------------
# Worker crashes


def test_worker_kill_is_retried_and_batch_completes(tmp_path, monkeypatch):
    """A SIGKILLed worker must not abort the batch (the old behaviour
    was an uncaught BrokenProcessPoolError killing Runner.run)."""
    monkeypatch.setenv("REPRO_TEST_KILL_DIR", str(tmp_path))
    batch = [
        Job(
            arch="shared-l1",
            workload=ckpt_helpers.kill_once_workload,
            scale="test",
            max_cycles=CAP,
        ),
        normal_job("shared-l2"),
        normal_job("shared-mem"),
    ]
    report = Runner(jobs=2).run(batch)
    assert len(report.outcomes) == 3
    assert not report.failures
    assert report.worker_crashes >= 1
    killer = report.outcomes[0]
    assert killer.result is not None
    assert killer.attempts >= 2
    assert (tmp_path / "killed-once").exists()


def test_poison_job_is_quarantined(tmp_path, monkeypatch):
    """A job that crashes its worker on every attempt exhausts its
    retry budget and is recorded as a failure, not retried forever."""
    monkeypatch.setenv("REPRO_TEST_KILL_DIR", str(tmp_path))
    batch = [
        Job(
            arch=arch,
            workload=ckpt_helpers.kill_always_workload,
            scale="test",
            max_cycles=CAP,
        )
        for arch in ("shared-l1", "shared-l2")
    ]
    report = Runner(jobs=2, max_retries=1).run(batch)
    assert len(report.failures) == 2
    for outcome in report.outcomes:
        assert outcome.result is None
        assert not outcome.timed_out
        assert "quarantined" in outcome.error
        assert outcome.attempts == 2  # max_retries + 1
    assert report.worker_crashes >= 2
    assert "2 failed" in report.summary()
    assert "worker crash" in report.summary()


# ----------------------------------------------------------------------
# Worker crashes with batch telemetry attached


def test_events_survive_a_sigkilled_worker(tmp_path, monkeypatch):
    """Everything a worker emitted before its SIGKILL must be in the
    log: emission is a synchronous RPC into the manager process, so the
    dead worker's ``job.start`` survives even though no terminator ever
    arrives, and the batch trace closes its span as ``killed``."""
    from repro.obs import (
        EventBus, build_batch_trace, read_events, rollup_events,
        validate_events, validate_trace,
    )

    monkeypatch.setenv("REPRO_TEST_KILL_DIR", str(tmp_path))
    killer_job = Job(
        arch="shared-l1",
        workload=ckpt_helpers.kill_once_workload,
        scale="test",
        max_cycles=CAP,
    )
    batch = [killer_job, normal_job("shared-l2"), normal_job("shared-mem")]
    log = tmp_path / "events.jsonl"
    bus = EventBus(log_path=log).start()
    report = Runner(jobs=2, bus=bus).run(batch)
    bus.stop()

    assert not report.failures
    assert report.worker_crashes >= 1
    assert validate_events(log) == []
    events = read_events(log)
    kinds = [event.kind for event in events]
    # the first (killed) attempt's start is in the stream...
    killer_starts = [
        event for event in events
        if event.kind == "job.start"
        and event.fields["job"].startswith("ckpt_helpers.")
    ]
    assert len(killer_starts) >= 2  # killed attempt + successful retry
    assert killer_starts[0].fields["attempt"] == 1
    assert max(s.fields["attempt"] for s in killer_starts) >= 2
    # ...alongside the parent's crash bookkeeping
    assert kinds.count("job.retry") >= 1
    assert kinds.count("worker.death") >= 1
    assert kinds.count("pool.rebuild") >= 1
    assert kinds.count("worker.spawn") >= 2  # both pools announced
    # every job that finished carries a finish event
    assert kinds.count("job.finish") == 3

    trace = build_batch_trace(events, label="fault smoke")
    assert validate_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    # the murdered attempt is visible, and the retry span is marked
    assert any(
        s["args"]["status"] in ("killed", "lost") for s in spans
    )
    assert any(s["cat"] == "retry" for s in spans)
    assert report.telemetry["by_kind"]["pool.rebuild"] >= 1
    # the bus's running tally is the fold of the log it wrote
    telemetry = dict(report.telemetry)
    assert telemetry.pop("log_path") == str(log)
    assert telemetry == rollup_events(events)


def test_collector_drains_before_pool_rebuild_is_recorded(
    tmp_path, monkeypatch
):
    """The ``pool.rebuild`` marker must land *after* everything the
    dead pool's workers emitted — the runner flushes the queue before
    recording the rebuild, so seq order proves the drain happened."""
    from repro.obs import EventBus

    monkeypatch.setenv("REPRO_TEST_KILL_DIR", str(tmp_path))
    batch = [
        Job(
            arch="shared-l1",
            workload=ckpt_helpers.kill_once_workload,
            scale="test",
            max_cycles=CAP,
        ),
        normal_job("shared-l2"),
    ]
    events = []
    bus = EventBus(on_event=events.append).start()
    report = Runner(jobs=2, bus=bus).run(batch)
    bus.stop()
    assert not report.failures

    rebuilds = [e for e in events if e.kind == "pool.rebuild"]
    assert rebuilds
    first_rebuild = rebuilds[0].seq
    # the killed attempt's start was emitted from the dead pool, yet
    # its seq precedes the rebuild marker
    killed_start = next(
        e for e in events
        if e.kind == "job.start" and e.fields["attempt"] == 1
        and e.fields["job"].startswith("ckpt_helpers.")
    )
    assert killed_start.seq < first_rebuild
    # and the worker.death marker immediately precedes the rebuild
    deaths = [e.seq for e in events if e.kind == "worker.death"]
    assert any(seq < first_rebuild for seq in deaths)


def test_quarantine_lands_on_the_bus(tmp_path, monkeypatch):
    """A poison job's terminal quarantine decision is an event (with
    its attempt count), so fleet dashboards can see it without parsing
    the run report."""
    from repro.obs import EventBus, rollup_events

    monkeypatch.setenv("REPRO_TEST_KILL_DIR", str(tmp_path))
    batch = [
        Job(
            arch=arch,
            workload=ckpt_helpers.kill_always_workload,
            scale="test",
            max_cycles=CAP,
        )
        for arch in ("shared-l1", "shared-l2")
    ]
    events = []
    bus = EventBus(on_event=events.append).start()
    report = Runner(jobs=2, max_retries=1, bus=bus).run(batch)
    bus.stop()

    assert len(report.failures) == 2
    quarantined = [
        e for e in events if e.kind == "job.quarantined"
    ]
    assert len(quarantined) == 2
    assert all(e.fields["attempts"] == 2 for e in quarantined)
    rollup = rollup_events(events)
    assert rollup["jobs"]["quarantined"] == 2
    assert rollup["pool_rebuilds"] >= 2
    assert rollup["worker_deaths"] >= 2
    # batch.end still closes the stream after all the carnage
    assert events[-1].kind == "batch.end"
    assert events[-1].fields["failures"] == 2


# ----------------------------------------------------------------------
# Wall-clock timeouts


def test_timeout_serial(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_SLEEP", "10")
    job = Job(
        arch="shared-l1",
        workload=ckpt_helpers.sleepy_workload,
        scale="test",
        max_cycles=CAP,
        timeout_s=0.3,
    )
    report = Runner(jobs=1).run([job])
    outcome = report.outcomes[0]
    assert outcome.timed_out
    assert outcome.result is None
    assert "budget" in outcome.error
    assert "1 failed (1 timed out)" in report.summary()
    per_job = report.to_dict()["per_job"][0]
    assert per_job["timed_out"] is True
    assert per_job["cycles"] is None


def test_timeout_parallel(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_SLEEP", "10")
    batch = [
        Job(
            arch=arch,
            workload=ckpt_helpers.sleepy_workload,
            scale="test",
            max_cycles=CAP,
            timeout_s=0.3,
        )
        for arch in ("shared-l1", "shared-mem")
    ]
    report = Runner(jobs=2).run(batch)
    assert all(o.timed_out for o in report.outcomes)
    assert report.worker_crashes == 0
    assert "(2 timed out)" in report.summary()


def test_budget_off_the_main_thread_is_loud(tmp_path):
    # SIGALRM only reaches the main thread: elsewhere the job runs to
    # completion unbudgeted, and says so instead of dropping the budget
    from repro.obs import EventBus, read_events, validate_events

    job = Job(
        arch="shared-l1", workload="fft", scale="test", max_cycles=CAP,
        timeout_s=30.0,
    )
    log = tmp_path / "events.jsonl"
    bus = EventBus(log_path=log).start()
    with pytest.warns(RuntimeWarning, match="without its 30s budget"):
        with ThreadPoolExecutor(max_workers=1) as pool:
            report = pool.submit(
                Runner(jobs=1, bus=bus).run, [job]
            ).result(timeout=120)
    bus.stop()
    assert not report.failures
    events = read_events(log)
    (event,) = [e for e in events if e.kind == "job.unbudgeted"]
    assert event.fields["job"] == job.label()
    assert event.fields["timeout_s"] == 30.0
    assert validate_events(log) == []
    kinds = [e.kind for e in events]
    assert kinds.index("job.start") < kinds.index("job.unbudgeted")
    assert kinds.index("job.unbudgeted") < kinds.index("job.finish")
    # on the main thread the same job is budgeted, and quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not Runner(jobs=1).run([job]).failures


def test_parallel_failure_is_recorded_not_raised():
    batch = [
        Job(arch="shared-l1", workload="no-such-workload", scale="test"),
        normal_job("shared-l2"),
    ]
    report = Runner(jobs=2).run(batch)
    bad, good = report.outcomes
    assert bad.result is None and not bad.timed_out
    assert "ConfigError" in bad.error
    assert good.result is not None


def test_serial_failure_still_raises():
    # The historical serial contract: exceptions propagate to the
    # caller (breakpoint-friendly), they are not swallowed.
    with pytest.raises(ConfigError):
        Runner(jobs=1).run(
            [Job(arch="shared-l1", workload="no-such-workload")]
        )


# ----------------------------------------------------------------------
# Execution policy is not simulation identity


def test_policy_fields_do_not_change_job_key(tmp_path):
    plain = normal_job()
    babysat = Job(
        arch=plain.arch,
        workload=plain.workload,
        scale=plain.scale,
        max_cycles=plain.max_cycles,
        timeout_s=120.0,
        ckpt_every=50_000,
        ckpt_dir=str(tmp_path),
    )
    assert plain.key() == babysat.key()
    assert "timeout_s" not in plain.spec()
    assert "ckpt_every" not in plain.spec()


def test_spec_includes_resolved_topology():
    # The cache key must carry the whole machine shape: a 16-core
    # cluster run may never be satisfied by a 4-core entry.
    spec = normal_job().spec()
    assert spec["topology"]["n_cpus"] == spec["n_cpus"]
    assert spec["topology"]["levels"]

    small = Job(arch="cluster-l1", workload="fft", scale="test", n_cpus=4)
    large = Job(arch="cluster-l1", workload="fft", scale="test", n_cpus=16)
    assert small.key() != large.key()
    assert small.spec()["topology"]["levels"][0]["size"] != \
        large.spec()["topology"]["levels"][0]["size"]


def test_spec_distinguishes_topologies_not_just_names():
    # Overrides that change the machine shape change the key too.
    plain = Job(arch="shared-l3", workload="fft", scale="test")
    bigger = Job(
        arch="shared-l3",
        workload="fft",
        scale="test",
        overrides={"l3_size": 1 << 22},
    )
    assert plain.key() != bigger.key()
    assert plain.resolve_topology().level("l3").size != \
        bigger.resolve_topology().level("l3").size


def test_job_auto_resumes_from_latest_checkpoint(tmp_path):
    baseline = normal_job().run()
    job = Job(
        arch="shared-l1",
        workload="fft",
        scale="test",
        max_cycles=CAP,
        ckpt_every=700,
        ckpt_dir=str(tmp_path),
    )
    # Simulate a crashed earlier attempt: a checkpoint saved mid-run
    # under this job's key, with the latest pointer still set.
    partial = System(
        "shared-l1",
        WORKLOADS["fft"](4, FunctionalMemory(), "test"),
        mem_config=config_for_scale("test", 4),
        max_cycles=CAP,
        checkpointing=True,
    )
    partial.run(pause_at=900)
    store = CheckpointStore(tmp_path)
    digest = store.save(snapshot_system(partial), key=job.key())

    resumed = job.run()
    assert resumed.stats.to_dict() == baseline.stats.to_dict()
    assert resumed.extras["checkpoint"]["resumed_from"] == digest
    # Completion clears the pointer, so the next run starts fresh.
    assert store.latest(job.key()) is None


# ----------------------------------------------------------------------
# Resume is the cache: a batch's own ResultCache is its completion record


def test_cache_resume_skips_completed_jobs(tmp_path):
    batch = [normal_job("shared-l1"), normal_job("shared-mem")]
    first = Runner(jobs=1, cache=ResultCache(tmp_path)).run(batch)
    assert not first.failures
    assert ResultCache(tmp_path).disk_stats()["entries"] == 2

    lines = []
    second = Runner(
        jobs=1,
        cache=ResultCache(tmp_path),
        progress=lines.append,
    ).run(batch)
    assert second.cache_hits == 2
    assert all(o.cached for o in second.outcomes)
    assert all(line.startswith("[cache]") for line in lines)
    # Skipped jobs still carry full results for figure rendering.
    assert second.outcomes[0].result.stats.to_dict() == \
        first.outcomes[0].result.stats.to_dict()


def test_cache_does_not_record_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_SLEEP", "10")
    job = Job(
        arch="shared-l1",
        workload=ckpt_helpers.sleepy_workload,
        scale="test",
        max_cycles=CAP,
        timeout_s=0.3,
    )
    report = Runner(jobs=1, cache=ResultCache(tmp_path)).run([job])
    assert report.outcomes[0].timed_out
    assert ResultCache(tmp_path).disk_stats()["entries"] == 0


def test_cache_resume_tolerates_garbage_entries(tmp_path):
    job = normal_job()
    entry = ResultCache(tmp_path).path_for(job)
    entry.parent.mkdir(parents=True)
    for garbage in ("{not json", "[1, 2]", '{"key": 7}'):
        entry.write_text(garbage)
        report = Runner(jobs=1, cache=ResultCache(tmp_path)).run([job])
        assert not report.failures and report.cache_hits == 0
        # ... and the re-simulated result took the garbage's place.
        assert ResultCache(tmp_path).get(job) is not None


_KILLED_BATCH = """
import sys
sys.path.insert(0, sys.argv[1])
import test_runner_faults
from repro.core.runner import ResultCache, Runner
Runner(jobs=2, cache=ResultCache(sys.argv[2])).run(
    test_runner_faults.interrupted_batch(*sys.argv[3:])
)
"""


def interrupted_batch(ckpt_dir: str | None = None) -> list[Job]:
    """Two quick jobs around one that sleeps ``REPRO_TEST_SLEEP``
    seconds first (built by the killed child and the re-run alike);
    with ``ckpt_dir`` every job snapshots itself as it runs."""
    sleepy = Job(
        arch="shared-l2",
        workload=ckpt_helpers.sleepy_workload,
        scale="test",
        max_cycles=CAP,
    )
    batch = [normal_job("shared-l1"), sleepy, normal_job("shared-mem")]
    if ckpt_dir:
        batch = [
            dataclasses.replace(job, ckpt_every=500, ckpt_dir=ckpt_dir)
            for job in batch
        ]
    return batch


@pytest.mark.parametrize("checkpointing", (False, True), ids=("plain", "ckpt"))
def test_killed_batch_rerun_simulates_only_what_had_not_finished(
    tmp_path, monkeypatch, checkpointing
):
    """SIGKILL a whole batch (parent and pool) once a result landed;
    the same batch on the same cache then simulates exactly the rest
    and ends on an uninterrupted run's statistics — checkpointing as it
    went or not."""
    cache_dir = tmp_path / "cache"
    ckpt_args = [str(tmp_path / "ckpts")] if checkpointing else []
    victim = subprocess.Popen(
        [
            sys.executable, "-c", _KILLED_BATCH,
            str(Path(__file__).parent), str(cache_dir), *ckpt_args,
        ],
        env={**os.environ, "REPRO_TEST_SLEEP": "120"},
        start_new_session=True,  # so the kill takes the workers too
    )
    deadline = time.monotonic() + 60
    try:
        while not ResultCache(cache_dir).disk_stats()["entries"]:
            assert victim.poll() is None, "batch ended before the kill"
            assert time.monotonic() < deadline, "no result ever landed"
            time.sleep(0.05)
    finally:
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
    landed = ResultCache(cache_dir).disk_stats()["entries"]
    assert 1 <= landed <= 2  # the sleeper cannot have finished
    if checkpointing:
        assert any((tmp_path / "ckpts").rglob("*.json.gz"))

    monkeypatch.setenv("REPRO_TEST_SLEEP", "0")
    batch = interrupted_batch(*ckpt_args)
    report = Runner(jobs=2, cache=ResultCache(cache_dir)).run(batch)
    assert not report.failures
    assert report.cache_hits == landed
    assert sum(not o.cached for o in report.outcomes) == 3 - landed
    for plain, outcome in zip(interrupted_batch(), report.outcomes):
        assert outcome.result.stats.to_dict() == plain.run().stats.to_dict()


# ----------------------------------------------------------------------
# ResultCache under concurrent writers


def test_result_cache_concurrent_writers_never_tear(tmp_path):
    """Several processes hammering the same cache key must only ever
    observe complete entries (atomic tmp+rename), never torn JSON."""
    n_procs, rounds = 4, 40
    with ProcessPoolExecutor(max_workers=n_procs) as pool:
        futures = [
            pool.submit(
                ckpt_helpers.cache_stress_worker, str(tmp_path), rounds
            )
            for _ in range(n_procs)
        ]
        reads = [future.result(timeout=120) for future in futures]
    # Every worker's asserts passed; most reads should have succeeded.
    assert sum(reads) > 0
    # The final on-disk entry is complete, parseable JSON.
    cache = ResultCache(tmp_path)
    job = Job(arch="shared-l1", workload="ear", scale="test")
    payload = json.loads(cache.path_for(job).read_text())
    assert payload["key"] == job.key()
    final = cache.get(job)
    assert final is not None
    assert final.stats.cycles >= 1000
    # No leftover temp files from interrupted writers.
    assert not list(tmp_path.rglob("*.tmp"))
