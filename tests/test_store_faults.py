"""One fault lane for the platform shell (counts and states, no clocks).

The three store facades share one primitive (:mod:`repro.core.store`)
and the two dispatchers one completion decision
(:meth:`~repro.core.runner.RunnerSession.settle`), so their failure
modes are pinned here once, parametrized over whichever there are:

* a truncated, bit-flipped, empty or misplaced artifact is evicted,
  counted, put on the bus and read as a miss — then re-published;
* a publisher SIGKILLed between write and rename leaves an orphan tmp
  that is no entry, no hit and no obstacle;
* a full disk or a read-only root fails the publish cleanly — and in
  either dispatcher costs the cache entry, never the finished result;
* same-key publishers are never inside the publish window together;
* a corrupt ``latest`` checkpoint costs one restart, not the job, and a
  damaged trace or sidecar is re-derived, not replayed;
* the runner's crash / quarantine / timeout / failure policy holds for
  the service scheduler by the same parametrization.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ckpt_helpers
from conftest import RecordingHandle
import repro
from repro.ckpt import CheckpointStore, snapshot_system
from repro.core.configs import config_for_scale
from repro.core.experiment import ExperimentResult
from repro.core.runner import Job, JobOutcome, ResultCache, Runner
from repro.core.system import System
from repro.errors import ArtifactMiss, CheckpointError
from repro.mem.functional import FunctionalMemory
from repro.obs import bus as obs_bus
from repro.obs import validate_events
from repro.serve import ServiceDaemon
from repro.serve.queue import QUARANTINED
from repro.sim.stats import SystemStats
from repro.trace import kernel
from repro.trace.store import TraceStore
from repro.workloads import WORKLOADS

CAP = 2_000_000
SRC = str(Path(repro.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)


@pytest.fixture
def bus():
    handle = RecordingHandle()
    obs_bus.set_current(handle)
    yield handle
    obs_bus.set_current(None)


# ----------------------------------------------------------------------
# the three facades behind one put / read / path surface


def _result(job: Job, cycles: int = 1234) -> ExperimentResult:
    stats = SystemStats.for_cpus(job.n_cpus)
    stats.cycles = cycles
    return ExperimentResult(
        arch=job.arch,
        workload=job.workload,
        cpu_model=job.cpu_model,
        scale=job.scale,
        stats=stats,
    )


class CacheLane:
    kind = "cache"
    job = Job(arch="shared-l1", workload="ear", scale="test")
    other = Job(arch="shared-l2", workload="ear", scale="test")

    def __init__(self, root):
        self.store = ResultCache(root)

    def put(self, other=False):
        job = self.other if other else self.job
        self.store.put(job, _result(job))
        return self.store.path_for(job)

    def read(self):
        found = self.store.get(self.job)
        return None if found is None else found.stats.cycles


class CkptLane:
    kind = "ckpt"
    state = {"meta": {"cycle": 5}, "x": list(range(200))}
    other_state = {"meta": {"cycle": 6}, "x": list(range(300))}

    def __init__(self, root):
        self.store = CheckpointStore(root)
        self.digest = None

    def put(self, other=False):
        digest = self.store.save(self.other_state if other else self.state)
        if not other:
            self.digest = digest
        return self.store.path(digest)

    def read(self):
        try:
            return self.store.load(self.digest)["meta"]["cycle"]
        except CheckpointError:
            return None


class TraceLane:
    kind = "trace"
    n_cpus = 2

    def __init__(self, root):
        self.store = TraceStore(root)

    def put(self, other=False):
        workload = "ear" if other else "fft"
        return self.store.record(workload, "test", self.n_cpus)

    def read(self):
        """The whole read path: lookup, then the decode a fresh
        process would do (sidecar, else verified text)."""
        path = self.store.get("fft", "test", self.n_cpus)
        if path is None:
            return None
        kernel._DECODE_CACHE.clear()
        try:
            return kernel.load_packed(self.n_cpus, path).n_records
        except ArtifactMiss:
            return None


LANES = {"cache": CacheLane, "ckpt": CkptLane, "trace": TraceLane}


@pytest.fixture(params=sorted(LANES))
def lane(request, tmp_path):
    return LANES[request.param](tmp_path / "store")


def _truncate(path, other):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip(path, other):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))


def _empty(path, other):
    path.write_bytes(b"")


def _misplace(path, other):
    shutil.copyfile(other, path)


DAMAGE = {
    "truncated": _truncate,
    "bit-flipped": _flip,
    "empty": _empty,
    "misplaced": _misplace,
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_artifact_is_evicted_and_rederived(lane, damage, bus):
    other = lane.put(other=True)
    path = lane.put()
    clean = lane.read()
    assert clean is not None

    DAMAGE[damage](path, other)
    assert lane.read() is None, "a damaged artifact was served"
    assert bus.kinds().count(f"{lane.kind}.evict") == 1
    assert not path.exists()
    # counted on the instance wherever the instance did the reading
    # (a flipped trace text passes get()'s size check and is caught by
    # the digest where the kernel goes to parse it)
    caught_by_kernel = (lane.kind, damage) == ("trace", "bit-flipped")
    assert lane.store.evictions == (0 if caught_by_kernel else 1)
    assert lane.store.stats().get("publish_errors", 0) == 0

    lane.put()
    assert lane.read() == clean
    assert bus.kinds().count(f"{lane.kind}.evict") == 1


# ----------------------------------------------------------------------
# a publisher killed inside its publish window


def die_in_publish(kind: str, root: str) -> None:
    """Subprocess entry: publish one artifact, SIGKILLed at the rename."""

    def die(src, dst):
        os.kill(os.getpid(), signal.SIGKILL)

    os.replace = die
    LANES[kind](root).put()


def test_orphan_tmp_of_a_killed_publisher_is_invisible(lane):
    root = lane.store.root
    victim = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, test_store_faults as lane\n"
            "lane.die_in_publish(*sys.argv[1:])",
            lane.kind,
            str(root),
        ],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, TESTS))},
        capture_output=True,
        timeout=120,
    )
    assert victim.returncode == -signal.SIGKILL, victim.stderr
    orphans = list(root.rglob("*.tmp"))
    assert len(orphans) == 1 and orphans[0].stat().st_size > 0

    if lane.kind == "ckpt":
        lane.digest = orphans[0].name.split(".")[1]
    assert lane.read() is None
    assert lane.store.evictions == 0, "an orphan tmp is not corruption"
    assert lane.store.disk_stats()["entries"] == 0

    lane.put()
    assert lane.read() is not None
    assert lane.store.disk_stats()["entries"] == 1
    assert list(root.rglob("*.tmp")) == orphans
    assert not list(root.rglob("*.lock"))


# ----------------------------------------------------------------------
# full disk, read-only root


@pytest.fixture
def failing_writes(monkeypatch):
    """Make every write to a publish tmp fail with the errno set on
    the returned switch (``None`` = writes work)."""
    switch = {"errno": None}
    real_open = Path.open

    def guarded(self, mode="r", *args, **kwargs):
        code = switch["errno"]
        if code and self.name.endswith(".tmp") and set(mode) & set("wax+"):
            raise OSError(code, os.strerror(code), str(self))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", guarded)
    return switch


@pytest.mark.parametrize("code", (errno.ENOSPC, errno.EROFS))
def test_failed_publish_is_clean_and_counted(lane, failing_writes, code):
    failing_writes["errno"] = code
    with pytest.raises(OSError) as caught:
        lane.put()
    assert caught.value.errno == code
    assert lane.store.publish_errors == 1
    assert lane.store.disk_stats()["entries"] == 0
    assert not list(lane.store.root.rglob("*.tmp"))

    failing_writes["errno"] = None
    lane.put()
    assert lane.read() is not None
    assert lane.store.publish_errors == 1


# ----------------------------------------------------------------------
# the publish lock


class Window:
    """A gate on ``os.replace``: who is inside the publish window, how
    many at once, and under which tmp names."""

    def __init__(self, monkeypatch):
        self.mutex = threading.Lock()
        self.inside = 0
        self.peak = 0
        self.sources = []
        self.entered = {}
        self.gates = {}
        self.real = os.replace
        monkeypatch.setattr(os, "replace", self.replace)

    def thread(self, name, target):
        self.entered[name] = threading.Event()
        self.gates[name] = threading.Event()
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        return thread

    def replace(self, src, dst):
        name = threading.current_thread().name
        with self.mutex:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
            self.sources.append(os.fspath(src))
        if name in self.gates:
            self.entered[name].set()
            self.gates[name].wait(30)
        self.real(src, dst)
        with self.mutex:
            self.inside -= 1


def test_three_same_key_publishers_are_never_inside_together(
    tmp_path, monkeypatch
):
    """The schedule that broke an unlink-on-release lock file: B is
    queued behind A; A leaves (unlinking the lock B is waiting on); C
    arrives while B is inside and must still wait."""
    lane = CacheLane(tmp_path)
    window = Window(monkeypatch)

    a = window.thread("a", lane.put)
    assert window.entered["a"].wait(30)
    b = window.thread("b", lane.put)
    assert not window.entered["b"].wait(0.3), "b got in beside a"
    window.gates["a"].set()
    assert window.entered["b"].wait(30)
    c = window.thread("c", lane.put)
    assert not window.entered["c"].wait(0.5), "c got in beside b"
    window.gates["b"].set()
    assert window.entered["c"].wait(30)
    window.gates["c"].set()
    for thread in (a, b, c):
        thread.join(30)
        assert not thread.is_alive()

    assert window.peak == 1
    assert len(set(window.sources)) == 3, "tmp names must be per call"
    assert lane.read() is not None
    litter = [p.name for p in tmp_path.rglob("*") if p.name.startswith(".")]
    assert litter == []


def test_two_threads_hammering_one_key_never_collide(tmp_path, monkeypatch):
    lane = CacheLane(tmp_path)
    window = Window(monkeypatch)
    errors = []

    def hammer():
        try:
            for _ in range(50):
                lane.put()
                assert lane.read() is not None
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=hammer, daemon=True) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert window.peak == 1
    assert len(set(window.sources)) == len(window.sources) == 100
    assert lane.store.evictions == 0
    assert not list(tmp_path.rglob("*.tmp"))


# ----------------------------------------------------------------------
# checkpoints: the auto-resume wedge, and save over a damaged blob


def _job_with_damaged_latest(tmp_path):
    job = Job(
        arch="shared-l1",
        workload="fft",
        scale="test",
        max_cycles=CAP,
        ckpt_every=700,
        ckpt_dir=str(tmp_path),
    )
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
    _flip(store.path(digest), None)
    return job, store, digest


def test_corrupt_latest_checkpoint_costs_a_restart_not_the_job(tmp_path, bus):
    job, store, digest = _job_with_damaged_latest(tmp_path)
    baseline = Job(
        arch="shared-l1", workload="fft", scale="test", max_cycles=CAP
    ).run()

    result = job.run()  # at the parent: CheckpointError, every time
    assert result.stats.to_dict() == baseline.stats.to_dict()
    assert result.extras["checkpoint"]["resumed_from"] is None
    assert bus.kinds().count("ckpt.evict") == 1
    assert not store.path(digest).exists()
    assert store.latest(job.key()) is None


def test_explicit_resume_from_a_corrupt_checkpoint_still_raises(tmp_path):
    job, store, digest = _job_with_damaged_latest(tmp_path)
    # Which check trips on the flipped bit — the inflater, gzip's CRC
    # or the content hash — depends on the bytes around it (they move
    # with the package version the snapshot embeds); the store reports
    # all three the same way.
    with pytest.raises(CheckpointError, match="is unusable"):
        job.run(resume_from=digest)


def test_save_over_a_damaged_blob_rewrites_it(tmp_path):
    lane = CkptLane(tmp_path)
    path = lane.put()
    _truncate(path, None)
    lane.put()  # no read in between: save itself must notice
    assert lane.store.stats().get("dedups", 0) == 0
    assert lane.store.evictions == 1
    assert lane.read() == 5
    lane.put()
    assert lane.store.stats()["dedups"] == 1


# ----------------------------------------------------------------------
# traces: the two silent replays


def _replay(trace_dir):
    kernel._DECODE_CACHE.clear()  # as a fresh process would start
    return Job(
        arch="shared-l2",
        workload="fft",
        scale="test",
        max_cycles=CAP,
        replay=True,
        trace_dir=str(trace_dir),
    ).run()


@pytest.mark.parametrize("victim", ("text", "sidecar"))
@pytest.mark.parametrize("damage", ("truncated", "bit-flipped"))
def test_damaged_trace_is_rederived_not_replayed(
    tmp_path, bus, victim, damage
):
    clean = _replay(tmp_path).stats.to_dict()
    (text,) = tmp_path.rglob("*.trace")
    target = text if victim == "text" else kernel._sidecar_path(text, 4)
    DAMAGE[damage](target, None)

    assert _replay(tmp_path).stats.to_dict() == clean
    assert bus.kinds().count("trace.evict") == 1
    # whatever was re-derived is whole again: no second eviction
    assert _replay(tmp_path).stats.to_dict() == clean
    assert bus.kinds().count("trace.evict") == 1


def test_stale_format_sidecar_is_rederived_not_an_error(tmp_path, bus):
    clean = _replay(tmp_path).stats.to_dict()
    (text,) = tmp_path.rglob("*.trace")
    sidecar = kernel._sidecar_path(text, 4)
    sidecar.write_bytes(b"repro-packed-v1\n" + sidecar.read_bytes()[16:])
    assert _replay(tmp_path).stats.to_dict() == clean
    assert bus.kinds().count("trace.evict") == 0
    assert sidecar.read_bytes().startswith(kernel._SIDECAR_MAGIC)


# ----------------------------------------------------------------------
# both dispatchers: a failed publish, and the runner's fault policy


def dispatch(dispatcher, batch, cache=None, max_retries=2):
    """Run ``batch`` through the batch runner (2 workers) or the
    service scheduler (2 workers); returns outcomes in batch order plus
    the dispatcher's own count of simulations that finished."""
    if dispatcher == "batch":
        report = Runner(
            jobs=2, cache=cache, max_retries=max_retries
        ).run(batch)
        finished = sum(1 for o in report.outcomes if not o.failed)
        return report.outcomes, finished
    daemon = ServiceDaemon(
        port=0, jobs=2, cache=cache, max_retries=max_retries
    ).start()
    try:
        records = [daemon.queue.submit(job)[0] for job in batch]
        assert daemon.queue.wait_idle(timeout=120), daemon.queue.counts()
        finished = daemon.scheduler.executed
    finally:
        daemon.shutdown(grace=5.0)
    outcomes = []
    for record in records:
        result = None
        if record.result_body is not None:
            result = ExperimentResult.from_dict(
                json.loads(record.result_body)["result"]
            )
        outcomes.append(
            JobOutcome(
                record.job,
                result,
                error=record.error,
                timed_out=record.timed_out,
                attempts=record.attempts,
                quarantined=record.state == QUARANTINED,
            )
        )
    return outcomes, finished


DISPATCHERS = ("batch", "service")


def _plain(arch):
    return Job(arch=arch, workload="fft", scale="test", max_cycles=CAP)


@pytest.mark.parametrize("dispatcher", DISPATCHERS)
def test_failed_publish_never_loses_a_finished_simulation(
    dispatcher, tmp_path, failing_writes, bus
):
    batch = [_plain("shared-l1"), _plain("shared-l2"), _plain("shared-mem")]
    cache = ResultCache(tmp_path / "cache")
    failing_writes["errno"] = errno.ENOSPC
    outcomes, finished = dispatch(dispatcher, batch, cache=cache)
    assert [o.failed for o in outcomes] == [False, False, False]
    assert finished == 3
    assert cache.publish_errors == 3 and cache.stores == 0
    for job, outcome in zip(batch, outcomes):
        assert outcome.result.stats.cycles == job.run().stats.cycles


def test_serial_batch_survives_full_disk_in_its_cache(
    tmp_path, failing_writes
):
    log = tmp_path / "events.jsonl"
    event_bus = obs_bus.EventBus(log_path=log).start()
    cache = ResultCache(tmp_path / "cache")
    runner = Runner(jobs=1, cache=cache, bus=event_bus)
    failing_writes["errno"] = errno.ENOSPC
    report = runner.run([_plain("shared-l1"), _plain("shared-l2")])
    event_bus.stop()
    assert not report.failures and len(report.results) == 2
    assert "2 publish error(s)" in runner.summary()
    assert report.to_dict()["result_cache"]["publish_errors"] == 2
    errors = [
        e for e in obs_bus.read_events(log) if e.kind == "cache.error"
    ]
    assert [e.fields["sink"] for e in errors] == ["ResultCache"] * 2
    assert validate_events(log) == []
    assert cache.disk_stats()["entries"] == 0


def _kill_once(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TEST_KILL_DIR", str(tmp_path))
    batch = [
        Job(
            arch="shared-l1",
            workload=ckpt_helpers.kill_once_workload,
            scale="test",
            max_cycles=CAP,
        ),
        _plain("shared-l2"),
    ]

    def check(outcomes):
        assert not any(o.failed for o in outcomes)
        assert outcomes[0].attempts >= 2

    return batch, 2, check


def _poison(monkeypatch, tmp_path):
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

    def check(outcomes):
        for outcome in outcomes:
            assert outcome.failed and outcome.quarantined
            assert not outcome.timed_out
            assert "quarantined after 2 crashed" in outcome.error
            assert outcome.attempts == 2  # max_retries + 1

    return batch, 1, check


def _timeout(monkeypatch, tmp_path):
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

    def check(outcomes):
        for outcome in outcomes:
            assert outcome.failed and outcome.timed_out
            assert not outcome.quarantined and outcome.attempts == 1
            assert "budget" in outcome.error

    return batch, 2, check


def _failure(monkeypatch, tmp_path):
    batch = [
        Job(arch="shared-l1", workload="no-such-workload", scale="test"),
        _plain("shared-l2"),
    ]

    def check(outcomes):
        bad, good = outcomes
        assert bad.failed and not bad.timed_out and not bad.quarantined
        assert "ConfigError" in bad.error and bad.attempts == 1
        assert good.result is not None

    return batch, 2, check


CASES = {
    "worker-kill": _kill_once,
    "poison": _poison,
    "timeout": _timeout,
    "failure": _failure,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("dispatcher", DISPATCHERS)
def test_fault_policy_is_the_same_in_both_dispatchers(
    dispatcher, case, tmp_path, monkeypatch
):
    batch, max_retries, check = CASES[case](monkeypatch, tmp_path)
    outcomes, finished = dispatch(dispatcher, batch, max_retries=max_retries)
    check(outcomes)
    assert finished == sum(1 for o in outcomes if not o.failed)
