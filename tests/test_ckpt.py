"""Checkpoint/restore: the bit-identical determinism contract.

The hard guarantee (docs/CHECKPOINTING.md): run-to-end versus
pause-at-N / snapshot / restore-in-a-fresh-system / run-to-end must
produce **bit-identical** ``SystemStats`` for every architecture and
CPU model — including with observability attached. A checkpointing
run is the measured run: both models elide and park spin loops while
they record (Mipsy batches too), and the replay log they write is the
one stepping would.
"""

from __future__ import annotations

import dataclasses
import gc
import gzip
import json

import pytest
from conftest import load_script, replaying_cpus
from test_spin_elision import Waiters

from repro.ckpt import (
    SNAPSHOT_FORMAT,
    CheckpointStore,
    restore_system,
    sanitize_key,
    snapshot_system,
)
from repro.core.configs import config_for_scale
from repro.core.runner import Job
from repro.core.system import System
from repro.errors import CheckpointError
from repro.isa.instructions import SpinLoad
from repro.mem.cache import CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.functional import FunctionalMemory
from repro.mem.writebuffer import WriteBuffer
from repro.obs import ObsConfig
from repro.workloads import WORKLOADS

ARCHS = ("shared-l1", "shared-l2", "shared-mem")
CPU_MODELS = ("mipsy", "mxs")
CAP = 2_000_000


def build_system(
    arch: str,
    cpu_model: str,
    workload: str = "fft",
    obs: ObsConfig | None = None,
    n_cpus: int = 4,
) -> System:
    functional = FunctionalMemory()
    wl = WORKLOADS[workload](n_cpus, functional, "test")
    return System(
        arch,
        wl,
        cpu_model=cpu_model,
        mem_config=config_for_scale("test", n_cpus),
        max_cycles=CAP,
        obs=obs,
        checkpointing=True,
    )


def roundtrip(state: dict) -> dict:
    """Force the snapshot through its JSON wire format."""
    return json.loads(json.dumps(state))


# ----------------------------------------------------------------------
# The differential contract


@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize("arch", ARCHS)
def test_checkpoint_resume_is_bit_identical(arch, cpu_model):
    baseline_sys = build_system(arch, cpu_model)
    baseline = baseline_sys.run().to_dict()
    total = baseline_sys._cycle

    partial = build_system(arch, cpu_model)
    partial.run(pause_at=total // 2)
    assert partial.paused
    state = roundtrip(snapshot_system(partial))

    fresh = build_system(arch, cpu_model)
    restore_system(fresh, state)
    assert fresh.run().to_dict() == baseline


def _captured_containers(memory) -> dict:
    """Every container a built access path or lane closes over, by
    name: cache columns, invalidation sets, write-buffer deques, the
    directory's map."""
    captured = {}

    def walk(name, component):
        if isinstance(component, list):
            for index, item in enumerate(component):
                walk(f"{name}[{index}]", item)
        elif isinstance(component, CacheArray):
            captured[f"{name}.tags"] = component.tags
            captured[f"{name}.states"] = component.states
            captured[f"{name}.stamps"] = component.stamps
            captured[f"{name}.tick"] = component._tick
            captured[f"{name}.invalidated"] = component.invalidated
        elif isinstance(component, WriteBuffer):
            captured[f"{name}.pending"] = component._pending
        elif isinstance(component, Directory):
            captured[f"{name}.masks"] = component.masks

    for name, component in memory.components().items():
        walk(name, component)
    return captured


@pytest.mark.parametrize("arch", ("shared-l1", "shared-l2", "shared-mem"))
def test_restore_keeps_every_captured_container(arch):
    """The built paths hold these objects for the system's lifetime: a
    restore that rebinds one leaves the closures reading the old,
    empty container (``read_misses_inval`` 5 instead of 11)."""
    whole = build_system(arch, "mipsy", workload="eqntott")
    whole.run()
    partial = build_system(arch, "mipsy", workload="eqntott")
    partial.run(pause_at=whole._cycle // 2)
    state = roundtrip(snapshot_system(partial))

    fresh = build_system(arch, "mipsy", workload="eqntott")
    before = _captured_containers(fresh.memory)
    assert before
    restore_system(fresh, state)
    after = _captured_containers(fresh.memory)
    assert after.keys() == before.keys()
    for name, container in before.items():
        assert after[name] is container, name
    # ... and they carry the checkpointed contents (the columns are
    # re-packed in LRU order, which the resume tests above cover).
    live = _captured_containers(partial.memory)
    for name, container in after.items():
        if name.endswith((".invalidated", ".pending", ".masks")):
            assert container == live[name], name


@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize("arch", ("shared-l1", "shared-mem"))
def test_checkpoint_resume_with_obs_is_bit_identical(arch, cpu_model):
    def obs():
        return ObsConfig(sample_interval=256, events=True)

    baseline_sys = build_system(arch, cpu_model, obs=obs())
    baseline = baseline_sys.run().to_dict()
    total = baseline_sys._cycle

    partial = build_system(arch, cpu_model, obs=obs())
    partial.run(pause_at=total // 2)
    state = roundtrip(snapshot_system(partial))

    fresh = build_system(arch, cpu_model, obs=obs())
    restore_system(fresh, state)
    assert fresh.run().to_dict() == baseline
    # The telemetry itself also survives: sampled utilization series
    # and every registry counter match the uninterrupted run.
    base_obs, res_obs = baseline_sys.obs, fresh.obs
    assert res_obs.sampler.series == base_obs.sampler.series
    assert res_obs.sampler.boundaries == base_obs.sampler.boundaries
    assert {n: c.value for n, c in res_obs.registry.counters.items()} == {
        n: c.value for n, c in base_obs.registry.counters.items()
    }


def _six_sweep_ocean(n_cpus, functional, scale):
    """Test-scale ocean has two sweeps — one per grid parity, nothing
    revisited; six revisit each parity twice, like the bench scale."""
    workload = WORKLOADS["ocean"](n_cpus, functional, scale)
    workload.sweeps = 6
    return workload


_REPLAYING = {
    "ocean": _six_sweep_ocean,
    "multiprog": WORKLOADS["multiprog"],
}


@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize("workload", sorted(_REPLAYING))
def test_checkpoint_inside_a_replayed_stretch(workload, cpu_model):
    """The replay log counts pulls, and a replayed stretch is pulled
    like a generated one: a snapshot taken while thread programs stand
    inside a replay restores into a fresh workload — which has
    generated nothing yet — and finishes like the uninterrupted run."""
    factory = _REPLAYING[workload]

    def build():
        return System(
            "shared-mem",
            factory(4, FunctionalMemory(), "test"),
            cpu_model=cpu_model,
            mem_config=config_for_scale("test", 4),
            max_cycles=CAP,
            checkpointing=True,
        )

    baseline_sys = build()
    baseline = baseline_sys.run().to_dict()
    total = baseline_sys._cycle

    partial = build()
    partial.run(pause_at=total * 6 // 10)
    assert partial.paused
    assert replaying_cpus(workload, [cpu.program for cpu in partial.cpus])
    state = roundtrip(snapshot_system(partial))

    fresh = build()
    assert fresh.workload.generation_report()["generated"] == 0
    restore_system(fresh, state)
    assert fresh.workload.generation_report() == (
        partial.workload.generation_report()
    )
    assert fresh.run().to_dict() == baseline
    assert fresh.workload.generation_report() == (
        baseline_sys.workload.generation_report()
    )


#: a cycle at which the three Waiters CPUs spin while CPU 0 computes
WAITING = 600


def _waiters(locked=False, obs=None, stepped=False, cpu_model="mipsy"):
    system = System(
        "shared-l2",
        Waiters(4, FunctionalMemory(), locked=locked),
        cpu_model=cpu_model,
        mem_config=config_for_scale("test", 4),
        max_cycles=CAP,
        obs=obs,
        checkpointing=True,
    )
    if stepped:
        # The one stepped path: CPUs that may not run ahead of the loop.
        for cpu in system.cpus:
            cpu._batchable = False
    return system


@pytest.mark.parametrize("locked", (False, True), ids=("barrier", "lock"))
def test_pause_on_an_armed_spin_is_bit_identical(locked):
    """Recording leaves elision and parking on; a pause that lands on
    a spin the CPU runs itself snapshots what stepping would have, and
    the restored CPU pulls the spin — its lock's ``retries`` cell
    included — from the replayed program."""
    whole = _waiters(locked)
    baseline = whole.run().to_dict()

    partial = _waiters(locked)
    partial.run(pause_at=WAITING)
    assert partial.spin_report()["parks"] > 0
    armed = [cpu for cpu in partial.cpus
             if type(cpu._pending_inst) is SpinLoad]
    assert armed
    state = roundtrip(snapshot_system(partial))

    stepped = _waiters(locked, stepped=True)
    stepped.run(pause_at=WAITING)
    assert stepped.spin_report()["parks"] == 0
    assert roundtrip(snapshot_system(stepped)) == state

    fresh = _waiters(locked)
    restore_system(fresh, state)
    assert fresh.run().to_dict() == baseline
    assert fresh.workload.sync_report() == whole.workload.sync_report()


#: a cycle at which the three Waiters CPUs are parked under MXS
MXS_PARKED = 500


def _blob(system) -> bytes:
    return json.dumps(snapshot_system(system), sort_keys=True).encode()


@pytest.mark.parametrize("locked", (False, True), ids=("barrier", "lock"))
def test_snapshot_of_a_parked_mxs_cpu_is_the_stepped_one(locked):
    """A pause settles a parked MXS pipeline to the pause cycle's place
    in its recorded period: the snapshot is the stepped run's, byte for
    byte, and resumes to the uninterrupted run."""
    whole = _waiters(locked, cpu_model="mxs")
    baseline = whole.run().to_dict()

    partial = _waiters(locked, cpu_model="mxs")
    partial.run(pause_at=MXS_PARKED)
    report = partial.spin_report()
    # (what no sleeper's own wake ended, the pause did: all three)
    assert report["parks"] - report["disturbed_wakes"] == 3
    blob = _blob(partial)

    stepped = _waiters(locked, stepped=True, cpu_model="mxs")
    stepped.run(pause_at=MXS_PARKED)
    assert stepped.spin_report()["parks"] == 0
    assert _blob(stepped) == blob

    fresh = _waiters(locked, cpu_model="mxs")
    restore_system(fresh, json.loads(blob))
    assert fresh.run().to_dict() == baseline
    assert fresh.workload.sync_report() == whole.workload.sync_report()


def test_resumed_observed_run_times_an_in_flight_wait_from_its_start():
    """A barrier wait open at the pause is one episode: the resumed run
    records it from the cycle it began, not from the checkpoint."""

    def build():
        return _waiters(obs=ObsConfig(sample_interval=128, events=True))

    whole = build()
    whole.run()
    partial = build()
    partial.run(pause_at=WAITING)
    state = roundtrip(snapshot_system(partial))
    fresh = build()
    restore_system(fresh, state)
    fresh.run()
    assert fresh.obs.registry.snapshot() == whole.obs.registry.snapshot()
    assert fresh.obs.timeline._events == whole.obs.timeline._events
    assert fresh.obs.sampler.series == whole.obs.sampler.series
    # (the three waiters' episodes were open at the pause)
    assert [cpu for cpu, _start in state["obs"]["waits"]] == [1, 2, 3]


def test_chained_checkpoints_are_bit_identical():
    baseline_sys = build_system("shared-l2", "mxs")
    baseline = baseline_sys.run().to_dict()
    total = baseline_sys._cycle

    partial = build_system("shared-l2", "mxs")
    partial.run(pause_at=total // 3)
    first = roundtrip(snapshot_system(partial))

    middle = build_system("shared-l2", "mxs")
    restore_system(middle, first)
    middle.run(pause_at=2 * total // 3)
    assert middle.paused
    second = roundtrip(snapshot_system(middle))

    fresh = build_system("shared-l2", "mxs")
    restore_system(fresh, second)
    assert fresh.run().to_dict() == baseline


def test_in_process_pause_resume_is_bit_identical():
    baseline_sys = build_system("shared-mem", "mipsy")
    baseline = baseline_sys.run().to_dict()
    total = baseline_sys._cycle

    partial = build_system("shared-mem", "mipsy")
    partial.run(pause_at=total // 2)
    assert partial.paused
    assert partial.run().to_dict() == baseline


def test_snapshot_is_deterministic():
    def take():
        system = build_system("shared-l1", "mipsy")
        system.run(pause_at=800)
        return json.dumps(snapshot_system(system), sort_keys=True)

    assert take() == take()


@pytest.mark.parametrize("cpu_model", CPU_MODELS)
@pytest.mark.parametrize(
    "arch,n_cpus", [("cluster-l1", 16), ("shared-l3", 4), ("shared-l3", 8)]
)
def test_checkpoint_resume_non_default_topology(arch, n_cpus, cpu_model):
    # The same bit-identical contract on the non-paper topologies: the
    # multi-stage crossbar's switch columns and the 3-level hierarchy's
    # private L2s must all survive the JSON round trip.
    baseline_sys = build_system(arch, cpu_model, n_cpus=n_cpus)
    baseline = baseline_sys.run().to_dict()
    total = baseline_sys._cycle

    partial = build_system(arch, cpu_model, n_cpus=n_cpus)
    partial.run(pause_at=total // 2)
    assert partial.paused
    state = roundtrip(snapshot_system(partial))

    fresh = build_system(arch, cpu_model, n_cpus=n_cpus)
    restore_system(fresh, state)
    assert fresh.run().to_dict() == baseline


# ----------------------------------------------------------------------
# MXS: the wire format across the pipeline rewrite
#
# tests/data/mxs_midrun_ckpt.json.gz was written by the pipeline that
# kept a seq -> record dict and a string-keyed FU pool. The format
# carries neither producer links nor the unissued list — both are
# derived from the ROB rows on restore — so that blob must still load.

_MXS_GEN = load_script("gen_mxs_golden")


def _committed_mxs_blob() -> dict:
    return json.loads(gzip.decompress(_MXS_GEN.CKPT_PATH.read_bytes()))


def test_pre_rewrite_mxs_blob_restores_and_runs_to_golden():
    golden = json.loads(_MXS_GEN.GOLDEN_PATH.read_text(encoding="utf-8"))
    fresh = _MXS_GEN.build_case(_MXS_GEN.CKPT_CASE, checkpointing=True)
    restore_system(fresh, _committed_mxs_blob())
    stats = fresh.run()
    assert {
        "stats": stats.to_dict(),
        "cpus": _MXS_GEN.pipeline_counters(fresh),
    } == golden["cases"][_MXS_GEN.CKPT_CASE]


def test_mxs_snapshot_matches_pre_rewrite_blob():
    committed = _committed_mxs_blob()
    state = roundtrip(_MXS_GEN.midrun_snapshot())
    # The package version is the one field allowed to move.
    state["meta"]["version"] = committed["meta"]["version"]
    assert state == committed


# ----------------------------------------------------------------------
# Memory section: the wire format across the hierarchy merge
#
# tests/data/hierarchy_midrun_ckpt.json.gz was written by the five
# per-preset MemorySystem classes (their ``vars()``, reflectively).
# The three spec-built disciplines declare the same component names,
# so those blobs must restore and finish on the stats their writers
# reached — for a two-level directory machine, a three-level one, and
# the 16-core multi-stage cluster.


def _committed_hierarchy_blobs() -> dict:
    return json.loads(
        gzip.decompress(_MXS_GEN.HIERARCHY_CKPT_PATH.read_bytes())
    )


@pytest.mark.parametrize("arch", _MXS_GEN.HIERARCHY_CKPT_CASES)
def test_pre_merge_hierarchy_blob_restores_and_finishes(arch):
    committed = _committed_hierarchy_blobs()[arch]
    fresh = _MXS_GEN.build_hierarchy_case(arch)
    restore_system(fresh, committed["snapshot"])
    finished = fresh.run().to_dict()
    assert finished == committed["final"]
    assert finished == _MXS_GEN.build_hierarchy_case(arch).run().to_dict()


def test_hierarchy_snapshots_match_pre_merge_blobs():
    committed = _committed_hierarchy_blobs()
    state = roundtrip(_MXS_GEN.hierarchy_snapshots())
    assert set(state) == set(committed)
    for arch, case in state.items():
        # The package version is the one field allowed to move.
        case["snapshot"]["meta"]["version"] = committed[arch]["snapshot"][
            "meta"
        ]["version"]
        assert case == committed[arch], arch


def test_mxs_finished_run_leaves_no_record_reachable():
    # Wake-up links are cleared as producers become ready, so a
    # dependence chain cannot keep graduated records alive behind the
    # ROB: once the run is over, nothing in flight is left anywhere.
    from repro.cpu.mxs.core import _Record

    system = build_system("shared-mem", "mxs")
    system.run()
    gc.collect()
    assert not [o for o in gc.get_objects() if type(o) is _Record]


def test_restore_rejects_stage_count_mismatch():
    # A cluster snapshot must not restore into a cluster whose
    # multi-stage crossbar has a different switch-column shape.
    partial = build_system("cluster-l1", "mipsy", n_cpus=16)
    partial.run(pause_at=900)
    state = roundtrip(snapshot_system(partial))
    fresh = build_system("cluster-l1", "mipsy", n_cpus=16)
    columns = state["memory"]["crossbar"]["switches"]
    columns.append([list(switch) for switch in columns[0]])
    with pytest.raises(CheckpointError):
        restore_system(fresh, state)


# ----------------------------------------------------------------------
# Protocol errors


def test_snapshot_requires_checkpointing_mode():
    functional = FunctionalMemory()
    wl = WORKLOADS["fft"](4, functional, "test")
    system = System(
        "shared-l1", wl, mem_config=config_for_scale("test", 4)
    )
    system.run(pause_at=500)
    with pytest.raises(CheckpointError, match="checkpointing=True"):
        snapshot_system(system)


def test_snapshot_requires_paused_system():
    system = build_system("shared-l1", "mipsy")
    with pytest.raises(CheckpointError, match="not paused"):
        snapshot_system(system)


def test_restore_rejects_configuration_mismatch():
    partial = build_system("shared-l1", "mipsy")
    partial.run(pause_at=500)
    state = snapshot_system(partial)

    other_arch = build_system("shared-l2", "mipsy")
    with pytest.raises(CheckpointError, match="mismatch on arch"):
        restore_system(other_arch, state)

    other_model = build_system("shared-l1", "mxs")
    with pytest.raises(CheckpointError, match="mismatch on cpu_model"):
        restore_system(other_model, state)

    other_workload = build_system("shared-l1", "mipsy", workload="eqntott")
    with pytest.raises(CheckpointError, match="mismatch on workload"):
        restore_system(other_workload, state)


def test_restore_rejects_obs_mismatch():
    partial = build_system("shared-l1", "mipsy")
    partial.run(pause_at=500)
    state = snapshot_system(partial)
    observed = build_system(
        "shared-l1", "mipsy", obs=ObsConfig(sample_interval=256)
    )
    with pytest.raises(CheckpointError, match="observability"):
        restore_system(observed, state)


def test_restore_rejects_used_target():
    partial = build_system("shared-l1", "mipsy")
    partial.run(pause_at=500)
    state = snapshot_system(partial)
    used = build_system("shared-l1", "mipsy")
    used.run(pause_at=100)
    with pytest.raises(CheckpointError, match="already executed"):
        restore_system(used, state)


def test_restore_rejects_unknown_format():
    partial = build_system("shared-l1", "mipsy")
    partial.run(pause_at=500)
    state = snapshot_system(partial)
    state["meta"]["format"] = "repro.ckpt/999"
    fresh = build_system("shared-l1", "mipsy")
    with pytest.raises(CheckpointError, match="unsupported"):
        restore_system(fresh, state)


# ----------------------------------------------------------------------
# The on-disk store


def _snapshot_for_store() -> dict:
    system = build_system("shared-l1", "mipsy")
    system.run(pause_at=600)
    return snapshot_system(system)


def test_store_roundtrip_and_inspect(tmp_path):
    store = CheckpointStore(tmp_path)
    state = _snapshot_for_store()
    digest = store.save(state)
    assert store.load(digest) == roundtrip(state)
    meta = store.inspect(digest)
    assert meta["format"] == SNAPSHOT_FORMAT
    assert meta["arch"] == "shared-l1"
    assert meta["cycle"] >= 600
    # Identical state deduplicates to the same blob.
    assert store.save(state) == digest


def test_store_detects_corruption(tmp_path):
    store = CheckpointStore(tmp_path)
    digest = store.save(_snapshot_for_store())
    blob = tmp_path / digest[:2] / f"{digest}.json.gz"
    import gzip

    blob.write_bytes(gzip.compress(b'{"meta": {"tampered": true}}'))
    with pytest.raises(CheckpointError, match="content hash"):
        store.load(digest)


def test_store_rejects_malformed_digest(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(CheckpointError, match="malformed"):
        store.load("../../etc/passwd")
    with pytest.raises(CheckpointError, match="no checkpoint blob"):
        store.load("0" * 64)


def test_store_latest_pointer_lifecycle(tmp_path):
    store = CheckpointStore(tmp_path)
    key = "fft/shared-l1/mipsy overrides=1"
    assert store.latest(key) is None
    digest = store.save(_snapshot_for_store(), key=key)
    assert store.latest(key) == digest
    store.clear_latest(key)
    assert store.latest(key) is None
    store.clear_latest(key)  # idempotent


def test_sanitize_key_is_filename_safe():
    assert "/" not in sanitize_key("fft/shared-l1:mipsy l2=4")
    assert sanitize_key("abc_DEF-1.2=3") == "abc_DEF-1.2=3"


# ----------------------------------------------------------------------
# Job.run integration


def test_job_run_checkpoint_every_matches_uninterrupted(tmp_path):
    base = Job("shared-l2", WORKLOADS["fft"], max_cycles=CAP).run()
    job = Job(
        "shared-l2",
        WORKLOADS["fft"],
        max_cycles=CAP,
        ckpt_every=700,
        ckpt_dir=str(tmp_path),
    )
    ck = job.run()
    assert ck.stats.to_dict() == base.stats.to_dict()
    assert ck.extras["checkpoint"]["saved"] > 0
    # A completed job never resumes: its latest pointer is cleared.
    assert CheckpointStore(tmp_path).latest(job.key()) is None


def test_job_run_resume_from_matches_uninterrupted(tmp_path):
    base = Job("shared-mem", WORKLOADS["fft"], cpu_model="mxs",
               max_cycles=CAP).run()
    store = CheckpointStore(tmp_path)
    partial = build_system("shared-mem", "mxs")
    partial.run(pause_at=900)
    digest = store.save(snapshot_system(partial))
    resumed = Job(
        "shared-mem",
        WORKLOADS["fft"],
        cpu_model="mxs",
        max_cycles=CAP,
        ckpt_dir=str(tmp_path),
    ).run(resume_from=digest)
    assert resumed.stats.to_dict() == base.stats.to_dict()
    assert resumed.extras["checkpoint"]["resumed_from"] == digest


# ----------------------------------------------------------------------
# Replay jobs: a replayed trace program is resumed like any other


def _replay_job(tmp_path, arch, cpu_model, **fields) -> Job:
    return Job(
        arch, "eqntott", cpu_model=cpu_model, replay=True,
        trace_dir=str(tmp_path / "traces"), **fields,
    )


@pytest.mark.parametrize(
    "arch, cpu_model", (("shared-l2", "mipsy"), ("shared-mem", "mxs"))
)
def test_every_checkpoint_of_a_replay_job_resumes_to_the_plain_replay(
    tmp_path, arch, cpu_model
):
    """A replayed SC hands its outcome back to the trace program like
    every SC does, so the replay log holds a value for it and a
    restore re-advances the program past it."""
    plain = _replay_job(tmp_path, arch, cpu_model).run().stats.to_dict()
    ckpt_dir = tmp_path / "ckpt"
    job = _replay_job(tmp_path, arch, cpu_model, ckpt_dir=str(ckpt_dir))
    saved = dataclasses.replace(job, ckpt_every=1000).run()
    assert saved.stats.to_dict() == plain
    digests = sorted(
        path.name.split(".")[0] for path in ckpt_dir.rglob("*.json.gz")
    )
    assert len(digests) == saved.extras["checkpoint"]["saved"] > 1
    for digest in digests:
        resumed = job.run(resume_from=digest)
        assert resumed.stats.to_dict() == plain, digest


# (On shared-l1 the observation rebuilds the lanes, the shadow
# crossbar: a trace CPU must tick on the rebound ones.)
@pytest.mark.parametrize("arch", ("shared-l2", "shared-l1"))
def test_observed_replay_job_is_the_plain_replay(tmp_path, arch):
    plain = _replay_job(tmp_path, arch, "mipsy").run()
    observed = _replay_job(tmp_path, arch, "mipsy", obs_sample=250).run()
    assert observed.extras["obs"]
    assert observed.stats.to_dict() == plain.stats.to_dict()
