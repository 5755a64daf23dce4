"""Tests for the process-parallel, cache-aware experiment runner."""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest

from repro.core.experiment import ExperimentResult
from repro.ckpt import CheckpointStore
from repro.core import runner as runner_module
from repro.core.configs import CpuParams
from repro.core.runner import (
    KEY_MEMO_SIZE,
    Job,
    ResultCache,
    Runner,
    register_workload,
    run_jobs,
)
from repro.core.store import address
from repro.core.sweeps import run_architecture_comparison, sweep_mem_field
from repro.errors import ConfigError
from repro.mem import topology as topology_module
from repro.mem.hierarchy import BusTiming, MemConfig
from repro.serve.queue import JobQueue
from repro.sim.stats import SystemStats
from repro.workloads import WORKLOADS

MATRIX = ("shared-l1", "shared-l2", "shared-mem")
CAP = 2_000_000


def _batch(workload: str = "eqntott", **kw) -> list[Job]:
    return [
        Job(arch=arch, workload=workload, scale="test", max_cycles=CAP, **kw)
        for arch in MATRIX
    ]


def _payloads(report) -> list[dict]:
    """to_dict payloads with the wall-clock (the only nondeterministic
    field) removed."""
    payloads = []
    for outcome in report.outcomes:
        data = outcome.result.to_dict()
        data.pop("wall_seconds")
        payloads.append(data)
    return payloads


# ----------------------------------------------------------------------
# Determinism: parallel == serial


def test_parallel_matches_serial_exactly():
    batch = _batch()
    serial = Runner(jobs=1).run(batch)
    parallel = Runner(jobs=4).run(batch)
    assert parallel.workers > 1, "parallel run must actually fan out"
    assert _payloads(serial) == _payloads(parallel)


def test_serial_runner_matches_job_build_run():
    report = Runner(jobs=1).run(_batch())
    for outcome in report.outcomes:
        direct = Job(
            outcome.job.arch,
            WORKLOADS["eqntott"],
            scale="test",
            max_cycles=CAP,
        ).build().run()
        assert outcome.result.cycles == direct.cycles
        assert outcome.result.instructions == direct.instructions


def test_outcomes_preserve_submission_order():
    batch = _batch()
    report = Runner(jobs=4).run(batch)
    assert [o.job.arch for o in report.outcomes] == list(MATRIX)


# ----------------------------------------------------------------------
# Result cache


def test_cache_hit_on_identical_job(tmp_path):
    cache = ResultCache(tmp_path)
    first = Runner(jobs=1, cache=cache).run(_batch())
    second = Runner(jobs=1, cache=cache).run(_batch())
    assert first.cache_hits == 0 and first.cache_misses == len(MATRIX)
    assert second.cache_hits == len(MATRIX) and second.cache_misses == 0
    # The cached results report byte-identical statistics (including
    # the original run's wall clock).
    firsts = [o.result.to_dict() for o in first.outcomes]
    seconds = [o.result.to_dict() for o in second.outcomes]
    assert firsts == seconds
    assert all(o.cached for o in second.outcomes)


def test_cache_miss_on_changed_override(tmp_path):
    cache = ResultCache(tmp_path)
    runner = Runner(jobs=1, cache=cache)
    runner.run(_batch(overrides={"l2_assoc": 1}))
    report = runner.run(_batch(overrides={"l2_assoc": 4}))
    assert report.cache_hits == 0
    assert report.cache_misses == len(MATRIX)


def test_no_cache_bypasses_disk(tmp_path):
    cache = ResultCache(tmp_path)
    Runner(jobs=1, cache=cache).run(_batch())
    report = Runner(jobs=1, cache=None).run(_batch())
    assert report.cache_hits == 0 and report.cache_misses == 0
    assert not any(outcome.cached for outcome in report.outcomes)


def test_cache_survives_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    job = _batch()[0]
    Runner(jobs=1, cache=cache).run([job])
    path = cache.path_for(job)
    path.write_text("{not json")
    report = Runner(jobs=1, cache=cache).run([job])
    assert report.cache_hits == 0, "corrupt entry must read as a miss"
    assert report.outcomes[0].result.cycles > 0


def test_cache_entry_is_valid_json_with_spec(tmp_path):
    cache = ResultCache(tmp_path)
    job = _batch()[0]
    Runner(jobs=1, cache=cache).run([job])
    payload = json.loads(cache.path_for(job).read_text())
    assert payload["spec"]["arch"] == job.arch
    assert payload["spec"]["workload"] == "eqntott"
    assert payload["result"]["stats"]["cycles"] > 0


def _sharing_closure(sharing):
    def factory(n_cpus, functional, scale):
        return WORKLOADS["synthetic"](
            n_cpus, functional, scale, sharing=sharing
        )

    return factory


@pytest.mark.parametrize(
    "parameterised",
    [
        _sharing_closure,
        lambda sharing: functools.partial(
            WORKLOADS["synthetic"], sharing=sharing
        ),
    ],
    ids=["closure", "partial"],
)
def test_unaddressable_workloads_never_exchange_results(
    tmp_path, parameterised
):
    # Two closures share a qualified name and a partial's repr holds a
    # memory address: neither is an identity a cache can be keyed on.
    def run(sharing):
        job = Job(
            "shared-mem", parameterised(sharing), scale="test",
            max_cycles=CAP,
        )
        return Runner(jobs=1, cache=ResultCache(tmp_path)).run([job])

    private, shared = run(0.0), run(0.85)
    assert (shared.cache_hits, run(0.85).cache_hits) == (0, 0)
    assert not ResultCache(tmp_path).disk_stats()["entries"]
    assert (
        private.outcomes[0].result.stats.c2c_transfers
        < shared.outcomes[0].result.stats.c2c_transfers
    )


# ----------------------------------------------------------------------
# Job spec


def test_job_key_is_stable_and_spec_sensitive():
    job = Job(arch="shared-l1", workload="ear", scale="test")
    same = Job(arch="shared-l1", workload="ear", scale="test")
    other = Job(arch="shared-l1", workload="ear", scale="bench")
    assert job.key() == same.key()
    assert job.key() != other.key()
    assert job.key() != Job(
        arch="shared-l1", workload="ear", scale="test",
        overrides={"l2_assoc": 4},
    ).key()


def test_job_unknown_workload_raises():
    with pytest.raises(ConfigError, match="unknown workload"):
        Job(arch="shared-l1", workload="nonesuch").run()


def test_job_unknown_override_raises():
    job = Job(
        arch="shared-l1", workload="ear", scale="test",
        overrides={"warp_drive": 9},
    )
    with pytest.raises(ConfigError, match="unknown MemConfig field"):
        job.run()


def test_registered_workload_resolves_by_name():
    register_workload("runner-test-loop", WORKLOADS["ear"])
    job = Job(
        arch="shared-l2", workload="runner-test-loop", scale="test",
        max_cycles=CAP,
    )
    assert job.run().cycles > 0


def test_register_workload_rejects_bad_name():
    with pytest.raises(ConfigError):
        register_workload("", WORKLOADS["ear"])


# ----------------------------------------------------------------------
# Job identity: resolved once per distinct job, whatever the door

APPS = ("eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "multiprog")
OCEAN = {"l1d_size": 4096, "l1i_size": 4096, "l2_size": 512 * 1024}


def _figure_matrix(**kw) -> list[Job]:
    """The ledger's 7 applications x 3 presets, built afresh (new
    instances, equal by value) on every call."""
    return [
        Job(
            arch=arch, workload=app, scale="bench", n_cpus=4,
            overrides=dict(OCEAN) if app == "ocean" else {},
            max_cycles=30_000_000, **kw,
        )
        for app in APPS
        for arch in MATRIX
    ]


@pytest.fixture
def memo():
    """The identity memo, empty at the start of the test."""
    runner_module._address_of.cache_clear()
    return runner_module._address_of


@pytest.fixture
def topologies_resolved(monkeypatch):
    """Counts ``resolve_topology`` calls made on behalf of jobs."""
    calls = []
    real = runner_module.resolve_topology

    def counting(arch, config):
        calls.append(arch)
        return real(arch, config)

    monkeypatch.setattr(runner_module, "resolve_topology", counting)
    return calls


def test_ninety_hit_rounds_resolve_each_distinct_job_once(
    tmp_path, memo, topologies_resolved
):
    # every door a re-submitted sweep comes through, 90 times over
    queue = JobQueue()
    cache = ResultCache(tmp_path / "cache")
    checkpoints = CheckpointStore(tmp_path / "ckpt")
    keys = set()
    for _ in range(90):
        for job in _figure_matrix():
            record, _ = queue.submit(job)
            assert cache.get(job) is None
            assert checkpoints.latest(job.key()) is None
            keys.add(record.id)
    assert len(keys) == 21
    # 3 x 1 890 lookups, 21 resolutions (the parent: one per lookup)
    assert len(topologies_resolved) == 21
    assert memo.cache_info().currsize == 21


def test_key_follows_a_field_mutated_after_the_first_key(memo):
    job = Job(arch="shared-l1", workload="ear", scale="test")
    before = job.key()
    job.scale = "bench"
    assert job.key() == Job("shared-l1", "ear", scale="bench").key()
    job.overrides["l2_assoc"] = 4  # in place: nothing hangs off the dict
    assert job.key() == address(job.spec()) != before
    job.scale, job.overrides = "test", {}
    assert job.key() == before


def test_key_is_typed_like_the_spec_text(memo):
    # 4 == 4.0 as a dict key; "4" != "4.0" in the hashed spec
    whole = Job("shared-l2", "fft", overrides={"l2_assoc": 4})
    fraction = Job("shared-l2", "fft", overrides={"l2_assoc": 4.0})
    assert whole.key() == address(whole.spec())
    assert fraction.key() == address(fraction.spec()) != whole.key()


@pytest.mark.parametrize(
    "fields",
    [
        {"overrides": {"bus": BusTiming(mem_latency=70)}},
        {"cpu_model": "mxs", "cpu_params": CpuParams(rob=64)},
    ],
    ids=["override", "cpu_params"],
)
def test_unhashable_field_is_computed_and_still_matches(memo, fields):
    job = Job(arch="shared-mem", workload="fft", **fields)
    assert job.key() == job.key() == address(job.spec())
    assert memo.cache_info().currsize == 0  # never entered the memo


def test_reregistering_a_preset_name_is_a_new_identity(memo, monkeypatch):
    # teardown drops the name again
    monkeypatch.setitem(topology_module._PRESETS, "memo-test", None)
    base = topology_module.get_preset("shared-l2").factory

    def register(l2_assoc):
        @topology_module.register_topology(
            "memo-test", kind="shared-secondary", default_cpus=4,
            description="identity memo test",
        )
        def factory(n_cpus, config):
            topology = base(n_cpus, config)
            l1, l2 = topology.levels
            return dataclasses.replace(
                topology,
                name="memo-test",
                levels=(l1, dataclasses.replace(l2, assoc=l2_assoc)),
            )

    register(1)
    job = Job(arch="memo-test", workload="fft")
    first = job.key()
    assert first == job.key() == address(job.spec())
    register(2)
    assert job.spec()["topology"]["levels"][1]["assoc"] == 2
    assert job.key() == address(job.spec()) != first


def test_memo_is_bounded(memo):
    for cap in range(KEY_MEMO_SIZE + 40):
        Job("shared-l1", "ear", max_cycles=cap + 1).key()
    assert memo.cache_info().currsize == KEY_MEMO_SIZE
    # the oldest was dropped and is simply resolved again
    oldest = Job("shared-l1", "ear", max_cycles=1)
    assert oldest.key() == address(oldest.spec())


def test_memoized_keys_are_the_address_of_the_spec(memo):
    # the ledger's whole job matrix: both lanes, both CPU models, and
    # the storm's partial-wrapped factory on all five presets
    storm = functools.partial(WORKLOADS["ear"], 3)
    jobs = (
        _figure_matrix()
        + _figure_matrix(replay=True)
        + [j for j in _figure_matrix(cpu_model="mxs")
           if j.workload in ("multiprog", "eqntott", "ear")]
        + [
            Job(arch=arch, workload=storm, scale="bench", n_cpus=4,
                max_cycles=30_000_000)
            for arch in MATRIX + ("shared-l3", "cluster-l1")
        ]
    )
    expected = [address(job.spec()) for job in jobs]
    assert len(set(expected)) == len(jobs) == 21 + 21 + 9 + 5
    assert [job.key() for job in jobs] == expected  # resolving
    assert [job.key() for job in jobs] == expected  # remembered
    assert memo.cache_info().hits == len(jobs)


def test_unknown_arch_or_scale_is_a_config_error_from_key():
    with pytest.raises(ConfigError, match="unknown topology"):
        Job(arch="shared-l9", workload="fft").key()
    with pytest.raises(ConfigError, match="unknown scale"):
        Job(arch="shared-l1", workload="fft", scale="huge").key()


# ----------------------------------------------------------------------
# Telemetry


def test_report_telemetry_accounts_for_every_job(tmp_path):
    report = run_jobs(_batch(), jobs=1, cache=ResultCache(tmp_path))
    data = report.to_dict()
    assert data["jobs"] == len(MATRIX)
    assert len(data["per_job"]) == len(MATRIX)
    assert data["busy_seconds"] > 0
    assert 0.0 <= data["utilization"] <= 1.0
    assert report.summary()


def test_progress_hook_fires_per_job(tmp_path):
    lines: list[str] = []
    cache = ResultCache(tmp_path)
    Runner(jobs=1, cache=cache, progress=lines.append).run(_batch())
    assert len(lines) == len(MATRIX)
    Runner(jobs=1, cache=cache, progress=lines.append).run(_batch())
    assert len(lines) == 2 * len(MATRIX)
    assert any("[cache]" in line for line in lines)


def test_runner_rejects_zero_workers():
    with pytest.raises(ConfigError):
        Runner(jobs=0)


# ----------------------------------------------------------------------
# Serialization round-trips


def test_experiment_result_round_trips_through_dict():
    result = Job("shared-l2", WORKLOADS["ear"], scale="test",
                 max_cycles=CAP).run()
    clone = ExperimentResult.from_dict(result.to_dict())
    assert clone.to_dict() == result.to_dict()
    assert clone.stats.aggregate_breakdown().as_dict() == \
        result.stats.aggregate_breakdown().as_dict()


def test_experiment_result_round_trips_through_json():
    result = Job("shared-l1", WORKLOADS["ear"], cpu_model="mxs",
                 scale="test", max_cycles=CAP).run()
    clone = ExperimentResult.from_dict(json.loads(result.to_json()))
    assert clone.cycles == result.cycles
    assert clone.per_cpu_ipc == result.per_cpu_ipc
    assert [m.to_dict() for m in clone.stats.mxs] == \
        [m.to_dict() for m in result.stats.mxs]


def test_system_stats_round_trip_preserves_caches():
    result = Job("shared-mem", WORKLOADS["ear"], scale="test",
                 max_cycles=CAP).run()
    stats = SystemStats.from_dict(result.stats.to_dict())
    assert set(stats.caches) == set(result.stats.caches)
    l1 = stats.aggregate_caches(".l1d")
    assert l1.miss_rate == result.stats.aggregate_caches(".l1d").miss_rate


# ----------------------------------------------------------------------
# with_overrides


def test_with_overrides_revalidates():
    config = MemConfig()
    assert config.with_overrides(l2_assoc=4).l2_assoc == 4
    with pytest.raises(ConfigError, match="unknown MemConfig field"):
        config.with_overrides(bogus=1)
    with pytest.raises(ConfigError):
        config.with_overrides(l1d_size=-1)
    with pytest.raises(ConfigError):
        config.with_overrides(l1_coherence="telepathy")


def test_with_overrides_leaves_original_untouched():
    config = MemConfig()
    config.with_overrides(l2_assoc=8)
    assert config.l2_assoc == 1


# ----------------------------------------------------------------------
# Rebased consumers


def test_comparison_parallel_matches_serial():
    ear = Job("shared-l1", "ear", scale="test", max_cycles=CAP)
    serial = run_architecture_comparison(ear, runner=Runner(jobs=1))
    parallel = run_architecture_comparison(ear, runner=Runner(jobs=4))
    for arch in MATRIX:
        a, b = serial[arch].to_dict(), parallel[arch].to_dict()
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b, arch


def test_comparison_shares_runner_cache(tmp_path):
    runner = Runner(jobs=1, cache=ResultCache(tmp_path))
    ear = Job("shared-l1", "ear", scale="test", max_cycles=CAP)
    run_architecture_comparison(ear, runner=runner)
    run_architecture_comparison(ear, runner=runner)
    assert runner.last_report is not None
    assert runner.last_report.cache_hits == len(MATRIX)


def test_sweep_by_name_parallel_matches_serial():
    ear = Job("shared-l1", "ear", scale="test", max_cycles=CAP)
    serial = sweep_mem_field(ear, "l2_assoc", (1, 4), runner=Runner(jobs=1))
    parallel = sweep_mem_field(
        ear, "l2_assoc", (1, 4), runner=Runner(jobs=4)
    )
    for value in (1, 4):
        for arch in MATRIX:
            assert serial.cycles(value, arch) == parallel.cycles(value, arch)
