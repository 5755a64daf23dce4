"""Process-parallel, cache-aware experiment runner.

The paper's evaluation is an embarrassingly parallel matrix — three
architectures x seven workloads x two CPU models, plus ablation sweeps
— and every point is an independent simulation. This module turns that
observation into infrastructure: :class:`Job` (one simulation as
picklable plain data), :class:`Runner` (a batch over a process pool, or
serially in process with bit-identical results), :class:`ResultCache`
(finished results in the content-addressed :mod:`repro.core.store` —
also a batch's completion record: ``python -m repro reproduce`` run
again after a kill simulates only what had not been published),
:class:`RunnerSession` (the warm pool and the one completion decision
the ``repro serve`` scheduler shares) and :class:`RunReport` (per-job
wall times, cache counts, worker utilization).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import signal
import threading
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import repro
from repro.core.configs import CpuParams, config_for_scale
from repro.core.experiment import ExperimentResult, WorkloadFactory
from repro.core.store import (
    ArtifactStore,
    address,
    counted,
    default_cache_dir,
)
from repro.core.system import System
from repro.errors import ArtifactMiss, ConfigError, JobTimeoutError
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import (
    Topology,
    get_preset,
    natural_cpus,
    resolve_topology,
)
from repro.obs import bus as obs_bus


#: what an omitted ``max_cycles`` means: a safety cap no test- or
#: bench-scale run reaches (``None`` is uncapped)
MAX_CYCLES = 50_000_000


def default_jobs() -> int:
    """Worker-count default: every core the host offers."""
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Job specification


@dataclass
class Job:
    """One simulation, described by value.

    ``workload`` is normally a registry name (a key of
    :data:`repro.workloads.WORKLOADS`, extendable via
    :func:`register_workload`); the factory is looked up *in the worker
    process*, so the spec pickles as plain data, and ``workload_args``
    are the keywords it is called with — a parameterised workload
    (``synthetic`` at a sharing fraction, ``eqntott`` at a vector
    length) described by value, part of :meth:`spec`. A factory
    callable is also accepted for ad-hoc workloads (tests, notebooks) —
    it must be picklable (module-level) to run under ``jobs > 1``, and
    such jobs hash by the callable's qualified name; one without a
    module-level name (a closure, a ``functools.partial``) has no
    identity to hash and is never cached (:attr:`cacheable`).

    ``overrides`` are :class:`~repro.mem.hierarchy.MemConfig` field
    overrides, applied on the worker via
    :meth:`~repro.mem.hierarchy.MemConfig.with_overrides` so they are
    re-validated like constructor arguments.

    ``obs_sample`` > 0 attaches observability with that sampling
    interval; the rollup travels back in ``extras["obs"]`` (and through
    the cache — the interval is part of the spec, so observed and
    unobserved runs never share an entry).

    ``replay=True`` routes the job down the trace-replay lane
    (:mod:`repro.trace.backend`): the workload's reference stream is
    recorded once on the fixed reference machine (automatically, into
    the :class:`~repro.trace.store.TraceStore` at ``trace_dir``) and
    re-simulated on this job's architecture/config instead of
    re-executing the generator program. Replayed statistics are a
    *different experiment* from generated ones (timing-dependent
    behaviour is frozen at recording time — see ``docs/REPLAY.md``),
    so ``replay`` is part of :meth:`spec`: a replayed run can never
    hit a generated run's cache entry or vice versa. ``trace_dir``,
    like the result-cache location, is policy and excluded.

    ``timeout_s``, ``ckpt_every`` and ``ckpt_dir`` are *execution
    policy*, not simulation inputs: they change how a run is babysat
    (wall-clock budget, periodic checkpointing for crash recovery), not
    what it computes, so they are excluded from :meth:`spec` and
    :meth:`key` — a checkpointed run shares its cache entry with a
    plain one. With ``ckpt_dir`` set, :meth:`run` automatically resumes
    from the job's latest checkpoint when one exists (a retry after a
    crash picks up mid-run instead of restarting from cycle 0).

    What an omitted field means is decided here and nowhere else, so
    the same description is the same simulation at every door (flags,
    the wire, Python): an omitted ``n_cpus`` is the preset's natural
    ``default_cpus`` (a :class:`~repro.mem.topology.Topology` object's
    own count), resolved at construction; an omitted ``max_cycles`` is
    :data:`MAX_CYCLES`, and an explicit ``None`` is uncapped.
    """

    arch: str | Topology
    workload: str | WorkloadFactory
    cpu_model: str = "mipsy"
    scale: str = "test"
    n_cpus: int | None = None
    overrides: dict = field(default_factory=dict)
    cpu_params: CpuParams | None = None
    max_cycles: int | None = MAX_CYCLES
    obs_sample: int = 0
    replay: bool = False
    timeout_s: float = 0.0
    ckpt_every: int = 0
    ckpt_dir: str | None = None
    trace_dir: str | None = None
    workload_args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_cpus is None:
            self.n_cpus = natural_cpus(self.arch)

    @property
    def cacheable(self) -> bool:
        """Whether :meth:`key` names this simulation and no other: the
        workload is a registry name or a module-level callable. Two
        closures share a qualified name and a partial's ``repr`` holds
        a memory address, so neither may meet a :class:`ResultCache`."""
        workload = self.workload
        return isinstance(workload, str) or "<" not in getattr(
            workload, "__qualname__", "<"
        )

    def workload_key(self) -> str:
        """Stable identity of the workload for hashing and display."""
        if isinstance(self.workload, str):
            return self.workload
        qualname = getattr(self.workload, "__qualname__", None)
        module = getattr(self.workload, "__module__", "?")
        return f"{module}.{qualname or self.workload!r}"

    def resolve_factory(self) -> WorkloadFactory:
        """The workload factory this job runs (registry lookup), with
        ``workload_args`` bound."""
        factory = self.workload
        if isinstance(factory, str):
            from repro.workloads import WORKLOADS

            registry = {**WORKLOADS, **_EXTRA_WORKLOADS}
            try:
                factory = registry[factory]
            except KeyError:
                raise ConfigError(
                    f"unknown workload {self.workload!r}; expected one "
                    f"of {sorted(registry)}"
                ) from None
        if self.workload_args:
            return functools.partial(factory, **self.workload_args)
        return factory

    def label(self) -> str:
        """Short human-readable description for progress lines."""
        text = f"{self.workload_key()}/{self.arch}/{self.cpu_model}"
        if self.replay:
            text += " (replay)"
        for settings in (self.workload_args, self.overrides):
            if settings:
                text += " " + ",".join(
                    f"{key}={value}"
                    for key, value in sorted(settings.items())
                )
        return text

    def mem_config(self):
        """The scaled ``MemConfig`` with this job's overrides applied."""
        config = config_for_scale(self.scale, self.n_cpus)
        if self.overrides:
            config = config.with_overrides(**self.overrides)
        return config

    def resolve_topology(self):
        """The concrete :class:`~repro.mem.topology.Topology` this job
        simulates (preset resolved against the scaled config)."""
        return resolve_topology(self.arch, self.mem_config())

    def spec(self) -> dict:
        """The canonical JSON-serializable description of this job.

        The resolved topology is part of the spec: a 16-core
        ``cluster-l1`` run and a 4-core one describe different
        machines, so they can never share a cache entry even though
        the preset name matches.
        """
        topology = self.resolve_topology()
        return {
            "arch": topology.name,
            "topology": topology.to_dict(),
            "workload": self.workload_key(),
            "workload_args": {
                key: self.workload_args[key]
                for key in sorted(self.workload_args)
            },
            "cpu_model": self.cpu_model,
            "scale": self.scale,
            "n_cpus": self.n_cpus,
            "overrides": {
                key: self.overrides[key] for key in sorted(self.overrides)
            },
            "cpu_params": (
                dataclasses.asdict(self.cpu_params)
                if self.cpu_params is not None
                else None
            ),
            "max_cycles": self.max_cycles,
            "obs_sample": self.obs_sample,
            # Replayed and generated runs are different experiments
            # and must never share a cache entry.
            "backend": "replay" if self.replay else "interpreter",
        }

    def key(self) -> str:
        """Content address: SHA-256 over the spec + code fingerprint.

        Resolved once per distinct job: equal-by-value jobs share one
        :func:`_address_of` entry, whichever door they came in by, so
        a re-submitted sweep does not rebuild a ``MemConfig`` and a
        ``Topology`` per request only to hash them again. Every field
        :meth:`spec` reads is read on every call — nothing is kept on
        the (mutable) instance — and a job with an unhashable field is
        simply computed.
        """
        arch = self.arch
        overrides = self.overrides
        try:
            return _address_of(
                # the registered preset itself, so that re-registering
                # a name is a new identity
                get_preset(arch) if isinstance(arch, str) else None,
                arch,
                self.workload_key(),
                self.cpu_model,
                self.scale,
                self.n_cpus,
                self.cpu_params,
                self.max_cycles,
                self.obs_sample,
                self.replay,
                len(overrides),
                *itertools.chain.from_iterable(
                    sorted(overrides.items())
                    + sorted(self.workload_args.items())
                ),
            )
        except TypeError:
            return address(self.spec())

    def run(
        self,
        obs: "ObsConfig | None" = None,
        resume_from: str | None = None,
    ) -> ExperimentResult:
        """Execute this job in the current process.

        ``obs`` overrides the observability configuration (the CLI's
        in-process ``--events`` path, which needs an output file the
        picklable spec cannot carry); by default ``obs_sample`` > 0
        enables sampling-only observability. ``resume_from`` names an
        explicit checkpoint digest to restore before running; without
        it, a job with ``ckpt_dir`` resumes from its latest checkpoint
        automatically when one exists.
        """
        config = self.mem_config()
        if obs is None and self.obs_sample > 0:
            from repro.obs import ObsConfig

            obs = ObsConfig(sample_interval=self.obs_sample)
        if self.ckpt_dir and resume_from is None:
            from repro.ckpt import CheckpointStore

            resume_from = CheckpointStore(self.ckpt_dir).latest(self.key())
        if self.replay:
            from repro.trace.backend import run_replay

            return run_replay(
                self, config, obs=obs, resume_from=resume_from
            )
        return self.run_factory(
            self.resolve_factory(), config, obs, resume_from
        )

    def build(
        self, obs: "ObsConfig | None" = None, checkpointing: bool = False
    ):
        """This job's machine, built and not yet run — for the caller
        that needs the live :class:`~repro.core.system.System` (a
        snapshot at a chosen cycle, an observation's full series) where
        :meth:`run` returns the result record. A replayed job's machine
        runs its recorded trace (recorded first on a miss)."""
        if self.replay:
            from repro.trace.backend import resolve_trace, trace_factory

            factory = trace_factory(resolve_trace(self)[1])
        else:
            factory = self.resolve_factory()
        return self._system(factory, self.mem_config(), obs, checkpointing)

    def _system(self, factory, config, obs, checkpointing) -> System:
        """The one place a job becomes a machine: a fresh functional
        memory, ``factory``'s workload built on it, and the
        :class:`~repro.core.system.System` around them."""
        return System(
            self.arch,
            factory(self.n_cpus, FunctionalMemory(), self.scale),
            mem_config=config,
            cpu_model=self.cpu_model,
            cpu_params=self.cpu_params,
            max_cycles=self.max_cycles,
            obs=obs,
            checkpointing=checkpointing,
        )

    def run_factory(self, factory, config, obs, resume_from):
        """Build this job's machine around ``factory`` and ``config``
        and run it under this job's execution policy; returns the
        result record. :meth:`run` comes through here, and so does the
        replay lane with its trace workload.

        With ``obs`` set the run carries an attached
        :class:`~repro.obs.observe.Observation`; its rollup lands in
        ``extras["obs"]`` and, when ``obs.events_path`` is set, the
        event timeline is written there as Chrome/Perfetto trace JSON.

        With ``ckpt_dir`` set, ``ckpt_every`` > 0 pauses the run at
        every multiple of that cycle count and snapshots it into the
        :class:`~repro.ckpt.CheckpointStore` there (updating this job's
        latest pointer, so a killed run is picked up where it left
        off); ``resume_from`` restores the named checkpoint digest from
        the same store before running. Checkpointed and resumed runs
        produce bit-identical statistics to uninterrupted ones — see
        ``docs/CHECKPOINTING.md``. Checkpoint progress lands in
        ``extras["checkpoint"]``.
        """
        every = self.ckpt_every if self.ckpt_dir else 0
        checkpointing = bool(every) or resume_from is not None
        if checkpointing and self.ckpt_dir is None:
            raise ConfigError("resume_from requires ckpt_dir")
        system = self._system(factory, config, obs, checkpointing)
        workload = system.workload
        started = time.perf_counter()
        if checkpointing:
            stats, ckpt_extras = _run_checkpointed(
                system, every, self.ckpt_dir, self.key(), resume_from,
                extra_meta={"scale": self.scale},
            )
        else:
            stats = system.run()
            ckpt_extras = None
        elapsed = time.perf_counter() - started
        extras = {
            "resources": system.memory.resource_report(max(stats.cycles, 1)),
            "truncated": system.truncated,
            "sync": workload.sync_report(),
            # Host-side only: like "checkpoint", not among the keys
            # to_dict() carries into payloads, caches or the wire.
            "spin": system.spin_report(),
            "generation": workload.generation_report(),
        }
        if ckpt_extras is not None:
            extras["checkpoint"] = ckpt_extras
        if system.obs is not None:
            extras["obs"] = system.obs.rollup()
            if obs.events_path:
                system.obs.write_events(
                    obs.events_path,
                    label=f"{workload.name}/{self.arch}/{self.cpu_model}",
                )
        return ExperimentResult(
            arch=self.arch,
            workload=workload.name,
            cpu_model=self.cpu_model,
            scale=self.scale,
            stats=stats,
            wall_seconds=elapsed,
            extras=extras,
        )


def _run_checkpointed(
    system: System,
    every: int,
    ckpt_dir: str,
    key: str,
    resume_from: str | None,
    extra_meta: dict,
) -> tuple:
    """Drive ``system`` in checkpoint-sized segments; returns its stats
    and the ``extras["checkpoint"]`` record.

    The run pauses at every multiple of ``every`` cycles (aligned to
    absolute cycle numbers, so a resumed run checkpoints at the same
    boundaries an uninterrupted one would), snapshots, and continues.
    On completion the ``key`` latest pointer is cleared — a finished
    job never resumes.
    """
    from repro.ckpt import CheckpointStore, restore_system, snapshot_system

    store = CheckpointStore(ckpt_dir)
    last_digest = None
    if resume_from is not None:
        restore_system(system, store.load(resume_from))
        last_digest = resume_from
    saved = 0
    while True:
        if every:
            pause_at = (system._cycle // every + 1) * every
            stats = system.run(pause_at=pause_at)
        else:
            stats = system.run()
        if not system.paused:
            break
        state = snapshot_system(system, extra_meta=extra_meta)
        last_digest = store.save(state, key=key)
        saved += 1
    store.clear_latest(key)
    return stats, {
        "every": every,
        "saved": saved,
        "resumed_from": resume_from,
        "last_digest": last_digest,
    }


def job_grid(
    base: Job,
    archs: Sequence[str],
    n_cpus: int | None | Sequence[int] = None,
    overrides: Sequence[dict] = ({},),
) -> list[Job]:
    """``base`` over a grid of machines, row-major: override sets
    outermost, then CPU counts, then topologies — the order every table
    builder zips its results back in. ``n_cpus=None`` is each preset's
    own ``default_cpus`` (``Job``'s own meaning of an omitted count);
    an override set is laid over ``base.overrides``."""
    counts = n_cpus if isinstance(n_cpus, (list, tuple)) else (n_cpus,)
    return [
        dataclasses.replace(
            base,
            arch=arch,
            n_cpus=count,
            overrides={**base.overrides, **extra},
        )
        for extra in overrides
        for count in counts
        for arch in archs
    ]


#: Distinct jobs :func:`_address_of` remembers: a few figure
#: sweeps' worth; beyond it the least recently asked-for is recomputed.
KEY_MEMO_SIZE = 256


@functools.lru_cache(maxsize=KEY_MEMO_SIZE, typed=True)
def _address_of(
    preset, arch, workload, cpu_model, scale, n_cpus, cpu_params,
    max_cycles, obs_sample, replay, n_overrides, *settings,
) -> str:
    """``address(spec())`` of the job these fields describe (the memo
    behind :meth:`Job.key`). ``typed``, because ``4`` and ``4.0`` are
    equal as arguments and different text in a spec; ``preset`` is only
    there to tell two registrations of one name apart. ``settings`` is
    the ``n_overrides`` override items, then the workload arguments,
    each flattened to ``name, value``."""
    del preset
    items = list(zip(settings[::2], settings[1::2]))
    job = Job(
        arch, workload, cpu_model, scale, n_cpus,
        dict(items[:n_overrides]),
        cpu_params, max_cycles, obs_sample, replay,
        workload_args=dict(items[n_overrides:]),
    )
    return address(job.spec())


#: Extra workload factories registered at runtime (examples, tests).
_EXTRA_WORKLOADS: dict[str, WorkloadFactory] = {}


def register_workload(name: str, factory: WorkloadFactory) -> None:
    """Register a workload factory under ``name`` for job lookup.

    Lets custom workloads participate in the runner by name. Note that
    registration is per-process: under ``jobs > 1`` the worker resolves
    names against the static registry only, so parallel runs of a
    custom workload should pass the (picklable) factory itself.
    """
    if not name or not isinstance(name, str):
        raise ConfigError("workload name must be a non-empty string")
    _EXTRA_WORKLOADS[name] = factory


#: pids that have announced themselves on the bus (one spawn event per
#: worker process lifetime, however many jobs it executes)
_ANNOUNCED_PIDS: set[int] = set()


def _execute_job(
    job: Job,
    handle: "obs_bus.BusHandle | None" = None,
    attempt: int = 1,
    tag: str | None = None,
) -> ExperimentResult:
    """Module-level trampoline so the pool can pickle the call.

    With a bus ``handle`` (a picklable manager-queue proxy), the worker
    installs it as the process-current emitter — so store-level hooks
    (checkpoint saves, trace records) flow without plumbing — announces
    itself on first use, and brackets the execution in ``job.start`` /
    ``job.finish`` (or ``job.timeout`` / ``job.fail``). Emission is a
    synchronous RPC into the manager process, so everything emitted
    before a SIGKILL survives the worker.

    ``tag`` is an opaque caller identity (the service layer's job id)
    stamped onto every lifecycle event, so a consumer that knows only
    the tag can follow this execution without parsing labels (two
    distinct specs can share a label; tags are unique).
    """
    if handle is None:
        return _run_with_timeout(job)
    obs_bus.set_current(handle)
    pid = os.getpid()
    if pid != handle.parent_pid and pid not in _ANNOUNCED_PIDS:
        _ANNOUNCED_PIDS.add(pid)
        handle.emit("worker.spawn")
    label = job.label()
    extra = {} if tag is None else {"tag": tag}
    handle.emit("job.start", job=label, attempt=attempt, **extra)
    started = time.perf_counter()
    try:
        result = _run_with_timeout(job)
    except Exception as error:
        timed_out, text = _classify(error)
        handle.emit(
            "job.timeout" if timed_out else "job.fail",
            job=label,
            attempt=attempt,
            error=text,
            **extra,
        )
        raise
    handle.emit(
        "job.finish",
        job=label,
        attempt=attempt,
        wall_seconds=time.perf_counter() - started,
        cycles=result.stats.cycles,
        **extra,
    )
    return result


def _classify(error: Exception) -> tuple[bool, str]:
    """``(timed_out, text)`` of a failed execution: a blown budget
    speaks for itself, anything else is named by its type."""
    if isinstance(error, JobTimeoutError):
        return True, str(error)
    return False, f"{type(error).__name__}: {error}"


def _run_with_timeout(job: Job) -> ExperimentResult:
    """Run ``job``, enforcing its wall-clock budget when one is set.

    The budget is enforced with ``SIGALRM`` (an interval timer raising
    :class:`~repro.errors.JobTimeoutError` inside the running
    simulation), which only works on the main thread of a POSIX
    process. Elsewhere the job still runs, unbudgeted, and says so: a
    ``RuntimeWarning`` and a ``job.unbudgeted`` bus event.
    The previous handler and timer are restored on every exit path, so
    nesting and reuse of the worker process are safe.
    """
    timeout = job.timeout_s
    if not timeout:
        return job.run()
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        label = job.label()
        warnings.warn(
            f"job {label} runs without its {timeout:g}s budget: SIGALRM "
            "is only delivered to the main thread of a POSIX process",
            RuntimeWarning,
            stacklevel=2,
        )
        obs_bus.emit("job.unbudgeted", job=label, timeout_s=timeout)
        return job.run()

    def _expired(signum, frame):
        raise JobTimeoutError(
            f"job {job.label()} exceeded its {timeout:g}s budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return job.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# On-disk result cache


class ResultCache(ArtifactStore):
    """Content-addressed store of :class:`ExperimentResult` payloads.

    ``<root>/<key[:2]>/<key>.json`` where ``key`` is :meth:`Job.key`;
    each file holds the job spec (for debuggability), the result's
    :meth:`~ExperimentResult.to_dict` dump and a SHA-256 of both, and
    this facade's own check is that an entry claims the address it is
    filed under and its hash. Counted as ``hits``/``misses``/``stores``
    plus bytes moved (``RunReport.to_dict()["result_cache"]``) and,
    with a batch bus current, emitted as ``cache.*`` events.
    """

    kind = "cache"
    suffix = ".json"
    default_root = staticmethod(default_cache_dir)

    hits = counted("hits")
    misses = counted("misses")
    stores = counted("stores")

    @staticmethod
    def _digest(entry: dict) -> str:
        """SHA-256 of an entry (less its own ``sha256`` field): JSON
        survives a flipped digit, so parsing alone proves nothing."""
        text = json.dumps(entry, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def path_for(self, job: Job) -> Path:
        """Where ``job``'s result lives (whether or not it exists)."""
        return self.path(job.key())

    def get(self, job: Job) -> ExperimentResult | None:
        """The cached result for ``job``, or ``None`` on a miss — which
        a job that is not :attr:`~Job.cacheable` always is."""
        if not job.cacheable:
            self.count("misses")
            return None
        key = job.key()

        def check(data: bytes):
            payload = json.loads(data)
            claimed = payload.pop("sha256")
            if payload["key"] != key or claimed != self._digest(payload):
                raise ValueError("not the entry filed under this address")
            return ExperimentResult.from_dict(payload["result"]), len(data)

        try:
            result, size = self.read(self.path(key), check)
        except ArtifactMiss as miss:
            self.count("misses")
            obs_bus.emit("cache.miss", key=key, corrupt=miss.corrupt)
            return None
        self.count("hits")
        self.count("bytes_read", size)
        obs_bus.emit("cache.hit", key=key, bytes=size)
        return result

    def put(self, job: Job, result: ExperimentResult) -> None:
        """Store ``result`` under ``job``'s content address (nothing,
        for a job that is not :attr:`~Job.cacheable`)."""
        if not job.cacheable:
            return
        spec = job.spec()
        key = address(spec)
        entry = {
            "key": key,
            "spec": spec,
            "version": repro.__version__,
            "result": result.to_dict(),
        }
        entry["sha256"] = self._digest(entry)
        text = json.dumps(entry, sort_keys=True)
        self.publish(self.path(key), text)
        self.count("stores")
        self.count("bytes_written", len(text))
        obs_bus.emit("cache.store", key=key, bytes=len(text))


# ----------------------------------------------------------------------
# Runner and telemetry


@dataclass
class JobOutcome:
    """One job's result plus how it was obtained.

    ``result`` is ``None`` when the job failed: ``timed_out`` marks a
    blown wall-clock budget, ``quarantined`` a job whose workers kept
    dying, ``error`` carries the failure text. ``attempts`` counts
    executions including retries after crashes.
    """

    job: Job
    result: ExperimentResult | None
    cached: bool = False
    wall_seconds: float = 0.0       # execution time *this* run (0 on hit)
    error: str | None = None
    timed_out: bool = False
    attempts: int = 1
    quarantined: bool = False

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass
class RunReport:
    """Telemetry for one :meth:`Runner.run` batch.

    ``outcomes`` preserves submission order regardless of completion
    order, so callers can zip it back against their job list.
    """

    outcomes: list[JobOutcome] = field(default_factory=list)
    workers: int = 1
    total_wall: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    worker_crashes: int = 0
    #: ResultCache counter snapshot (hits/misses/stores/evictions/bytes)
    #: when the batch ran with a cache attached
    cache_stats: dict | None = None
    #: event-bus rollup (event counts by kind, worker count, log path)
    #: when the batch ran with telemetry on
    telemetry: dict | None = None

    @property
    def results(self) -> list[ExperimentResult]:
        return [
            outcome.result
            for outcome in self.outcomes
            if outcome.result is not None
        ]

    @property
    def failures(self) -> list[JobOutcome]:
        """Outcomes that produced no result (errors and timeouts)."""
        return [o for o in self.outcomes if o.result is None]

    @property
    def busy_seconds(self) -> float:
        """Total simulation time across all workers."""
        return sum(outcome.wall_seconds for outcome in self.outcomes)

    def utilization(self) -> float:
        """Busy fraction of the worker pool over the batch wall time."""
        if self.total_wall <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.total_wall))

    def summary(self) -> str:
        """One-line account of the batch for logs and the CLI."""
        executed = len(self.outcomes) - self.cache_hits
        parts = [
            f"{len(self.outcomes)} job(s) in {self.total_wall:.1f}s "
            f"on {self.workers} worker(s)"
        ]
        parts.append(f"{executed} run, {self.cache_hits} cached")
        failed = self.failures
        if failed:
            timeouts = sum(1 for o in failed if o.timed_out)
            parts.append(f"{len(failed)} failed ({timeouts} timed out)")
        if self.worker_crashes:
            parts.append(f"{self.worker_crashes} worker crash(es)")
        if executed:
            parts.append(f"{100 * self.utilization():.0f}% utilization")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON-serializable account of the batch (sweeps, dashboards)."""
        per_job = []
        for outcome in self.outcomes:
            result = outcome.result
            entry = {
                "label": outcome.job.label(),
                "backend": (
                    "replay" if outcome.job.replay else "interpreter"
                ),
                "wall_seconds": outcome.wall_seconds,
                "cached": outcome.cached,
                "cycles": result.stats.cycles if result else None,
                "error": outcome.error,
                "timed_out": outcome.timed_out,
                "attempts": outcome.attempts,
            }
            obs = result.extras.get("obs") if result is not None else None
            if obs:
                # Sampled-utilization rollup for observed jobs (mean /
                # max per series; the series themselves stay in the
                # result's extras).
                entry["obs"] = {
                    "sample_interval": obs.get("sample_interval"),
                    "samples": obs.get("samples"),
                    "utilization": obs.get("utilization", {}),
                }
            per_job.append(entry)
        out = {
            "jobs": len(self.outcomes),
            "workers": self.workers,
            "total_wall": self.total_wall,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failures": len(self.failures),
            "worker_crashes": self.worker_crashes,
            "per_job": per_job,
        }
        if self.cache_stats is not None:
            out["result_cache"] = dict(self.cache_stats)
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out


class Runner:
    """Executes :class:`Job` batches, in-process or over a process pool.

    ``jobs`` is the worker count (default: all cores). ``jobs=1`` runs
    every job serially in the calling process — no pickling, easy
    breakpoints — and is guaranteed to produce the same statistics as
    the parallel path (the simulations are deterministic and share no
    state).

    ``cache`` is an optional :class:`ResultCache`; pass one to make
    re-runs of unchanged jobs instant. The library default is *no*
    caching — the CLI and scripts opt in explicitly.

    ``progress`` is an optional callable receiving one line per job
    event (completion, cache hit, failure, or worker crash).

    A cache is also what makes a batch resumable: every success is
    published as it lands, so re-running a killed batch against the
    same cache simulates only what had not finished.

    Fault tolerance is :meth:`RunnerSession.settle`, shared with the
    ``repro serve`` scheduler: a worker killed mid-job (OOM killer,
    node preemption) costs a pool rebuild and a retry — from the job's
    last checkpoint when ``ckpt_dir`` is set — up to ``max_retries``
    times, then quarantine; a timeout or an exception is a failed
    :class:`JobOutcome`, so the rest of the batch completes (the serial
    path re-raises exceptions other than timeouts: the historical,
    debugging-friendly contract). A finished simulation is delivered
    whether or not the cache could take it (:meth:`_publish`).

    ``bus`` is an optional started :class:`~repro.obs.bus.EventBus`:
    with one attached, the batch emits the fleet event stream (job,
    worker and pool lifecycle, ``cache.*``/``ckpt.*``/``trace.*`` from
    the stores) and the report carries its rollup. Without one — the
    default — not a single event object is constructed.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: Callable[[str], None] | None = None,
        max_retries: int = 2,
        bus: "obs_bus.EventBus | None" = None,
    ) -> None:
        requested = default_jobs() if jobs is None else jobs
        if requested < 1:
            raise ConfigError("runner needs at least one worker")
        if max_retries < 0:
            raise ConfigError("max_retries cannot be negative")
        self.n_jobs = requested
        self.cache = cache
        self.progress = progress
        self.max_retries = max_retries
        self.bus = bus
        self.last_report: RunReport | None = None

    def _tick(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def summary(self) -> str:
        """One-line account of the last batch, with cache counters."""
        if self.last_report is None:
            return "no batch has run"
        text = self.last_report.summary()
        if self.cache is not None:
            text += (
                f"; result cache: {self.cache.hits} hit(s), "
                f"{self.cache.misses} miss(es), "
                f"{self.cache.stores} store(s)"
            )
            if self.cache.publish_errors:
                text += f", {self.cache.publish_errors} publish error(s)"
        return text

    def session(self) -> "RunnerSession":
        """Open a warm pool for incremental submission — what a
        long-lived caller (the ``repro serve`` daemon) uses instead of
        the closed-batch :meth:`run`. See :class:`RunnerSession`."""
        return RunnerSession(self)

    def run(self, batch: Sequence[Job]) -> RunReport:
        """Execute ``batch``; returns outcomes in submission order."""
        batch = list(batch)
        handle = self.bus.handle() if self.bus is not None else None
        previous_handle = None
        if handle is not None:
            # Current-handle for the parent process: store hooks that
            # fire here (cache gets and puts) reach the bus unplumbed.
            previous_handle = obs_bus.set_current(handle)
            handle.emit("batch.start", jobs=len(batch))
        report: RunReport | None = None
        try:
            report = self._run_batch(batch, handle)
        finally:
            if handle is not None:
                fields = {"jobs": len(batch)}
                if report is not None:
                    fields["failures"] = len(report.failures)
                handle.emit("batch.end", **fields)
                self.bus.flush()
                obs_bus.set_current(previous_handle)
        if self.bus is not None:
            report.telemetry = self.bus.rollup()
        return report

    def _run_batch(
        self,
        batch: list[Job],
        handle: "obs_bus.BusHandle | None",
    ) -> RunReport:
        started = time.perf_counter()
        outcomes: list[JobOutcome | None] = [None] * len(batch)

        pending: list[tuple[int, Job]] = []
        for index, job in enumerate(batch):
            cached = self.cache.get(job) if self.cache else None
            if cached is None:
                pending.append((index, job))
                continue
            outcomes[index] = JobOutcome(job, cached, cached=True)
            if handle is not None:
                handle.emit("job.cached", job=job.label(), source="cache")
            self._tick(f"[cache] {job.label()}")
        hits = len(batch) - len(pending)

        workers = min(self.n_jobs, len(pending)) if pending else 1
        crashes = 0
        if workers <= 1:
            for index, job in pending:
                try:
                    result = _execute_job(job, handle)
                except JobTimeoutError as error:
                    outcomes[index] = self._fail(job, error)
                else:
                    outcomes[index] = self._deliver(job, result)
        else:
            crashes = self._run_session(pending, outcomes)

        report = RunReport(
            outcomes=[outcome for outcome in outcomes if outcome is not None],
            workers=workers,
            total_wall=time.perf_counter() - started,
            cache_hits=hits,
            cache_misses=len(pending) if self.cache else 0,
            worker_crashes=crashes,
            cache_stats=self.cache.stats() if self.cache else None,
        )
        self.last_report = report
        return report

    def _run_session(
        self,
        pending: list[tuple[int, Job]],
        outcomes: list[JobOutcome | None],
    ) -> int:
        """Parallel execution; returns the crash count. Everything is
        submitted up front, each future that lands is settled, and a
        job settled as "retry" goes back into the (rebuilt) pool."""
        session = self.session()
        inflight: dict[Future, tuple[int, Job, int, int]] = {}

        def submit(index: int, job: Job, attempt: int) -> None:
            future, generation = session.submit(job, attempt)
            inflight[future] = (index, job, generation, attempt)

        try:
            for index, job in pending:
                submit(index, job, 1)
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                for future in done:
                    index, job, generation, attempt = inflight.pop(future)
                    outcome = session.settle(
                        job, future, generation, attempt
                    )
                    if outcome is None:
                        submit(index, job, attempt + 1)
                    else:
                        outcomes[index] = outcome
            return session.generation  # one rebuild per crash
        finally:
            session.close()

    def _publish(self, job: Job, result: ExperimentResult) -> None:
        """Put ``result`` into the cache. A failure (full disk,
        read-only root) costs the entry, never the finished simulation:
        counted by the store, ``cache.error`` on the bus, and the
        caller delivers the result regardless."""
        try:
            self.cache.put(job, result)
        except OSError as error:
            sink = type(self.cache).__name__
            text = _classify(error)[1]
            obs_bus.emit(
                "cache.error", job=job.label(), sink=sink, error=text
            )
            self._tick(f"[publish failed] {job.label()}: {sink}: {text}")

    def _deliver(
        self,
        job: Job,
        result: ExperimentResult,
        attempts: int = 1,
        publish: bool = True,
    ) -> JobOutcome:
        """Publish, then deliver: the success half of every dispatch."""
        if publish and self.cache is not None:
            self._publish(job, result)
        self._tick(f"[{result.wall_seconds:5.1f}s] {job.label()}")
        return JobOutcome(
            job,
            result,
            wall_seconds=result.wall_seconds,
            attempts=attempts,
        )

    def _fail(
        self,
        job: Job,
        error: Exception | str,
        attempts: int = 1,
        quarantined: bool = False,
    ) -> JobOutcome:
        """The failure half: an exception is classified, a string
        (quarantine) is taken as given."""
        timed_out, text = (
            (False, error) if isinstance(error, str) else _classify(error)
        )
        self._tick(
            f"[{'timeout' if timed_out else 'failed'}] {job.label()}: {text}"
        )
        return JobOutcome(
            job,
            None,
            error=text,
            timed_out=timed_out,
            attempts=attempts,
            quarantined=quarantined,
        )


class RunnerSession:
    """Persistent warm worker pool with an incremental submit API.

    A session keeps the ``ProcessPoolExecutor`` alive across any
    number of submissions: :meth:`Runner.run` opens one per parallel
    batch, the simulation service holds one as its warm pool.
    ``submit`` returns a ``Future`` plus the pool *generation* it was
    submitted against; when the future is done the caller passes both
    to :meth:`settle`, the one place that decides what it means.

    A SIGKILLed worker breaks the whole executor, failing every
    in-flight future with ``BrokenProcessPool``; the first of them to
    be settled replaces the pool (:meth:`rebuild` succeeds once per
    generation), the rest find a healthy pool to be resubmitted into.
    With a bus on the runner, jobs emit the batch lifecycle events.
    """

    def __init__(self, runner: "Runner") -> None:
        self.runner = runner
        self._handle = (
            runner.bus.handle() if runner.bus is not None else None
        )
        self._lock = threading.Lock()
        # workers are forked by the first submit, not here
        self._pool = ProcessPoolExecutor(max_workers=runner.n_jobs)
        self._generation = 0
        self._closed = False

    @property
    def generation(self) -> int:
        """Monotonic pool incarnation (bumped by every rebuild)."""
        with self._lock:
            return self._generation

    def submit(
        self,
        job: Job,
        attempt: int = 1,
        tag: str | None = None,
    ) -> tuple[Future, int]:
        """Queue ``job`` on the warm pool; returns ``(future,
        generation)``, both of which :meth:`settle` wants back.
        ``attempt`` and ``tag`` are forwarded to the telemetry events."""
        with self._lock:
            if self._closed:
                raise RuntimeError("RunnerSession is closed")
            try:
                future = self._pool.submit(
                    _execute_job, job, self._handle, attempt, tag
                )
            except BrokenProcessPool:
                # The pool broke since the last collect; replace it and
                # submit into the fresh one.
                self._rebuild_locked()
                future = self._pool.submit(
                    _execute_job, job, self._handle, attempt, tag
                )
            return future, self._generation

    def settle(
        self,
        job: Job,
        future: Future,
        generation: int,
        attempt: int,
        tag: str | None = None,
        discard: bool = False,
    ) -> JobOutcome | None:
        """What the finished ``future`` of ``job``'s ``attempt`` means.

        Decided here once, for the batch runner and the service
        scheduler alike. A dead worker (``BrokenProcessPool``) rebuilds
        the pool, once per generation, and returns ``None`` — resubmit
        as attempt + 1 — or, past ``max_retries``, a quarantined
        outcome. A blown budget or any other exception is terminal. A
        result is published, then delivered; ``discard`` (a client
        withdrew) skips the publish. ``tag`` rides on the events.
        """
        runner = self.runner
        extra = {} if tag is None else {"tag": tag}
        try:
            result = future.result()
        except BrokenProcessPool:
            if self.rebuild(generation):
                # Drain what the dead pool's workers emitted first.
                if runner.bus is not None:
                    runner.bus.flush()
                self._emit("worker.death", crashes=self.generation, **extra)
                self._emit(
                    "pool.rebuild", generation=self.generation, **extra
                )
            label = job.label()
            if attempt <= runner.max_retries:
                self._emit("job.retry", job=label, attempt=attempt, **extra)
                runner._tick(f"[retry] {label}")
                return None
            self._emit(
                "job.quarantined", job=label, attempts=attempt, **extra
            )
            return runner._fail(
                job,
                f"quarantined after {attempt} crashed attempt(s)",
                attempt,
                quarantined=True,
            )
        except Exception as error:  # noqa: BLE001
            # A blown budget or a deterministic failure (bad config,
            # workload bug): a retry would only repeat it.
            return runner._fail(job, error, attempt)
        return runner._deliver(job, result, attempt, publish=not discard)

    def _emit(self, kind: str, **fields) -> None:
        if self._handle is not None:
            self._handle.emit(kind, **fields)

    def rebuild(self, generation: int) -> bool:
        """Replace the pool if ``generation`` is still current; returns
        whether this call did. A stale generation (another future of
        the broken pool was settled first) or a closed session: no."""
        with self._lock:
            if self._closed or generation != self._generation:
                return False
            self._rebuild_locked()
            return True

    def _rebuild_locked(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(max_workers=self.runner.n_jobs)
        self._generation += 1

    def pids(self) -> list[int]:
        """Live worker process ids (ops introspection, fault tests)."""
        with self._lock:
            return list(getattr(self._pool, "_processes", None) or {})

    def close(self, force: bool = False) -> None:
        """Shut the pool down. ``force=True`` SIGKILLs the workers
        instead of waiting for in-flight jobs — the daemon's hard
        shutdown, whose unfinished jobs go to the queue manifest and
        resume from their checkpoints on the next start."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if force:
            victims = list((getattr(pool, "_processes", None) or {}))
            pool.shutdown(wait=False, cancel_futures=True)
            for pid in victims:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        else:
            pool.shutdown(wait=True)


def run_jobs(batch: Sequence[Job], **runner_options) -> RunReport:
    """One-shot ``Runner(**runner_options).run(batch)``."""
    return Runner(**runner_options).run(batch)
