"""Experiment harness: run workloads across the architecture matrix.

This is how the paper's evaluation section is regenerated: one workload
run on each of the three architectures with the same inputs and scale,
then compared against the shared-memory baseline (Figures 4-10) or in
absolute IPC (Figure 11).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.configs import (
    ARCHITECTURES,
    CpuParams,
    config_for_scale,
)
from repro.core.system import System
from repro.errors import ConfigError
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemConfig
from repro.sim.stats import SystemStats
from repro.workloads.base import Workload

#: A workload factory: builds a fresh workload bound to a functional
#: memory, at a given scale.
WorkloadFactory = Callable[[int, FunctionalMemory, str], Workload]


@dataclass
class ExperimentResult:
    """One (architecture, workload, CPU model) simulation outcome."""

    arch: str
    workload: str
    cpu_model: str
    scale: str
    stats: SystemStats
    wall_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def machine_ipc(self) -> float:
        """Aggregate graduated instructions per machine cycle."""
        return self.stats.ipc

    @property
    def per_cpu_ipc(self) -> float:
        """Mean IPC per CPU (the paper's Figure 11 axis, ideal = 2)."""
        mxs_list = [m for m in self.stats.mxs if m.cycles]
        if not mxs_list:
            return 0.0
        return sum(m.ipc for m in mxs_list) / len(mxs_list)

    def to_dict(self) -> dict:
        """A JSON-serializable dump of this run.

        The top-level keys are the human-facing summary (aggregate
        breakdown, pooled miss rates, IPC) that tooling has always
        consumed; the ``stats`` key carries the complete
        :meth:`SystemStats.to_dict` state so :meth:`from_dict` can
        reconstruct an equivalent result — the round-trip the runner's
        on-disk cache and cross-process transport rely on.
        """
        breakdown = self.stats.aggregate_breakdown()
        l1 = self.stats.aggregate_caches(".l1d")
        l2 = self.stats.aggregate_caches(".l2")
        summary = {
            "arch": self.arch,
            "workload": self.workload,
            "cpu_model": self.cpu_model,
            "scale": self.scale,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "machine_ipc": self.machine_ipc,
            "breakdown": breakdown.as_dict(),
            "l1d": {
                "accesses": l1.accesses,
                "miss_rate_repl": l1.miss_rate_repl,
                "miss_rate_inval": l1.miss_rate_inval,
            },
            "l2": {
                "accesses": l2.accesses,
                "miss_rate_repl": l2.miss_rate_repl,
                "miss_rate_inval": l2.miss_rate_inval,
            },
            "wall_seconds": self.wall_seconds,
            "extras": {
                key: value
                for key, value in self.extras.items()
                if key
                in ("resources", "truncated", "sync", "obs", "backend", "replay")
            },
            "stats": self.stats.to_dict(),
        }
        if self.cpu_model == "mxs":
            summary["per_cpu_ipc"] = self.per_cpu_ipc
            summary["mxs"] = [
                {
                    "ipc": m.ipc,
                    "branches": m.branches,
                    "mispredicts": m.mispredicts,
                    "ipc_loss": m.ipc_loss(),
                }
                for m in self.stats.mxs
                if m.cycles
            ]
        return summary

    def to_json(self, **kwargs) -> str:
        """The :meth:`to_dict` summary, JSON-encoded."""
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from a :meth:`to_dict` payload.

        Only the identity fields and the full ``stats`` state are read;
        the summary keys are derived and recomputed on demand, so a
        round-tripped result reports byte-identical numbers.
        """
        return cls(
            arch=data["arch"],
            workload=data["workload"],
            cpu_model=data["cpu_model"],
            scale=data["scale"],
            stats=SystemStats.from_dict(data["stats"]),
            wall_seconds=data.get("wall_seconds", 0.0),
            extras=dict(data.get("extras", {})),
        )


def build_system(
    arch: str,
    factory: WorkloadFactory,
    scale: str = "test",
    n_cpus: int = 4,
    mem_config: MemConfig | None = None,
    **system_options,
) -> System:
    """The one place a job description becomes a machine: a fresh
    functional memory, the workload built on it at ``scale``, the
    scale's own ``mem_config`` unless one is given, and the
    :class:`System` around them (``system_options`` are its keywords:
    CPU model and parameters, cycle cap, observability,
    checkpointing). :func:`run_one` and
    :meth:`repro.core.runner.Job.build` both come through here."""
    workload = factory(n_cpus, FunctionalMemory(), scale)
    config = (
        mem_config
        if mem_config is not None
        else config_for_scale(scale, n_cpus)
    )
    return System(arch, workload, mem_config=config, **system_options)


def run_one(
    arch: str,
    factory: WorkloadFactory,
    cpu_model: str = "mipsy",
    scale: str = "test",
    n_cpus: int = 4,
    mem_config: MemConfig | None = None,
    cpu_params: CpuParams | None = None,
    max_cycles: int | None = None,
    obs: "ObsConfig | None" = None,
    checkpoint_every: int = 0,
    checkpoint_dir: str | None = None,
    checkpoint_key: str | None = None,
    resume_from: str | None = None,
) -> ExperimentResult:
    """Build and run one system; returns the result record.

    With ``obs`` set the run carries an attached
    :class:`~repro.obs.observe.Observation`; its rollup lands in
    ``extras["obs"]`` and, when ``obs.events_path`` is set, the event
    timeline is written there as Chrome/Perfetto trace JSON.

    ``checkpoint_every`` > 0 pauses the run at every multiple of that
    cycle count and snapshots it into the
    :class:`~repro.ckpt.CheckpointStore` at ``checkpoint_dir`` (updating
    the ``checkpoint_key`` latest pointer, if given, so a killed run can
    be picked up where it left off). ``resume_from`` restores the named
    checkpoint digest from the same store before running. Checkpointed
    and resumed runs produce bit-identical statistics to uninterrupted
    ones — see ``docs/CHECKPOINTING.md``. Checkpoint progress lands in
    ``extras["checkpoint"]``.
    """
    checkpointing = bool(checkpoint_every) or resume_from is not None
    if checkpointing and checkpoint_dir is None:
        raise ConfigError(
            "checkpoint_every/resume_from require checkpoint_dir"
        )
    system = build_system(
        arch,
        factory,
        scale,
        n_cpus,
        mem_config,
        cpu_model=cpu_model,
        cpu_params=cpu_params,
        max_cycles=max_cycles,
        obs=obs,
        checkpointing=checkpointing,
    )
    workload = system.workload
    started = time.perf_counter()
    if checkpointing:
        stats, ckpt_extras = _run_checkpointed(
            system,
            every=checkpoint_every,
            ckpt_dir=checkpoint_dir,
            key=checkpoint_key,
            resume_from=resume_from,
            extra_meta={"scale": scale},
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
                label=f"{workload.name}/{arch}/{cpu_model}",
            )
    return ExperimentResult(
        arch=arch,
        workload=workload.name,
        cpu_model=cpu_model,
        scale=scale,
        stats=stats,
        wall_seconds=elapsed,
        extras=extras,
    )


def _run_checkpointed(
    system: System,
    every: int,
    ckpt_dir: str,
    key: str | None,
    resume_from: str | None,
    extra_meta: dict | None = None,
) -> tuple[SystemStats, dict]:
    """Drive ``system`` in checkpoint-sized segments.

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
        state = store.load(resume_from)
        restore_system(system, state)
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
    if key is not None:
        store.clear_latest(key)
    return stats, {
        "every": every,
        "saved": saved,
        "resumed_from": resume_from,
        "last_digest": last_digest,
    }


def run_architecture_comparison(
    factory: WorkloadFactory | str,
    cpu_model: str = "mipsy",
    scale: str = "test",
    n_cpus: int | None = None,
    archs: tuple[str, ...] = ARCHITECTURES,
    cpu_params: CpuParams | None = None,
    max_cycles: int | None = None,
    mem_config_overrides: dict | None = None,
    jobs: int = 1,
    runner: "Runner | None" = None,
    obs_sample: int = 0,
) -> dict[str, ExperimentResult]:
    """Run one workload on every architecture; returns results by name.

    Each architecture gets a *fresh* workload instance (same parameters,
    same synthetic data seeding) and a fresh functional memory, exactly
    as the paper restarts each run from the same checkpoint.

    This is a thin batch submission on top of
    :class:`repro.core.runner.Runner`: one :class:`~repro.core.runner.Job`
    per architecture. ``jobs`` > 1 runs them in worker processes;
    pass ``runner`` to share a configured runner (result cache,
    progress hooks) across calls. ``factory`` may be a registry name
    (preferred — the spec then pickles as plain data) or a factory
    callable. ``n_cpus=None`` is each preset's own core count, so the
    jobs are the ones ``repro compare`` submits for the same flags.
    """
    # Imported here: runner is built on top of this module.
    from repro.core.runner import Job, Runner, job_grid

    if not archs:
        raise ConfigError("need at least one architecture")
    base = Job(
        archs[0], factory, cpu_model, scale,
        overrides=dict(mem_config_overrides or {}), cpu_params=cpu_params,
        max_cycles=max_cycles, obs_sample=obs_sample,
    )
    active = runner if runner is not None else Runner(jobs=jobs)
    report = active.run(job_grid(base, archs, n_cpus))
    return {
        outcome.job.arch: outcome.result for outcome in report.outcomes
    }
