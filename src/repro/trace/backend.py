"""Execute a replay-lane :class:`~repro.core.runner.Job`.

``Job(replay=True)`` lands here: resolve (or record) the job's trace
in the :class:`~repro.trace.store.TraceStore`, load its packed columns
(:func:`~repro.trace.kernel.load_packed`: memo, sidecar, or one text
parse), and run the job around a
:class:`~repro.trace.replay.TraceWorkload` of them through
:meth:`~repro.core.runner.Job.run_factory` — the ordinary
:class:`~repro.core.system.System`, plain, observed or checkpointed,
under either CPU model. There is one path: under Mipsy each CPU is a
:class:`~repro.trace.replay.TraceCpu` reading the columns, under MXS a
thread program re-issues them.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.experiment import ExperimentResult
from repro.errors import ArtifactMiss
from repro.mem.hierarchy import MemConfig
from repro.obs import bus as obs_bus
from repro.trace.kernel import PackedTrace, load_packed
from repro.trace.replay import TraceWorkload
from repro.trace.store import TraceStore


def resolve_trace(job) -> tuple[Path, PackedTrace]:
    """The job's recorded trace and its packed columns, recording it
    first on a miss. The trace is looked up by the job's workload (and
    its arguments), scale and CPU count only, so every point of a sweep
    shares one recording."""
    store = TraceStore(job.trace_dir)

    def resolve():
        path = store.get_or_record(
            job.workload, job.scale, job.n_cpus, job.workload_args
        )
        return path, load_packed(job.n_cpus, path)

    try:
        return resolve()
    except ArtifactMiss:
        # The text failed its digest where load_packed went to parse it
        # and is evicted already: record it afresh, once.
        return resolve()


def trace_factory(packed: PackedTrace):
    """A workload factory (``Job``'s signature) replaying ``packed``."""

    def factory(n_cpus, functional, scale):
        return TraceWorkload.from_packed(functional, packed)

    return factory


def run_replay(
    job,
    config: MemConfig,
    obs=None,
    resume_from: str | None = None,
) -> ExperimentResult:
    """Run ``job`` against its recorded trace; returns the result.

    ``config`` is the job's fully resolved :class:`MemConfig`
    (overrides applied) — the replay target.
    """
    path, packed = resolve_trace(job)
    result = job.run_factory(trace_factory(packed), config, obs, resume_from)
    # The result describes the *replayed* workload, not the replay
    # vehicle: report it under the recorded workload's name.
    result.workload = job.workload_key()
    result.extras["backend"] = "replay"
    result.extras["replay"] = {"trace": path.name, "references": len(packed)}
    obs_bus.emit("trace.replay", workload=job.workload_key(), trace=path.name)
    return result
