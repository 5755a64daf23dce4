"""Execute a replay-lane :class:`~repro.core.runner.Job`.

``Job(replay=True)`` lands here: resolve (or record) the job's trace
in the :class:`~repro.trace.store.TraceStore`, then re-simulate it on
the job's architecture/config. Two engines serve the lane:

* the **batch kernel** (:func:`~repro.trace.kernel.replay_kernel`) —
  packed-column replay for plain Mipsy jobs, the fast path;
* the **interpreter** — a :class:`~repro.trace.replay.TraceWorkload`
  run through the ordinary :class:`~repro.core.system.System`, used
  for MXS and whenever the job carries machinery the kernel does not
  model (observability, checkpoint/resume).

Both produce the same ``SystemStats`` for the same trace and config
(the differential suite in ``tests/test_replay_kernel.py`` pins this),
so engine choice is pure execution policy; which one ran is reported
in ``extras["replay"]["engine"]``.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.experiment import ExperimentResult
from repro.errors import ArtifactMiss
from repro.mem.hierarchy import MemConfig
from repro.obs import bus as obs_bus
from repro.trace.store import TraceStore, check_text


def run_replay(
    job,
    config: MemConfig,
    obs=None,
    resume_from: str | None = None,
) -> ExperimentResult:
    """Run ``job`` against its recorded trace; returns the result.

    ``config`` is the job's fully resolved :class:`MemConfig`
    (overrides applied) — the replay target. The trace itself is
    looked up by the job's workload (and its arguments), scale and CPU
    count only, so every point of a sweep shares one recording.
    """
    store = TraceStore(job.trace_dir)
    checkpointing = bool(job.ckpt_dir) or resume_from is not None
    use_kernel = (
        job.cpu_model == "mipsy" and obs is None and not checkpointing
    )

    def replay():
        path = store.get_or_record(
            job.workload, job.scale, job.n_cpus, job.workload_args
        )
        if use_kernel:
            return path, _run_kernel(job, config, path)
        return path, _run_interpreter(
            job, config, path, obs=obs, resume_from=resume_from
        )

    try:
        trace_path, result = replay()
    except ArtifactMiss:
        # The text failed its digest where an engine went to parse it
        # and is evicted already: record it afresh, once.
        trace_path, result = replay()
    result.extras["backend"] = "replay"
    result.extras.setdefault("replay", {})["trace"] = trace_path.name
    obs_bus.emit(
        "trace.replay",
        workload=job.workload_key(),
        engine=result.extras["replay"].get("engine", "?"),
        trace=trace_path.name,
    )
    return result


def _run_kernel(job, config: MemConfig, trace_path: Path):
    from repro.trace.kernel import load_packed, replay_kernel

    packed = load_packed(job.n_cpus, trace_path)
    started = time.perf_counter()
    outcome = replay_kernel(
        packed, job.arch, mem_config=config, max_cycles=job.max_cycles
    )
    elapsed = time.perf_counter() - started
    return ExperimentResult(
        arch=outcome.arch,
        workload=job.workload_key(),
        cpu_model=job.cpu_model,
        scale=job.scale,
        stats=outcome.stats,
        wall_seconds=elapsed,
        extras={
            "resources": outcome.resources,
            "truncated": outcome.truncated,
            "sync": {},
            "replay": {"engine": "kernel", "references": len(packed)},
        },
    )


def _run_interpreter(
    job,
    config: MemConfig,
    trace_path: Path,
    obs=None,
    resume_from: str | None = None,
):
    from repro.trace.replay import TraceWorkload

    def factory(n_cpus, functional, scale):
        check_text(trace_path)
        return TraceWorkload.from_file(n_cpus, functional, trace_path)

    result = job.run_factory(factory, config, obs, resume_from)
    # The result describes the *replayed* workload, not the replay
    # vehicle: report it under the recorded workload's name.
    result.workload = job.workload_key()
    replayed = result.extras.setdefault("replay", {})
    replayed["engine"] = "interpreter"
    return result
