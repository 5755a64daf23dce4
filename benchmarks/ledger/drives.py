"""Layer micro-drives: one layer's public functions with nothing else
in frame.

Every duration in here is in *reference seconds*: measured seconds
scaled by the host-speed yardstick sampled just before and just after
the timed call (see :mod:`hostspeed`), the same scale the end-to-end
metrics use.

They run only in the traced pass, each from the workload whose timed
region leans on that layer, and feed the per-layer ledger entries that
no span around an end-to-end call can isolate. Entries built from a
*difference* of two timings are upper bounds on the layer's cost (the
subtraction keeps whatever the two sides do not share) and carry
``_upper_`` in their name.

Every function returns ``{metric name: (value, unit)}``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.ckpt import CheckpointStore, restore_system, snapshot_system
from repro.core.configs import build_memory, config_for_scale
from repro.core.runner import Job, ResultCache, Runner
from repro.core.system import System
from repro.isa import CodeSpace, Emitter
from repro.mem.functional import FunctionalMemory
from repro.mem.types import AccessKind
from repro.obs import ObsConfig
from repro.sim.engine import Engine
from repro.sim.stats import SystemStats
from repro.trace.format import read_trace
from repro.trace.kernel import PackedTrace, load_packed, replay_kernel
from repro.trace.replay import TraceWorkload
from repro.trace.store import TraceStore

import matrix
from hostspeed import factor, yardstick
from passes import Context, _job_config

Metrics = dict[str, tuple[float, str]]

_LINE = 32


def _timed(fn, *args, **kwargs):
    """``(fn(...), its duration in reference seconds)``."""
    before = yardstick()
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    elapsed = time.perf_counter() - started
    return value, elapsed * factor(before, yardstick())


def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


# ----------------------------------------------------------------------
# isa, sim


def isa_emit(ctx: Context) -> Metrics:
    """``Emitter.load/store/ialu/branch`` with no CPU consuming them."""
    rounds = 20_000 if ctx.scale == "bench" else 2_000
    region = CodeSpace().region("ledger.emit", 64)
    emitter = Emitter(region)

    def emit():
        for index in range(rounds):
            emitter.jump(0)
            top = emitter.label()
            emitter.load(0x10000 + 4 * (index & 1023))
            emitter.store(0x20000 + 4 * (index & 1023), src1=1)
            emitter.ialu(src1=1)
            emitter.branch(True, to=top)

    elapsed = _timed(emit)[1]
    return {"isa.emit_ns": (elapsed * 1e9 / (4 * rounds), "ns")}


def sim_engine(ctx: Context) -> Metrics:
    """``Engine.schedule`` / ``run_until`` over no-op callbacks."""
    events = 100_000 if ctx.scale == "bench" else 10_000
    engine = Engine()

    def callback():
        pass

    def drive():
        for base in range(0, events, 100):
            for offset in range(100):
                engine.schedule(base + offset, callback)
            engine.run_until(base + 99)

    elapsed = _timed(drive)[1]
    return {"sim.engine.ns_per_event": (elapsed * 1e9 / events, "ns")}


def stats_roundtrip(all_stats: list[SystemStats]) -> Metrics:
    """``to_dict`` -> JSON text -> ``from_dict`` on real results."""
    repeats = 10

    def roundtrips():
        for _ in range(repeats):
            for stats in all_stats:
                SystemStats.from_dict(
                    json.loads(json.dumps(stats.to_dict()))
                )

    elapsed = _timed(roundtrips)[1]
    return {
        "sim.stats.roundtrip_ms": (
            elapsed * 1e3 / (repeats * len(all_stats)), "ms"
        )
    }


# ----------------------------------------------------------------------
# mem: the probe storms (benchmarks/micro.py's, time-boxed)


def _storm_rate(storm, min_seconds: float, best_of: int) -> float:
    """Accesses per second: best of ``best_of`` time-boxed bursts."""
    def burst(step):
        count = 0
        started = time.perf_counter()
        while time.perf_counter() - started < min_seconds:
            count += step()
        return count

    best = 0.0
    for _ in range(best_of):
        count, elapsed = _timed(burst, storm())
        best = max(best, count / elapsed)
    return best


def mem_probes(ctx: Context) -> Metrics:
    """Hit / miss / snoop storms against each hierarchy's own entry
    points: no CPU, no run loop. The hit storm rides the per-CPU fast
    lanes, the other two the general ``access()`` path."""
    n_cpus = matrix.N_CPUS
    min_seconds = 0.5 if ctx.scale == "bench" else 0.02
    best_of = 3 if ctx.scale == "bench" else 1
    load, store = AccessKind.LOAD, AccessKind.STORE
    #: per-CPU private blocks far apart (never the same set or line)
    private_base = [0x10000 + cpu * 0x4000 for cpu in range(n_cpus)]
    hit_lines = 8
    chunk = 64

    def build(arch):
        config = config_for_scale("test", n_cpus)
        return build_memory(arch, config, SystemStats.for_cpus(n_cpus))

    def hit_storm(arch):
        mem = build(arch)
        clock = [0]
        for cpu in range(n_cpus):
            for index in range(hit_lines):
                clock[0] = mem.access(
                    cpu, load, private_base[cpu] + index * _LINE, clock[0]
                ).done
        lanes = [mem.fast_lanes(cpu)[1] for cpu in range(n_cpus)]

        def step():
            at = clock[0]
            for _ in range(chunk):
                for cpu in range(n_cpus):
                    lane = lanes[cpu]
                    base = private_base[cpu]
                    for index in range(hit_lines):
                        done = lane(base + index * _LINE, at)
                        if done < 0:  # lane declined: the general path
                            done = mem.access(
                                cpu, load, base + index * _LINE, at
                            ).done
                        at = done
            clock[0] = at
            return chunk * n_cpus * hit_lines

        return step

    def miss_storm(arch):
        mem = build(arch)
        # Stride over 4x the L1 capacity: every revisit misses again.
        walk_lines = 4 * (mem.config.l1d_size // _LINE)
        state = [0, 0]

        def step():
            at, count = state
            for _ in range(chunk):
                for cpu in range(n_cpus):
                    addr = private_base[cpu] + (count % walk_lines) * _LINE
                    at = mem.access(cpu, load, addr, at).done
                    count += 1
            state[0], state[1] = at, count
            return chunk * n_cpus

        return step

    def snoop_storm(arch):
        mem = build(arch)
        shared = 0x8000
        state = [0, 0]

        def step():
            at, round_ = state
            for _ in range(chunk):
                addr = shared + (round_ % hit_lines) * _LINE
                # Everyone reads the line, then one CPU takes ownership:
                # the store walks/invalidates every other copy.
                for cpu in range(n_cpus):
                    at = mem.access(cpu, load, addr, at).done
                at = mem.access(round_ % n_cpus, store, addr, at).done
                round_ += 1
            state[0], state[1] = at, round_
            return chunk * (n_cpus + 1)

        return step

    out: Metrics = {}
    for arch in matrix.ALL_PRESETS:
        for name, storm, scale, unit in (
            ("mem.probe_hit_maps", hit_storm, 1e6, "M/s"),
            ("mem.probe_miss_kaps", miss_storm, 1e3, "k/s"),
            ("mem.probe_snoop_kaps", snoop_storm, 1e3, "k/s"),
        ):
            rate = _storm_rate(
                lambda: storm(arch), min_seconds, best_of
            )
            out[f"{name}.{arch}"] = (rate / scale, unit)
    return out


def _drive_stream(packed: PackedTrace, mem, shift: int) -> tuple[int, int, int]:
    """Push one packed trace through ``mem``, CPUs interleaved by
    reference index; returns (accesses, lane attempts, lane hits)."""
    ifetch, load, store = (
        AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE,
    )
    n_cpus = packed.n_cpus
    lanes = [mem.fast_lanes(cpu) for cpu in range(n_cpus)]
    lengths = [len(kinds) for kinds in packed.kinds]
    clock = [0] * n_cpus
    fetch_line = [-1] * n_cpus
    access = mem.access
    accesses = attempted = useful = 0
    for index in range(max(lengths)):
        for cpu in range(n_cpus):
            if index >= lengths[cpu]:
                continue
            at = clock[cpu]
            pc = packed.pcs[cpu][index]
            if pc >> shift != fetch_line[cpu]:
                fetch_line[cpu] = pc >> shift
                attempted += 1
                accesses += 1
                done = lanes[cpu][0](pc, at)
                if done < 0:
                    done = access(cpu, ifetch, pc, at).done
                else:
                    useful += 1
                at = done
            kind = packed.kinds[cpu][index]
            addr = packed.addrs[cpu][index]
            accesses += 1
            if kind == load or kind == store:
                attempted += 1
                done = lanes[cpu][1 if kind == load else 2](addr, at)
                if done < 0:
                    done = access(cpu, AccessKind(kind), addr, at).done
                else:
                    useful += 1
            else:
                done = access(cpu, AccessKind(kind), addr, at).done
            clock[cpu] = done
    return accesses, attempted, useful


def mem_drive(ctx: Context, trace_dir: Path, kernel_s: float) -> Metrics:
    """The recorded reference streams pushed straight through
    ``build_memory(...)``'s ``fast_lanes()`` / ``access()``: the replay
    kernel's memory traffic with no CPU model around it (the driving
    loop's own cost is included, so this too is an upper bound)."""
    store = TraceStore(trace_dir)
    drive_s = 0.0
    accesses = attempted = useful = 0
    for _, job in matrix.figure_jobs(ctx.scale):
        packed = load_packed(
            job.n_cpus, store.get(job.workload, job.scale, job.n_cpus)
        )
        config = _job_config(job)
        config.shared_l1_optimistic = True  # as the Mipsy kernel does
        mem = build_memory(
            job.arch, config, SystemStats.for_cpus(job.n_cpus)
        )
        counts, elapsed = _timed(
            _drive_stream, packed, mem, config.line_size.bit_length() - 1
        )
        drive_s += elapsed
        accesses += counts[0]
        attempted += counts[1]
        useful += counts[2]
    return {
        "mem.drive_s": (drive_s, "s"),
        "mem.ns_per_access": (drive_s * 1e9 / accesses, "ns"),
        "mem.fast_hit_frac": (useful / attempted, "ratio"),
        "mem.share_of_kernel": (drive_s / kernel_s, "ratio"),
    }


# ----------------------------------------------------------------------
# workloads / cpu: differential upper bounds


def generator_and_loop_bounds(ctx: Context, generated_run_s: float) -> Metrics:
    """What the generators and the Mipsy tick cost, bounded from above.

    The same stream on the same preset three ways: generated (the
    traced pass's own ``System.run`` total, passed in), interpreter
    replay (``TraceWorkload`` through ``System.run``: no generator
    program, no compute instructions) and ``replay_kernel`` (no CPU
    tick at all).
    """
    store = TraceStore(ctx.fresh_dir("traces-differential"))
    interpreter_s = kernel_s = 0.0
    for app in matrix.APPS:
        path = store.record(app, ctx.scale, matrix.N_CPUS)
        records = list(read_trace(path))
        packed = load_packed(matrix.N_CPUS, path)
        for _, job in matrix.figure_jobs(ctx.scale):
            if job.workload != app:
                continue
            system = System(
                job.arch,
                TraceWorkload(job.n_cpus, FunctionalMemory(), records),
                cpu_model="mipsy",
                mem_config=_job_config(job),
                max_cycles=job.max_cycles,
            )
            interpreter_s += _timed(system.run)[1]
            kernel_s += _timed(
                replay_kernel,
                packed,
                job.arch,
                mem_config=_job_config(job),
                max_cycles=job.max_cycles,
            )[1]
    gen_upper = generated_run_s - interpreter_s
    return {
        "workloads.gen_upper_s": (gen_upper, "s"),
        "workloads.gen_share": (gen_upper / generated_run_s, "ratio"),
        "cpu.mipsy.loop_upper_s": (interpreter_s - kernel_s, "s"),
    }


def mxs_over_mipsy(ctx: Context, mxs_run_s: float) -> Metrics:
    """Figure 11's nine workload x preset pairs under Mipsy."""
    mipsy_s = sum(
        _timed(job.run)[1]
        for _, job in matrix.figure_jobs(ctx.scale)
        if job.workload in matrix.MXS_APPS
    )
    return {"cpu.mxs.over_mipsy_ratio": (mxs_run_s / mipsy_s, "ratio")}


# ----------------------------------------------------------------------
# trace


def trace_record_and_decode(
    ctx: Context, trace_dir: Path, record_s: float
) -> Metrics:
    """What recording adds to a plain reference-machine run, and what
    the text decode alone costs."""
    store = TraceStore(trace_dir)
    plain_s = decode_s = 0.0
    for app in matrix.APPS:
        plain_s += _timed(
            Job(
                arch="shared-mem",
                workload=app,
                scale=ctx.scale,
                n_cpus=matrix.N_CPUS,
            ).run
        )[1]
        path = store.get(app, ctx.scale, matrix.N_CPUS)
        decode_s += _timed(PackedTrace.from_file, matrix.N_CPUS, path)[1]
    return {
        "trace.record_overhead_ratio": (record_s / plain_s, "ratio"),
        "trace.decode_s": (decode_s, "s"),
    }


# ----------------------------------------------------------------------
# ckpt, obs: what turning the feature on costs


def _ocean_job(ctx: Context, arch: str, **extra) -> Job:
    for _, job in matrix.figure_jobs(ctx.scale):
        if job.workload == "ocean" and job.arch == arch:
            for key, value in extra.items():
                setattr(job, key, value)
            return job
    raise LookupError(arch)


def ckpt_costs(ctx: Context) -> Metrics:
    """Ocean on shared-mem paused mid-run: snapshot, save, load,
    restore; then checkpoint-every-N against a plain run."""
    job = _ocean_job(ctx, "shared-mem")
    plain = job.run()
    cycles = plain.stats.cycles

    def build():
        workload = job.resolve_factory()(
            job.n_cpus, FunctionalMemory(), job.scale
        )
        return System(
            job.arch,
            workload,
            cpu_model=job.cpu_model,
            mem_config=_job_config(job),
            max_cycles=job.max_cycles,
            checkpointing=True,
        )

    system = build()
    system.run(pause_at=cycles // 2)
    store_dir = ctx.fresh_dir("ckpt-drive")
    store = CheckpointStore(store_dir)
    state, snapshot_s = _timed(snapshot_system, system)
    digest, save_s = _timed(store.save, state)
    blob_bytes = dir_bytes(store_dir)
    loaded, load_s = _timed(store.load, digest)
    restore_s = _timed(restore_system, build(), loaded)[1]

    every = max(cycles // 4, 1)
    checkpointed = _ocean_job(
        ctx,
        "shared-mem",
        ckpt_every=every,
        ckpt_dir=str(ctx.fresh_dir("ckpt-every")),
    )
    plain_s = min(plain.wall_seconds, job.run().wall_seconds)
    # job wall_seconds covers the segmented run including every save
    ckpt_s = checkpointed.run().wall_seconds
    return {
        "ckpt.snapshot_ms": (snapshot_s * 1e3, "ms"),
        "ckpt.save_ms": (save_s * 1e3, "ms"),
        "ckpt.load_ms": (load_s * 1e3, "ms"),
        "ckpt.restore_ms": (restore_s * 1e3, "ms"),
        "ckpt.blob_kb": (blob_bytes / 1024, "KB"),
        "ckpt.run_overhead_ratio": (ckpt_s / plain_s, "ratio"),
    }


def obs_costs(ctx: Context) -> Metrics:
    """Ocean x 3 presets with the sampler / an events file, against
    observability off — the lane-off observer effect."""
    events_dir = ctx.fresh_dir("obs-events")
    off_s = sample_s = events_s = 0.0
    for arch in matrix.PAPER_PRESETS:
        off_s += _ocean_job(ctx, arch).run().wall_seconds
        sample_s += _ocean_job(
            ctx, arch, obs_sample=1000
        ).run().wall_seconds
        events_s += _ocean_job(ctx, arch).run(
            obs=ObsConfig(events_path=str(events_dir / f"{arch}.json"))
        ).wall_seconds
    return {
        "obs.sample_overhead_ratio": (sample_s / off_s, "ratio"),
        "obs.events_overhead_ratio": (events_s / off_s, "ratio"),
    }


# ----------------------------------------------------------------------
# core.runner


def runner_costs(ctx: Context, service_wall_s: float) -> Metrics:
    """Keying, cache I/O, dispatch and pool hand-off on the batch the
    service workloads send."""
    batch = [job for _, job in matrix.figure_jobs(ctx.scale)]
    batch[0].key()  # the source fingerprint is memoized per process
    key_s = _timed(lambda: [job.key() for job in batch])[1]

    # a Runner reports walls it measured itself; scale those by the
    # host speed around the call, as _timed does for its own
    serial, serial_s = _timed(Runner(jobs=1).run, batch)
    dispatch_s = (
        (serial.total_wall - serial.busy_seconds)
        * serial_s / serial.total_wall
    )

    cache = ResultCache(ctx.fresh_dir("runner-cache"))
    put_s = _timed(
        lambda: [
            cache.put(outcome.job, outcome.result)
            for outcome in serial.outcomes
        ]
    )[1]
    get_s = _timed(lambda: [cache.get(job) for job in batch])[1]

    pooled, pooled_s = _timed(Runner(jobs=2).run, batch)

    # pool start + first hand-off: a warm-pool session's first job,
    # less the time the job itself simulated
    tiny = Job(
        arch="shared-l1", workload="volpack", scale="test",
        n_cpus=matrix.N_CPUS,
    )
    session = Runner(jobs=2).session()

    def first_job():
        started = time.perf_counter()
        result = session.submit(tiny)[0].result(timeout=120)
        return result.wall_seconds / (time.perf_counter() - started)

    try:
        simulating_share, first_s = _timed(first_job)
    finally:
        session.close()
    pool_start_s = first_s * (1 - simulating_share)

    n = len(batch)
    return {
        "core.runner.key_ms": (key_s * 1e3 / n, "ms"),
        "core.runner.cache_put_ms": (put_s * 1e3 / n, "ms"),
        "core.runner.cache_get_ms": (get_s * 1e3 / n, "ms"),
        "core.runner.dispatch_ms": (dispatch_s * 1e3 / n, "ms"),
        "core.runner.pool_utilization": (pooled.utilization(), "ratio"),
        "core.runner.pool_start_s": (pool_start_s, "s"),
        "serve.vs_local_ratio": (
            service_wall_s / pooled_s, "ratio"
        ),
    }
