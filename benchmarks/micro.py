#!/usr/bin/env python
"""Microbenchmarks for the simulator's host-performance hot paths.

Six scenarios, each chosen to stress one layer of the simulator:

* ``l1_hit_storm``   — private arrays that fit in L1: after warmup every
  access takes the L1 fast lane. Measures the per-instruction floor
  (``MipsyCpu.tick`` + ``fast_load``/``fast_store``).
* ``miss_storm``     — line-strided walks over arrays far larger than
  L1: every load misses and takes the general ``access()`` path.
  Measures the miss/coherence machinery the fast lane bypasses.
* ``crossbar_contention`` — every CPU hammers the *same* shared array
  on the shared-l1 architecture under MXS (Mipsy models the shared L1
  optimistically, so only MXS exercises bank arbitration).
* ``ocean_slice``    — a real workload (Ocean) across every
  architecture x CPU model: the end-to-end number that the
  ``python -m repro reproduce`` wall-clock ultimately follows.
* ``replay_interpreter`` / ``replay_kernel`` — the *same* recorded
  eqntott trace replayed per architecture through the ordinary
  interpreter (``TraceWorkload`` + ``System``) and through the
  batch-specialized kernel (``repro.trace.kernel``). The pair tracks
  the kernel's speedup per architecture, not just end-to-end; the
  differential suite keeps their statistics bit-identical, so any gap
  here is pure host performance.
* ``probe_hit_storm`` / ``probe_miss_storm`` / ``probe_snoop_storm`` —
  the packed-array probe core measured in isolation, per memory
  system, with no CPUs or run loop in the way: resident-line loads
  through the per-CPU fast lanes (the L1-hit floor), line-strided
  ``access()`` walks through the miss/fill/evict machinery, and
  ownership ping-pong stores that drive the coherence/invalidate
  walks. These records (``cpu_model`` = ``probe``) are the bench
  gate's direct pin on the probe layer — they are enforced even where
  the end-to-end records only warn (``bench_gate.py --enforce``).

* ``spin_wait`` — one CPU computes while the other three wait for it
  at a barrier, round after round: nearly every simulated instruction
  is a spin iteration. On a private-L1 preset (shared-l2) the waiting
  CPUs park and their iterations are settled arithmetically; on
  shared-l1 each iteration is still one Mipsy tick. Records simulated
  spin iterations per host second; enforced by the bench gate
  (``--enforce spin_``) so losing either mechanism fails CI.

Output is JSON (``--out``, default ``benchmarks/results/microbench.json``)
with one record per (scenario, arch, cpu_model): host wall seconds,
simulated cycles, and cycles per host second. ``--quick`` shrinks the
workloads for CI smoke runs; ``scripts/bench_gate.py`` compares two of
these JSON files and flags regressions.

Run from the repository root::

    PYTHONPATH=src python benchmarks/micro.py --quick
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

from repro.core.runner import Job
from repro.mem.functional import FunctionalMemory
from repro.perf import sim_speed, time_call
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_OUT = RESULTS_DIR / "microbench.json"

#: Ocean at bench scale needs the figures' 1/4-scale caches (see
#: repro.core.paper.BENCH_OVERRIDES) to keep its boundary-to-area
#: ratio meaningful.
OCEAN_BENCH_OVERRIDES = {
    "l1d_size": 4096,
    "l1i_size": 4096,
    "l2_size": 512 * 1024,
}

MAX_CYCLES = 30_000_000


class HitStorm(Workload):
    """Each CPU loops load+store over a tiny private array (pure L1 hits)."""

    name = "micro-hit-storm"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        iterations: int = 2000,
        array_words: int = 16,
    ) -> None:
        super().__init__(n_cpus, functional)
        self.iterations = iterations
        self.array_words = array_words
        self.region = self.code.region("micro.hit", 64)
        self.arrays = [
            self.data.alloc_array(array_words, 4) for _ in range(n_cpus)
        ]

    def program(self, cpu_id: int):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        base = self.arrays[cpu_id]
        words = self.array_words
        for _ in range(self.iterations):
            em.jump(0)
            for i in range(words):
                yield em.load(base + 4 * i)
                yield em.store(base + 4 * i, src1=1)


class MissStorm(Workload):
    """Each CPU strides line-by-line over an array much larger than L1."""

    name = "micro-miss-storm"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        iterations: int = 8,
        array_lines: int = 2048,
        line_size: int = 32,
    ) -> None:
        super().__init__(n_cpus, functional)
        self.iterations = iterations
        self.array_lines = array_lines
        self.line_size = line_size
        self.region = self.code.region("micro.miss", 64)
        self.arrays = [
            self.data.alloc_array(array_lines * line_size // 4, 4)
            for _ in range(n_cpus)
        ]

    def program(self, cpu_id: int):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        base = self.arrays[cpu_id]
        stride = self.line_size
        for _ in range(self.iterations):
            em.jump(0)
            for i in range(self.array_lines):
                yield em.load(base + stride * i)


class SharedReadStorm(Workload):
    """Every CPU reads the same shared array (crossbar/bank contention)."""

    name = "micro-shared-read"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        iterations: int = 400,
        array_words: int = 64,
    ) -> None:
        super().__init__(n_cpus, functional)
        self.iterations = iterations
        self.array_words = array_words
        self.region = self.code.region("micro.shared", 64)
        self.block = self.data.alloc_array(array_words, 4)

    def program(self, cpu_id: int):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        base = self.block
        for _ in range(self.iterations):
            em.jump(0)
            for i in range(self.array_words):
                yield em.load(base + 4 * i)


class SpinWait(Workload):
    """CPU 0 computes ``work`` instructions per round; everyone else
    goes straight to the round's barrier and spins until it arrives."""

    name = "micro-spin-wait"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        rounds: int = 80,
        work: int = 10_000,
    ) -> None:
        super().__init__(n_cpus, functional)
        self.rounds = rounds
        self.work = work
        self.region = self.code.region("micro.spin", 8)
        self.barrier = Barrier("micro.spin.bar", self.code, self.data, n_cpus)

    def program(self, cpu_id: int):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        for _ in range(self.rounds):
            if cpu_id == 0:
                for _ in range(self.work):
                    em.jump(0)
                    yield em.ialu()
            yield from self.barrier.wait(ctx)


def _factory(cls, **kwargs):
    """Adapt a micro workload class to the (n_cpus, functional, scale)
    factory signature ``run_one`` expects (scale is ignored: the micro
    workloads are sized explicitly)."""

    def factory(n_cpus, functional, scale):
        return cls(n_cpus, functional, **kwargs)

    factory.__qualname__ = f"micro.{cls.__name__}"
    factory.__module__ = __name__
    return factory


def build_benches(quick: bool) -> list[tuple[str, Job]]:
    """The (name, job) list one invocation measures."""
    shrink = 8 if quick else 1
    benches: list[tuple[str, Job]] = []
    hit = _factory(HitStorm, iterations=2000 // shrink)
    miss = _factory(MissStorm, iterations=max(8 // shrink, 1))
    shared = _factory(SharedReadStorm, iterations=400 // shrink)
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        benches.append((
            "l1_hit_storm",
            Job(arch=arch, workload=hit, scale="test", max_cycles=MAX_CYCLES),
        ))
        benches.append((
            "miss_storm",
            Job(arch=arch, workload=miss, scale="test", max_cycles=MAX_CYCLES),
        ))
    benches.append((
        "crossbar_contention",
        Job(
            arch="shared-l1",
            workload=shared,
            cpu_model="mxs",
            scale="test",
            max_cycles=MAX_CYCLES,
        ),
    ))
    ocean_scale = "test" if quick else "bench"
    ocean_overrides = {} if quick else dict(OCEAN_BENCH_OVERRIDES)
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        for cpu_model in ("mipsy", "mxs"):
            benches.append((
                "ocean_slice",
                Job(
                    arch=arch,
                    workload="ocean",
                    cpu_model=cpu_model,
                    scale=ocean_scale,
                    overrides=ocean_overrides,
                    max_cycles=MAX_CYCLES,
                ),
            ))
    return benches


def replay_pair_records(quick: bool, repeat: int) -> list[dict]:
    """Time interpreter vs. batch-kernel replay of one recorded trace.

    Records eqntott once (into a throwaway store, so the benchmark
    never depends on — or pollutes — the user's trace cache), then
    replays the same reference stream per architecture through both
    engines. Trace decode happens once, outside the timed region, on
    both sides: the pair measures the engines, not the parser.
    """
    import tempfile

    from repro.core.configs import config_for_scale
    from repro.core.system import System
    from repro.trace.format import read_trace
    from repro.trace.kernel import PackedTrace, replay_kernel
    from repro.trace.replay import TraceWorkload
    from repro.trace.store import TraceStore

    scale = "test" if quick else "bench"
    n_cpus = 4
    with tempfile.TemporaryDirectory(prefix="micro-trace-") as tmp:
        path = TraceStore(tmp).record("eqntott", scale, n_cpus)
        trace = list(read_trace(path))
    packed = PackedTrace(n_cpus, trace)

    def interp():
        functional = FunctionalMemory()
        workload = TraceWorkload(n_cpus, functional, trace)
        system = System(
            arch,
            workload,
            cpu_model="mipsy",
            mem_config=config_for_scale(scale, n_cpus),
            max_cycles=MAX_CYCLES,
        )
        system.run()
        return system.stats

    def kernel():
        return replay_kernel(
            packed,
            arch,
            mem_config=config_for_scale(scale, n_cpus),
            max_cycles=MAX_CYCLES,
        ).stats

    records = []
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        for name, fn in (
            ("replay_interpreter", interp),
            ("replay_kernel", kernel),
        ):
            stats, wall = time_call(fn, repeat=repeat)
            records.append({
                "name": name,
                "arch": arch,
                "cpu_model": "mipsy",
                "wall_seconds": round(wall, 4),
                "cycles": stats.cycles,
                "instructions": stats.instructions,
                "cycles_per_host_second": round(sim_speed(stats.cycles, wall)),
            })
            print(
                f"  {name:<20} {arch:<10} {'mipsy':<6} "
                f"{wall:7.3f}s  {stats.cycles:>10} cyc  "
                f"{sim_speed(stats.cycles, wall) / 1e6:6.2f} Mc/s",
                flush=True,
            )
    return records


#: memory systems the probe-layer storms cover (every topology whose
#: hot paths ride the packed probe core)
PROBE_ARCHS = ("shared-l1", "shared-l2", "shared-mem", "shared-l3")


def probe_layer_records(quick: bool, repeat: int) -> list[dict]:
    """Measure the packed probe core directly, per memory system.

    No CPUs and no run loop: each storm drives the memory system's own
    entry points — the per-CPU fast lanes for the hit storm, the
    general ``access()`` path for the miss and snoop storms — so the
    numbers isolate the tag-array/coherence machinery the end-to-end
    benches only see blended with everything else. Records carry
    ``cpu_model`` = ``probe``; the bench gate enforces them even in
    warn-only CI runs (they are tight in-process loops, far less noisy
    than wall-clock end-to-end records).
    """
    from repro.core.configs import build_memory, config_for_scale
    from repro.mem.types import AccessKind
    from repro.sim.stats import SystemStats

    n_cpus = 4
    shrink = 8 if quick else 1
    hit_rounds = 12_000 // shrink
    miss_rounds = 1_600 // shrink
    snoop_rounds = 4_000 // shrink
    line = 32
    #: per-CPU private blocks far apart: never the same line, but
    #: 0x4000 is a multiple of every test-scale cache's way size, so in
    #: a cache the CPUs share the four blocks land on the same sets
    private_base = [0x10000 + cpu * 0x4000 for cpu in range(n_cpus)]
    hit_lines = 8
    #: the hit storm's blocks sit back to back instead — 32 consecutive
    #: lines, distinct sets in a private L1 and in the 64-line shared
    #: one alike, so every hierarchy keeps them all resident
    hit_base = [
        0x10000 + cpu * hit_lines * line for cpu in range(n_cpus)
    ]

    def build(arch):
        config = config_for_scale("test", n_cpus)
        stats = SystemStats.for_cpus(n_cpus)
        return build_memory(arch, config, stats)

    def hit_storm():
        mem = build(arch)
        load = AccessKind.LOAD
        at = 0
        # Warm: one general access per (cpu, line) makes them resident.
        for cpu in range(n_cpus):
            for index in range(hit_lines):
                at = mem.access(
                    cpu, load, hit_base[cpu] + index * line, at
                ).done
        lanes = [mem.fast_lanes(cpu)[1] for cpu in range(n_cpus)]
        count = 0
        declined = 0
        for _ in range(hit_rounds):
            for cpu in range(n_cpus):
                lane = lanes[cpu]
                base = hit_base[cpu]
                for index in range(hit_lines):
                    done = lane(base + index * line, at)
                    if done < 0:  # lane declined: take the general path
                        declined += 1
                        done = mem.access(
                            cpu, load, base + index * line, at
                        ).done
                    at = done
                    count += 1
        if declined * 100 > count:
            # A storm the lane mostly declines times the miss path
            # under the hit storm's name; refuse to record it.
            raise RuntimeError(
                f"probe_hit_storm/{arch}: the fast lane declined "
                f"{declined} of {count} probes (>1 %)"
            )
        return count

    def miss_storm():
        mem = build(arch)
        load = AccessKind.LOAD
        config = mem.config
        # Stride over 4x the L1 capacity: every revisit misses again.
        walk_lines = 4 * (config.l1d_size // line)
        at = 0
        count = 0
        for _ in range(miss_rounds):
            for cpu in range(n_cpus):
                addr = private_base[cpu] + (count % walk_lines) * line
                at = mem.access(cpu, load, addr, at).done
                count += 1
        return count

    def snoop_storm():
        mem = build(arch)
        load = AccessKind.LOAD
        store = AccessKind.STORE
        shared = 0x8000
        at = 0
        count = 0
        for round_ in range(snoop_rounds):
            addr = shared + (round_ % hit_lines) * line
            # Everyone reads the line, then one CPU takes ownership —
            # the store walks/invalidates every other copy.
            for cpu in range(n_cpus):
                at = mem.access(cpu, load, addr, at).done
                count += 1
            at = mem.access(round_ % n_cpus, store, addr, at).done
            count += 1
        return count

    records = []
    for arch in PROBE_ARCHS:
        for name, fn in (
            ("probe_hit_storm", hit_storm),
            ("probe_miss_storm", miss_storm),
            ("probe_snoop_storm", snoop_storm),
        ):
            # Best-of-3 floor even when --repeat is 1: these records
            # are enforced by the gate, so their minima must not
            # wobble with host load the way one-shot timings do.
            count, wall = time_call(fn, repeat=max(repeat, 3))
            rate = count / wall if wall > 0 else 0.0
            records.append({
                "name": name,
                "arch": arch,
                "cpu_model": "probe",
                "wall_seconds": round(wall, 4),
                "accesses": count,
                "accesses_per_host_second": round(rate),
            })
            print(
                f"  {name:<20} {arch:<10} {'probe':<6} "
                f"{wall:7.3f}s  {count:>10} acc  "
                f"{rate / 1e6:6.2f} Ma/s",
                flush=True,
            )
    return records


#: spin_wait presets: one whose L1Ds are private (waiting CPUs park)
#: and the shared-L1 one (every iteration still ticks)
SPIN_ARCHS = ("shared-l2", "shared-l1")


def spin_wait_records(quick: bool, repeat: int) -> list[dict]:
    """Time barrier waiting itself: simulated spin iterations per
    host second, on a private-L1 and on the shared-L1 preset.

    The iteration count is the retired instructions that are not the
    worker's compute, halved (load + branch) — it includes the few
    dozen arrival instructions per round, under 1 % here, and is the
    same number whichever way the simulator gets through the wait.
    """
    rounds = 10 if quick else 80
    work = 10_000
    spin = _factory(SpinWait, rounds=rounds, work=work)
    records = []
    for arch in SPIN_ARCHS:
        job = Job(arch=arch, workload=spin, scale="test",
                  max_cycles=MAX_CYCLES)
        # Best-of-3 floor, as for the probe records: these are
        # enforced, so their minima must not wobble with host load.
        result, wall = time_call(job.run, repeat=max(repeat, 3))
        stats = result.stats
        iterations = (stats.instructions - rounds * work) // 2
        rate = iterations / wall if wall > 0 else 0.0
        records.append({
            "name": "spin_wait",
            "arch": arch,
            "cpu_model": job.cpu_model,
            "wall_seconds": round(wall, 4),
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "spin_iterations": iterations,
            "spin_iterations_per_host_second": round(rate),
        })
        print(
            f"  {'spin_wait':<20} {arch:<10} {job.cpu_model:<6} "
            f"{wall:7.3f}s  {iterations:>10} it   "
            f"{rate / 1e6:6.2f} Mi/s",
            flush=True,
        )
    return records


def run_benches(quick: bool, repeat: int) -> dict:
    """Execute every bench in-process; returns the JSON payload."""
    records = []
    for name, job in build_benches(quick):
        result, wall = time_call(job.run, repeat=repeat)
        stats = result.stats
        records.append({
            "name": name,
            "arch": job.arch,
            "cpu_model": job.cpu_model,
            "wall_seconds": round(wall, 4),
            "cycles": stats.cycles,
            "instructions": stats.instructions,
            "cycles_per_host_second": round(sim_speed(stats.cycles, wall)),
        })
        print(
            f"  {name:<20} {job.arch:<10} {job.cpu_model:<6} "
            f"{wall:7.3f}s  {stats.cycles:>10} cyc  "
            f"{sim_speed(stats.cycles, wall) / 1e6:6.2f} Mc/s",
            flush=True,
        )
    records.extend(probe_layer_records(quick, repeat))
    records.extend(spin_wait_records(quick, repeat))
    records.extend(replay_pair_records(quick, repeat))
    return {
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": quick,
        "repeat": repeat,
        "python": platform.python_version(),
        "benches": records,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shrunken workloads for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="best-of-N timing per bench (default 1)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=str(DEFAULT_OUT),
        help=f"where to write the JSON record (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"
    print(f"microbenchmarks ({mode}, best of {args.repeat}):", flush=True)
    payload = run_benches(args.quick, args.repeat)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    total = sum(record["wall_seconds"] for record in payload["benches"])
    print(f"total simulation wall: {total:.2f}s -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
