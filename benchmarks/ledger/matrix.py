"""The ledger's pinned job matrices.

This is the ledger's *own copy* of every matrix it times: nothing here
imports ``benchmarks/harness.py`` or ``scripts/*``, so an edit there
cannot shift the load a later change is measured against. The only
imports are the public job/workload types of the package under test.
"""

from __future__ import annotations

import functools
import random

from repro.core.runner import Job
from repro.workloads import synthetic

N_CPUS = 4
MAX_CYCLES = 30_000_000

#: the paper's seven applications (Figures 4-10), presentation order
APPS = ("eqntott", "mp3d", "ocean", "volpack", "ear", "fft", "multiprog")
#: Figure 11's three applications
MXS_APPS = ("multiprog", "eqntott", "ear")
#: the paper's three architectures
PAPER_PRESETS = ("shared-l1", "shared-l2", "shared-mem")
#: every registered hierarchy (coherence_storm and the probe storms)
ALL_PRESETS = PAPER_PRESETS + ("shared-l3", "cluster-l1")

#: Ocean runs the figure harness's 1/4-scale caches at bench scale (its
#: boundary-to-area ratio cannot be preserved on a 1/8-scale grid).
OCEAN_BENCH_OVERRIDES = {
    "l1d_size": 4096,
    "l1i_size": 4096,
    "l2_size": 512 * 1024,
}

#: coherence_storm: a high-sharing, store-heavy synthetic with a
#: private working set far larger than L1 — 15-40 % L1 miss rate and
#: 3-5 % invalidation misses on the private-cache presets, so the
#: general access path and the coherence walks do most of the work.
STORM_PARAMS = {
    "sharing": 0.6,
    "store_ratio": 0.4,
    "grain": 64,
    "private_bytes": 65536,
    "shared_bytes": 8192,
    "compute_per_access": 0,
}
#: 4 rounds of 60 phases, not 1 of 240: the same simulated work in 20
#: jobs of a quarter second, so the host-speed yardstick (sampled
#: after every job) is read 20 times in the region instead of 5
STORM_PHASES = {"bench": 60, "test": 12}
STORM_ROUNDS = {"bench": 4, "test": 1}

#: ``--seed`` picks the synthetic RNG stream from this pool (1996 and
#: 2026 map to themselves), so every seed's storm results have a
#: committed digest and no run goes unverified.
STORM_RNG_SEEDS = (11, 23, 2026, 37, 1996, 53, 61, 79)

#: nominal round counts at ``--seconds 10``
REPLAY_WARM_ROUNDS = 2
SERVICE_HIT_ROUNDS = 90
#: service_hit is timed in chunks of this many rounds (about 0.3 s)
SERVICE_HIT_CHUNK_ROUNDS = 3
NOMINAL_SECONDS = 10


def storm_rng_seed(seed: int) -> int:
    """The synthetic workload's RNG seed for a benchmark ``--seed``."""
    return STORM_RNG_SEEDS[seed % len(STORM_RNG_SEEDS)]


def rounds_for(nominal: int, seconds: float, scale: str) -> int:
    """Scale a (rounds) knob with ``--seconds``; one round at test scale."""
    if scale == "test":
        return 1
    return max(1, round(nominal * seconds / NOMINAL_SECONDS))


def _overrides(app: str, scale: str) -> dict:
    if app == "ocean" and scale == "bench":
        return dict(OCEAN_BENCH_OVERRIDES)
    return {}


def figure_jobs(
    scale: str,
    cpu_model: str = "mipsy",
    replay: bool = False,
    trace_dir: str | None = None,
) -> list[tuple[str, Job]]:
    """``(job_id, Job)`` for one figure matrix, in presentation order."""
    apps = APPS if cpu_model == "mipsy" else MXS_APPS
    jobs = []
    for app in apps:
        for arch in PAPER_PRESETS:
            job_id = f"{app}/{arch}/{cpu_model}/{scale}"
            if replay:
                job_id += "/replay"
            jobs.append((
                job_id,
                Job(
                    arch=arch,
                    workload=app,
                    cpu_model=cpu_model,
                    scale=scale,
                    n_cpus=N_CPUS,
                    overrides=_overrides(app, scale),
                    max_cycles=MAX_CYCLES,
                    replay=replay,
                    trace_dir=trace_dir,
                ),
            ))
    return jobs


def storm_jobs(scale: str, rng_seed: int) -> list[tuple[str, Job]]:
    """The coherence storm on all five presets."""
    factory = functools.partial(
        synthetic.make,
        phases=STORM_PHASES[scale],
        seed=rng_seed,
        **STORM_PARAMS,
    )
    return [
        (
            f"synthetic@{rng_seed}/{arch}/mipsy/{scale}",
            Job(
                arch=arch,
                workload=factory,
                scale=scale,
                n_cpus=N_CPUS,
                max_cycles=MAX_CYCLES,
            ),
        )
        for arch in ALL_PRESETS
    ]


def shuffled(items: list, rng: random.Random, rounds: int = 1) -> list:
    """``rounds`` copies of ``items`` one after the other, each shuffled
    on its own (the seed drives job and request order)."""
    ordered = []
    for _ in range(rounds):
        copy = list(items)
        rng.shuffle(copy)
        ordered.extend(copy)
    return ordered
