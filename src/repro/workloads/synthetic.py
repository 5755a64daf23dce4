"""A parameterizable synthetic workload for controlled experiments.

The paper sorts its applications into three classes by
communication-to-computation ratio and working-set size. This workload
makes those two axes (plus the store ratio and grain size) explicit
knobs, so the class boundaries — and the architecture crossover points
between them — can be swept continuously instead of sampled at seven
applications.

Structure: the run is a sequence of *phases*. In each phase every CPU
performs ``grain`` units of work; each unit touches its private
working set and, with probability ``sharing``, a line of the shared
region instead. Phases end at a barrier, and the shared region's
ownership rotates (producer/consumer hand-off), so a sharing fraction
of zero reproduces the paper's "independent jobs" class and a high
fraction with small grain reproduces the Ear/Eqntott class.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload

_WORD = 4
_LINE = 32


class SyntheticWorkload(Workload):
    """Tunable working set / sharing / grain / store-ratio workload."""

    name = "synthetic"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        private_bytes: int = 2048,
        shared_bytes: int = 1024,
        sharing: float = 0.2,
        store_ratio: float = 0.25,
        grain: int = 64,
        phases: int = 20,
        compute_per_access: int = 2,
        seed: int = 11,
    ) -> None:
        super().__init__(n_cpus, functional)
        if not 0.0 <= sharing <= 1.0:
            raise WorkloadError(f"sharing must be in [0,1], got {sharing}")
        if not 0.0 <= store_ratio <= 1.0:
            raise WorkloadError(
                f"store_ratio must be in [0,1], got {store_ratio}"
            )
        if grain <= 0 or phases <= 0:
            raise WorkloadError("grain and phases must be positive")
        self.private_bytes = private_bytes
        self.shared_bytes = shared_bytes
        self.sharing = sharing
        self.store_ratio = store_ratio
        self.grain = grain
        self.phases = phases
        self.compute_per_access = compute_per_access

        self.region = self.code.region("synthetic.phase", 48)
        self.private_base = [
            self.data.alloc_array(private_bytes // _WORD, _WORD)
            for _ in range(n_cpus)
        ]
        self.shared_base = self.data.alloc_array(shared_bytes // _WORD, _WORD)
        self.barrier = Barrier("synthetic.bar", self.code, self.data, n_cpus)

        # Pre-draw every random decision so all architectures replay
        # the identical reference stream.
        rng = np.random.default_rng(seed)
        shape = (n_cpus, phases, grain)
        self.is_shared = rng.random(shape) < sharing
        self.is_store = rng.random(shape) < store_ratio
        self.private_index = rng.integers(
            0, max(private_bytes // _WORD, 1), size=shape
        )
        self.shared_index = rng.integers(
            0, max(shared_bytes // _WORD, 1), size=shape
        )

    # ------------------------------------------------------------------

    def program(self, cpu_id: int):
        """The phase loop with the pre-drawn access decisions."""
        ctx = self.context(cpu_id)
        n_cpus = self.n_cpus
        for phase in range(self.phases):
            em = ctx.emitter(self.region)
            em.jump(0)
            top = em.label()
            # One row per phase as plain lists: the unit loop below
            # then indexes ready-made bools and ints instead of
            # unboxing four numpy scalars per unit.
            shared_flags = self.is_shared[cpu_id][phase].tolist()
            store_flags = self.is_store[cpu_id][phase].tolist()
            private_idx = self.private_index[cpu_id][phase].tolist()
            shared_idx = self.shared_index[cpu_id][phase].tolist()
            # The shared region rotates ownership: this phase, this CPU
            # works the slice its left neighbour wrote last phase.
            slice_words = max(self.shared_bytes // _WORD // n_cpus, 1)
            slice_base = self.shared_base + (
                ((cpu_id + phase) % n_cpus) * slice_words * _WORD
            )
            for unit in range(self.grain):
                if shared_flags[unit]:
                    addr = slice_base + (
                        shared_idx[unit] % slice_words
                    ) * _WORD
                else:
                    addr = self.private_base[cpu_id] + (
                        private_idx[unit] * _WORD
                    )
                if store_flags[unit]:
                    yield em.store(addr, src1=1)
                else:
                    yield em.load(addr)
                for _ in range(self.compute_per_access):
                    yield em.ialu(src1=1)
                last = unit == self.grain - 1
                yield em.branch(not last, to=top if not last else None)
            yield from self.barrier.wait(ctx)


def make(
    n_cpus: int,
    functional: FunctionalMemory,
    scale: str = "test",
    **overrides,
):
    """Factory with per-scale defaults; keyword overrides win."""
    presets = {
        "test": dict(private_bytes=1024, shared_bytes=512, phases=10,
                     grain=32),
        "bench": dict(private_bytes=4096, shared_bytes=2048, phases=40,
                      grain=96),
        "paper": dict(private_bytes=32768, shared_bytes=16384, phases=400,
                      grain=512),
    }
    try:
        params = dict(presets[scale])
    except KeyError:
        raise WorkloadError(f"unknown scale {scale!r}") from None
    params.update(overrides)
    return SyntheticWorkload(n_cpus, functional, **params)

