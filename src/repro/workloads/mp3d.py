"""MP3D — 3-D rarefied-flow particle simulation (paper Section 3.2.1).

One of the original SPLASH benchmarks, written for vector machines:
each time step pushes every particle along its velocity and scatters
updates into the space-cell array the particle currently occupies. The
particle array is large and scanned sequentially; the space cells are
shared read-write by every CPU with unstructured access — the heavy,
unstructured communication the paper describes.

Two address-layout properties drive the paper's headline MP3D result,
and both are reproduced here for real rather than assumed:

* each CPU pushes a contiguous block of particles, and the blocks are
  spaced at multiples of the shared-L1 cache's way size — so in the
  shared-L1 architecture the four CPUs' working tiles contend for the
  same cache sets (four streams into two ways), raising its
  replacement miss rate relative to the private caches as in Figure 5;
* the space-cell array aliases the particle blocks in a direct-mapped
  L2, so the extra L1 miss traffic of the shared-L1 architecture turns
  into L2 conflict misses — which disappear when the L2 is made 4-way
  associative, the paper's own ablation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload

_PARTICLE_BYTES = 32   # one cache line, close to the original's record
_CELL_BYTES = 32

#: scale -> (particles, cells per axis**3 flattened, time steps, l2_bytes)
#: l2_bytes is the matching memory configuration's L2 size, used to
#: alias the cell array onto the particle blocks in a direct-mapped L2.
_SCALES = {
    "test": (256, 64, 2, 64 * 1024),
    "bench": (2048, 256, 4, 256 * 1024),
    "paper": (35000, 4096, 20, 2 * 1024 * 1024),
}


class Mp3dWorkload(Workload):
    """Particle push + cell scatter with unstructured sharing."""

    name = "mp3d"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        scale: str = "test",
        seed: int = 3,
    ) -> None:
        super().__init__(n_cpus, functional)
        try:
            self.n_particles, self.n_cells, self.steps, l2_bytes = (
                _SCALES[scale]
            )
        except KeyError:
            raise WorkloadError(f"unknown scale {scale!r}") from None
        self.scale = scale
        self.block = self.n_particles // n_cpus
        if self.block == 0:
            raise WorkloadError("need at least one particle per CPU")

        self.move_region = self.code.region("mp3d.move", 48)
        self.collide_region = self.code.region("mp3d.collide", 24)

        # Particle blocks: contiguous per CPU. The whole array is
        # line-aligned; blocks land at multiples of block*32 bytes,
        # which for power-of-two particle counts are multiples of the
        # shared-L1 way size — the source of the cross-CPU set
        # conflicts in the shared-L1 architecture.
        self.particles_base = self.data.alloc_array(
            self.n_particles, _PARTICLE_BYTES
        )
        # Space cells: placed exactly one L2-way above the particles so
        # that cells and particles contend for the same direct-mapped
        # L2 sets (the paper's conflict-miss mechanism).
        cells_base = self.particles_base + l2_bytes
        span = l2_bytes
        while cells_base < self.particles_base + self.n_particles * _PARTICLE_BYTES:
            # Tiny scales: the particle array itself is longer than one
            # L2 way; step to the next aliasing point past it.
            cells_base += span
        self.cells_base = self.data.alloc_at(
            cells_base, self.n_cells * _CELL_BYTES
        )
        self.barrier = Barrier("mp3d.bar", self.code, self.data, n_cpus)

        # The actual simulation state: positions evolve as a seeded
        # random walk; the cell a particle scatters into is computed
        # from its real position each step. Particles start spatially
        # banded (each CPU's block occupies a region of the duct, as
        # MP3D's initial layout does), so most cell updates have owner
        # locality while drift and band edges produce the unstructured
        # read-write sharing the paper describes.
        rng = np.random.default_rng(seed)
        positions = (
            np.arange(self.n_particles) + rng.random(self.n_particles)
        ) / self.n_particles
        velocities = rng.normal(0.0, 0.01, self.n_particles)
        # A fast-molecule minority travels the whole duct: these are
        # the particles whose cell updates produce the unstructured
        # cross-CPU read-write sharing (the L2 invalidation misses that
        # dominate the shared-memory architecture in Figure 5).
        fast = rng.random(self.n_particles) < 0.35
        positions[fast] = rng.random(int(fast.sum()))
        velocities[fast] *= 8.0
        self.cell_index = np.empty(
            (self.steps, self.n_particles), dtype=np.int64
        )
        for step in range(self.steps):
            positions = (positions + velocities) % 1.0
            self.cell_index[step] = np.minimum(
                (positions * self.n_cells).astype(np.int64),
                self.n_cells - 1,
            )

    # ------------------------------------------------------------------

    def program(self, cpu_id: int):
        """Tiled move/scatter passes plus the collision phase."""
        ctx = self.context(cpu_id)
        lo = cpu_id * self.block
        hi = lo + self.block
        pbase = self.particles_base
        cbase = self.cells_base

        tile = 48  # particles (lines) per tile: fits a private L1
        # A tile's move pass and the collision slice walk the same
        # addresses every time step (only the scatter follows the
        # particles), so each is one stretch for this thread program.
        kept = {}
        for step in range(self.steps):
            cells = self.cell_index[step][lo:hi].tolist()
            for tile_lo in range(lo, hi, tile):
                tile_hi = min(tile_lo + tile, hi)
                # Pass 1 — move: integrate each particle in the tile.
                em = ctx.emitter(self.move_region)
                em.jump(0)
                yield from em.replay(
                    kept, tile_lo, self._move, tile_lo, tile_hi
                )
                # Pass 2 — scatter: re-read each particle (the tile is
                # the reuse a private L1 keeps and the shared L1 loses
                # to cross-CPU set conflicts) and update its space cell.
                em = ctx.emitter(self.move_region)
                em.jump(0)
                top = em.label()
                for p in range(tile_lo, tile_hi):
                    paddr = pbase + p * _PARTICLE_BYTES
                    yield em.load(paddr)
                    yield em.load(paddr + 24)
                    yield em.fmul(src1=1, src2=2)
                    caddr = cbase + cells[p - lo] * _CELL_BYTES
                    yield em.load(caddr)
                    yield em.fadd(src1=1)
                    yield em.store(caddr, src1=1)
                    last = p == tile_hi - 1
                    yield em.branch(not last, to=top if not last else None)
            # Collision phase: re-read a slice of cells (more sharing).
            em = ctx.emitter(self.collide_region)
            em.jump(0)
            yield from em.replay(kept, "collide", self._collide, cpu_id)
            yield from self.barrier.wait(ctx)

    def _move(self, em, tile_lo: int, tile_hi: int):
        """The move pass over one tile of particles."""
        pbase = self.particles_base
        top = em.label()
        for p in range(tile_lo, tile_hi):
            paddr = pbase + p * _PARTICLE_BYTES
            yield em.load(paddr)
            yield em.load(paddr + 8)
            yield em.fadd(src1=1, src2=2)
            yield em.fmul(src1=1)
            yield em.store(paddr, src1=1)
            yield em.store(paddr + 16, src1=2)
            last = p == tile_hi - 1
            yield em.branch(not last, to=top if not last else None)

    def _collide(self, em, cpu_id: int):
        """The collision pass over one CPU's slice of the cells."""
        cbase = self.cells_base
        top = em.label()
        chunk = self.n_cells // self.n_cpus
        for c in range(cpu_id * chunk, (cpu_id + 1) * chunk):
            caddr = cbase + c * _CELL_BYTES
            yield em.load(caddr)
            yield em.fmul(src1=1)
            yield em.store(caddr, src1=1)
            last = c == (cpu_id + 1) * chunk - 1
            yield em.branch(not last, to=top if not last else None)


def make(n_cpus: int, functional: FunctionalMemory, scale: str = "test"):
    """Factory for the experiment harness."""
    return Mp3dWorkload(n_cpus, functional, scale)
