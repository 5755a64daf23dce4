"""Ocean — multigrid eddy-current simulation (paper Section 3.2.1).

The SPLASH2 Ocean kernel: the ocean is an n x n grid, each CPU owns a
square subgrid, and every relaxation sweep updates each interior point
from its four neighbours. Communication happens only at subgrid
boundaries — a thin fraction of the working set — while the sweeps
themselves stream through data much larger than any L1 cache. That is
the behaviour Figure 6 keys on: large replacement-miss traffic on all
three architectures, which punishes the shared-L2 architecture's
narrower (higher-occupancy) banks and write-through L1 traffic, and a
communication share too small for the shared caches to exploit.

The sweep here is a real red-black Gauss-Seidel relaxation over two
grids (current and previous), with the per-CPU domain decomposition of
the original: a 2x2 arrangement of subgrids for four CPUs.
"""

from __future__ import annotations

import math

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload

_ELEM = 8  # double-precision grid points

#: scale -> (grid n, sweeps). The bench grid is chosen with the 1/4
#: cache scale (4 KB L1s) rather than the default 1/8, because Ocean's
#: boundary-to-area ratio — the paper's "only a small amount of
#: communication at the edges" — cannot be preserved on a tiny grid;
#: Figure 6's study passes the matching memory configuration
#: (``repro.core.paper.BENCH_OVERRIDES``).
_SCALES = {
    "test": (18, 2),
    "bench": (82, 6),
    "paper": (130, 10),
}


class OceanWorkload(Workload):
    """Red-black relaxation with square subgrid decomposition."""

    name = "ocean"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        scale: str = "test",
    ) -> None:
        super().__init__(n_cpus, functional)
        try:
            self.n, self.sweeps = _SCALES[scale]
        except KeyError:
            raise WorkloadError(f"unknown scale {scale!r}") from None
        self.scale = scale
        # Rectangular domain decomposition: the most square rows x cols
        # factorization of n_cpus (2x2 at four CPUs, 2x4 at eight,
        # 4x4 at sixteen, 1x2 at two). Row/column bands are balanced,
        # so the interior need not divide evenly.
        rows = int(math.isqrt(n_cpus))
        while n_cpus % rows:
            rows -= 1
        self.rows = rows
        self.cols = n_cpus // rows
        interior = self.n - 2
        if interior < self.rows or interior < self.cols:
            raise WorkloadError(
                f"interior {interior} too small for a "
                f"{self.rows}x{self.cols} decomposition"
            )

        self.sweep_region = self.code.region("ocean.relax", 64)
        self.grid_a = self.data.alloc_array(self.n * self.n, _ELEM)
        self.grid_b = self.data.alloc_array(self.n * self.n, _ELEM)
        self.barrier = Barrier("ocean.bar", self.code, self.data, n_cpus)

    def _addr(self, grid: int, row: int, col: int) -> int:
        return grid + (row * self.n + col) * _ELEM

    # ------------------------------------------------------------------

    def program(self, cpu_id: int):
        """Relaxation sweeps over this CPU's subgrid."""
        ctx = self.context(cpu_id)
        row_block, col_block = divmod(cpu_id, self.cols)
        interior = self.n - 2
        rows = range(
            1 + row_block * interior // self.rows,
            1 + (row_block + 1) * interior // self.rows,
        )
        cols = range(
            1 + col_block * interior // self.cols,
            1 + (col_block + 1) * interior // self.cols,
        )

        grids = (self.grid_a, self.grid_b)
        # The grids swap roles every sweep, so sweeps of one parity
        # walk the same addresses: one stretch per parity, kept for
        # the life of this thread program.
        by_parity = {}
        for sweep in range(self.sweeps):
            parity = sweep % 2
            em = ctx.emitter(self.sweep_region)
            em.jump(0)
            yield from em.replay(
                by_parity,
                parity,
                self._sweep,
                grids[parity],
                grids[1 - parity],
                rows,
                cols,
            )
            yield from self.barrier.wait(ctx)

    def _sweep(self, em, src: int, dst: int, rows: range, cols: range):
        """One relaxation sweep of a subgrid from ``src`` into ``dst``."""
        top = em.label()
        for r in rows:
            for c in cols:
                # Five-point stencil. Left/right neighbours were
                # just loaded (registers); up/down and centre come
                # from memory. Rows owned by the neighbouring CPU
                # are the boundary communication.
                yield em.load(self._addr(src, r - 1, c))
                yield em.load(self._addr(src, r + 1, c))
                yield em.load(self._addr(src, r, c))
                yield em.fadd(src1=1, src2=2)
                yield em.fadd(src1=1, src2=2)
                yield em.fmul(src1=1)
                yield em.store(self._addr(dst, r, c), src1=1)
                yield em.branch(False)
            last = r == rows[-1]
            yield em.branch(not last, to=top if not last else None)


def make(n_cpus: int, functional: FunctionalMemory, scale: str = "test"):
    """Factory for the experiment harness."""
    return OceanWorkload(n_cpus, functional, scale)
