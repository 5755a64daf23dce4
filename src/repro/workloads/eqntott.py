"""Eqntott — parallel bit-vector comparison (paper Section 3.2.1).

The SPEC92 integer benchmark translates logic equations to truth
tables; ~90% of its time is one routine, the bit-vector comparison used
by the sort. The paper's parallelization: the program runs on one
*master* CPU; at every comparison the two vectors are split into four
quarters, the CPUs synchronize at a barrier, each checks its quarter in
parallel, and the master merges the per-quarter results. The work per
vector is small, so the parallelism is very fine-grained and the
communication/computation ratio is high: the master's writes to the
vectors (the sort moving entries around) must be re-fetched by every
slave each round — free inside a shared L1, a round of invalidation
misses everywhere else.

This module executes that algorithm for real: a pool of synthetic bit
vectors is compared pairwise, each CPU scans its quarter up to the
actual first difference, and the per-quarter results are merged by the
master.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload

_WORD = 4

#: scale -> (vector words, pool size, comparisons, master seq work,
#:           master writes per comparison)
_SCALES = {
    "test": (32, 4, 10, 16, 4),
    "bench": (192, 8, 60, 120, 12),
    "paper": (512, 32, 2000, 200, 64),
}


class EqntottWorkload(Workload):
    """Master/slave fine-grained parallel vector comparison."""

    name = "eqntott"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        scale: str = "test",
        seed: int = 1996,
        vec_words: int | None = None,
    ) -> None:
        super().__init__(n_cpus, functional)
        try:
            (
                self.vec_words,
                self.pool_size,
                self.comparisons,
                self.seq_work,
                self.writes_per_cmp,
            ) = _SCALES[scale]
        except KeyError:
            raise WorkloadError(f"unknown scale {scale!r}") from None
        if vec_words is not None:
            # A swept data set (Section 4.1): fewer comparisons of
            # longer vectors, so the total work stays comparable.
            self.comparisons = max(
                self.comparisons * self.vec_words // vec_words, 12
            )
            self.vec_words = vec_words
        self.scale = scale
        if self.vec_words % n_cpus:
            raise WorkloadError("vector length must divide evenly by CPUs")
        self.quarter = self.vec_words // n_cpus

        # Code layout: the master's sort bookkeeping is a bigger routine
        # than the tight comparison loop.
        self.master_region = self.code.region("eqntott.sort", 96)
        self.cmp_region = self.code.region("eqntott.cmppt", 16)
        self.merge_region = self.code.region("eqntott.merge", 24)

        # Data layout: the vector pool, and one result word per CPU —
        # deliberately packed into a single line, as the original's
        # result array would be (the merge is communication).
        self.vec_base = [
            self.data.alloc_array(self.vec_words, _WORD)
            for _ in range(self.pool_size)
        ]
        self.result_base = self.data.alloc_array(n_cpus, _WORD)
        self.barrier = Barrier("eqntott.bar", self.code, self.data, n_cpus)

        self._build_schedule(seed)

    # ------------------------------------------------------------------

    def _build_schedule(self, seed: int) -> None:
        """Run the data-dependent part of the algorithm up front.

        The vectors are real arrays; every comparison's scan length per
        quarter is the actual position of the first difference in that
        quarter (or a full scan when the quarters agree).
        """
        rng = np.random.default_rng(seed)
        vectors = rng.integers(
            0, 2**16, size=(self.pool_size, self.vec_words), dtype=np.int64
        )
        self.schedule: list[tuple[int, int, list[int], list[int]]] = []
        for _ in range(self.comparisons):
            ia, ib = rng.choice(self.pool_size, size=2, replace=False)
            # The master's sort moves entries: it rewrites a few words
            # of each vector before comparing (often making prefixes
            # agree, which is what gives eqntott its variable scan).
            positions = rng.choice(
                self.vec_words, size=self.writes_per_cmp, replace=False
            )
            copy_from = rng.integers(0, 2, size=self.writes_per_cmp)
            for pos, do_copy in zip(positions, copy_from):
                if do_copy:
                    vectors[ib][pos] = vectors[ia][pos]
                else:
                    vectors[ia][pos] = int(rng.integers(0, 2**16))
            stops = np.empty(self.n_cpus, dtype=np.int64)
            for cpu in range(self.n_cpus):
                lo = cpu * self.quarter
                hi = lo + self.quarter
                diff = np.nonzero(vectors[ia][lo:hi] != vectors[ib][lo:hi])[0]
                stops[cpu] = (diff[0] + 1) if diff.size else self.quarter
            # Plain lists: the thread programs index these per
            # emitted instruction.
            self.schedule.append(
                (int(ia), int(ib), positions.tolist(), stops.tolist())
            )

    # ------------------------------------------------------------------

    def program(self, cpu_id: int):
        """The master's (cpu 0) or a slave's comparison program."""
        ctx = self.context(cpu_id)
        quarter = self.quarter
        is_master = cpu_id == 0
        # The master's bookkeeping loop and its merge touch the same
        # words at every comparison: one stretch each, the master's own.
        kept = {}

        for ia, ib, positions, stops in self.schedule:
            base_a = self.vec_base[ia]
            base_b = self.vec_base[ib]

            if is_master:
                # Sort bookkeeping: compares, pointer chasing, and the
                # entry movement that rewrites vector words.
                em = ctx.emitter(self.master_region)
                em.jump(0)
                yield from em.replay(kept, "bookkeeping", self._bookkeeping)
                for pos in positions:
                    yield em.load(base_a + _WORD * pos, src1=1)
                    yield em.ialu(src1=1)
                    yield em.store(base_a + _WORD * pos, src1=1)
                    yield em.store(base_b + _WORD * pos, src1=2)

            yield from self.barrier.wait(ctx)

            # cmppt: scan this CPU's quarter to the first difference.
            em = ctx.emitter(self.cmp_region)
            em.jump(0)
            top = em.label()
            lo = cpu_id * quarter
            stop = stops[cpu_id]
            for i in range(stop):
                yield em.load(base_a + _WORD * (lo + i))
                yield em.load(base_b + _WORD * (lo + i))
                yield em.ialu(src1=1, src2=2)
                last = i == stop - 1
                yield em.branch(not last, to=top if not last else None, src1=1)
            yield em.store(self.result_base + _WORD * cpu_id, src1=1)

            yield from self.barrier.wait(ctx)

            if is_master:
                # Merge the per-quarter verdicts.
                em = ctx.emitter(self.merge_region)
                em.jump(0)
                yield from em.replay(kept, "merge", self._merge)

    def _bookkeeping(self, em):
        """The master's sequential compare / pointer-chase loop."""
        top = em.label()
        for i in range(self.seq_work):
            yield em.ialu(src1=1)
            if i % 8 == 7:
                last = i == self.seq_work - 1
                yield em.branch(not last, to=top if not last else None)

    def _merge(self, em):
        """The master's read of every CPU's verdict word."""
        for cpu in range(self.n_cpus):
            yield em.load(self.result_base + _WORD * cpu)
            yield em.ialu(src1=1)


def make(
    n_cpus: int,
    functional: FunctionalMemory,
    scale: str = "test",
    vec_words: int | None = None,
):
    """Factory for the experiment harness; ``vec_words`` sweeps the
    vector length away from the scale's own."""
    return EqntottWorkload(n_cpus, functional, scale, vec_words=vec_words)
