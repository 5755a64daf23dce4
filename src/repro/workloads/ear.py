"""Ear — SUIF-parallelized inner-ear model (paper Section 3.2.2).

Ear models the cochlea as a cascade of filter stages over an array of
frequency channels. The SUIF compiler parallelizes its "very short
running loops that perform a small amount of work per iteration", so
the grain size is extremely small: every filter stage is a parallel
loop a few dozen iterations long, bracketed by barriers, and the data
each stage reads was written by a *different* CPU in the previous stage
(the loop partitioning rotates, as block-scheduled loops over shifting
array sections do).

The working set — the channel state — is tiny and fits in any L1; what
dominates on the private-L1 architectures is pure communication: the
paper reports Ear's L1I rate as the highest of all its applications,
with essentially zero memory stalls on the shared-L1 machine.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload

_ELEM = 8

#: scale -> (channels, filter stages x time samples = phases, taps)
_SCALES = {
    "test": (32, 12, 1),
    "bench": (64, 80, 3),
    "paper": (256, 2000, 4),
}


class EarWorkload(Workload):
    """Cascade of short parallel loops with rotating partitions."""

    name = "ear"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        scale: str = "test",
    ) -> None:
        super().__init__(n_cpus, functional)
        try:
            self.channels, self.phases, self.taps = _SCALES[scale]
        except KeyError:
            raise WorkloadError(f"unknown scale {scale!r}") from None
        self.scale = scale
        if self.channels % n_cpus:
            raise WorkloadError("channels must divide evenly by CPUs")
        self.chunk = self.channels // n_cpus

        self.filter_region = self.code.region("ear.filter", 32)
        self.state_base = self.data.alloc_array(self.channels, _ELEM)
        self.output_base = self.data.alloc_array(self.channels, _ELEM)
        # Filter coefficients: read-only, replicated per stage.
        self.coeff_base = self.data.alloc_array(self.taps * 4, _ELEM)
        self.barrier = Barrier("ear.bar", self.code, self.data, n_cpus)
        # Every CPU runs every block in turn through the same code at
        # the same addresses, so a block is one stretch for them all.
        self._blocks: dict = {}

    # ------------------------------------------------------------------

    def program(self, cpu_id: int):
        """One CPU's filter-cascade thread program."""
        ctx = self.context(cpu_id)

        for phase in range(self.phases):
            # Rotating block schedule: this CPU's chunk this phase was
            # written by its neighbour last phase — every phase migrates
            # the whole (small) working set between caches.
            block = (cpu_id + phase) % self.n_cpus
            em = ctx.emitter(self.filter_region)
            em.jump(0)
            yield from em.replay(self._blocks, block, self._block, block)
            yield from self.barrier.wait(ctx)

    def _block(self, em, block: int):
        """The filter loop over one block of channels."""
        chunk = self.chunk
        lo = block * chunk
        top = em.label()
        for i in range(lo, lo + chunk):
            state = self.state_base + i * _ELEM
            neighbour = self.state_base + ((i + 1) % self.channels) * _ELEM
            yield em.load(state)
            yield em.load(neighbour)
            # Cascade of second-order filter sections per channel.
            for tap in range(self.taps):
                yield em.load(self.coeff_base + (tap * 4) * _ELEM)
                yield em.fmul(src1=1, src2=2)
                yield em.fmul(src1=2)
                yield em.fadd(src1=1, src2=3)
                yield em.fadd(src1=1)
            yield em.store(state, src1=1)
            yield em.store(self.output_base + i * _ELEM, src1=1)
            last = i == lo + chunk - 1
            yield em.branch(not last, to=top if not last else None)


def make(n_cpus: int, functional: FunctionalMemory, scale: str = "test"):
    """Factory for the experiment harness."""
    return EarWorkload(n_cpus, functional, scale)
