"""FFT — the NASA7 FFT kernel, SUIF-parallelized (paper Section 3.2.2).

The nasa7 kernel runs many independent one-dimensional FFTs; the
compiler parallelizes the *outer* loop across the transforms, so the
grain size is large and the only sharing is the one-time distribution
of the master-initialized input data plus end-of-phase barriers.
Figure 9's result: all three architectures perform similarly, the
shared caches slightly ahead because the shared-memory machine pays
L2R/L2I misses to distribute the inputs.

The butterflies here are computed for real — an in-place, radix-2,
decimation-in-time Cooley-Tukey transform over synthetic signals. The
run does a forward transform of every array, a strided spectral
exchange across all arrays (the cross-transform combination step of a
multi-dimensional FFT — the kernel's communication), and an inverse
transform; :meth:`FftWorkload.validate` checks the forward result
against ``numpy.fft`` and the round trip against the original signal,
so a bug that corrupts the access order cannot silently pass.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload, shard

_COMPLEX = 16  # interleaved re/im doubles

#: scale -> (points per FFT, number of independent FFTs)
_SCALES = {
    "test": (32, 4),
    "bench": (64, 16),
    "paper": (1024, 64),
}


class FftWorkload(Workload):
    """Outer-loop-parallel batch of radix-2 FFTs."""

    name = "fft"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        scale: str = "test",
        seed: int = 7,
    ) -> None:
        super().__init__(n_cpus, functional)
        try:
            self.n_points, self.n_ffts = _SCALES[scale]
        except KeyError:
            raise WorkloadError(f"unknown scale {scale!r}") from None
        if self.n_points & (self.n_points - 1):
            raise WorkloadError("FFT length must be a power of two")
        self.scale = scale

        self.init_region = self.code.region("fft.init", 32)
        self.bitrev_region = self.code.region("fft.bitrev", 16)
        self.butterfly_region = self.code.region("fft.butterfly", 32)
        self.exchange_region = self.code.region("fft.exchange", 24)

        # One pad line between arrays: heap-allocated vectors are not
        # cache-set aligned, and a pure power-of-two stride would pile
        # every CPU's active array onto the same shared-L1 sets.
        self.array_base = []
        for index in range(self.n_ffts):
            self.array_base.append(
                self.data.alloc_array(self.n_points, _COMPLEX)
            )
            self.data.alloc(32 * (1 + index % 7))
        self.spectrum_base = self.data.alloc_array(self.n_points, 8)
        self.barrier = Barrier("fft.bar", self.code, self.data, n_cpus)

        # Bit-reversal permutation of the indices, the same for every
        # transform of the run.
        bits = self.n_points.bit_length() - 1
        self._bit_reversed = [
            int(f"{i:0{bits}b}"[::-1], 2) for i in range(self.n_points)
        ]

        rng = np.random.default_rng(seed)
        self.inputs = rng.normal(
            size=(self.n_ffts, self.n_points)
        ) + 1j * rng.normal(size=(self.n_ffts, self.n_points))
        self.work = self.inputs.copy()
        self.forward_results: dict[int, np.ndarray] = {}
        self._round_tripped: set[int] = set()

    def _addr(self, fft: int, index: int) -> int:
        return self.array_base[fft] + index * _COMPLEX

    # ------------------------------------------------------------------

    def program(self, cpu_id: int):
        """Init, forward FFTs, spectral exchange, inverse FFTs."""
        ctx = self.context(cpu_id)
        n = self.n_points
        # Balanced outer-loop partition: identical to the historical
        # even split whenever n_cpus divides n_ffts, and well-defined
        # (possibly empty) for any other CPU count.
        own = shard(self.n_ffts, self.n_cpus, cpu_id)

        # Each CPU initializes (writes) its own arrays.
        em = ctx.emitter(self.init_region)
        em.jump(0)
        top = em.label()
        for fft in own:
            for i in range(n):
                yield em.fmul()
                yield em.store(self._addr(fft, i), src1=1)
            yield em.branch(fft != own[-1], to=top)
        yield from self.barrier.wait(ctx)

        # Forward transforms (outer-loop parallel, coarse grained).
        for fft in own:
            yield from self._one_fft(ctx, fft, inverse=False)
        yield from self.barrier.wait(ctx)

        # Spectral exchange: combine strided samples across *all*
        # transforms (the cross-FFT pass of a multi-dimensional
        # transform) — the kernel's interprocessor communication.
        em = ctx.emitter(self.exchange_region)
        em.jump(0)
        stride = max(n // 16, 1)
        for sample in range(cpu_id, n, stride * self.n_cpus):
            for fft in range(self.n_ffts):
                yield em.load(self._addr(fft, sample))
                yield em.fadd(src1=1)
            yield em.store(self.spectrum_base + 8 * sample, src1=1)
            yield em.branch(False)
        yield from self.barrier.wait(ctx)

        # Inverse transforms: the round trip restores the input.
        for fft in own:
            yield from self._one_fft(ctx, fft, inverse=True)
            self._round_tripped.add(fft)
        yield from self.barrier.wait(ctx)

    def _one_fft(self, ctx, fft: int, inverse: bool):
        """Emit (and actually compute) one in-place radix-2 FFT."""
        n = self.n_points
        data = self.work[fft]

        # Bit-reversal permutation.
        em = ctx.emitter(self.bitrev_region)
        em.jump(0)
        top = em.label()
        for i, j in enumerate(self._bit_reversed):
            if j > i:
                data[i], data[j] = data[j], data[i]
                yield em.load(self._addr(fft, i))
                yield em.load(self._addr(fft, j))
                yield em.store(self._addr(fft, j), src1=2)
                yield em.store(self._addr(fft, i), src1=2)
            yield em.branch(i != n - 1, to=top)

        # log2(n) butterfly stages.
        sign = 1j if inverse else -1j
        size = 2
        while size <= n:
            half = size // 2
            step = sign * 2 * math.pi / size
            em = ctx.emitter(self.butterfly_region)
            em.jump(0)
            top = em.label()
            for start in range(0, n, size):
                for k in range(half):
                    w = np.exp(step * k)
                    i = start + k
                    j = i + half
                    a, b = data[i], data[j]
                    t = w * b
                    data[i] = a + t
                    data[j] = a - t
                    yield em.load(self._addr(fft, i))
                    yield em.load(self._addr(fft, j))
                    yield em.fmul(src1=1, src2=2)
                    yield em.fmul(src1=2)
                    yield em.fadd(src1=2)
                    yield em.fadd(src1=3)
                    yield em.store(self._addr(fft, i), src1=2)
                    yield em.store(self._addr(fft, j), src1=2)
                    yield em.branch(
                        not (start + size >= n and k == half - 1), to=top
                    )
            size *= 2
        if inverse:
            # 1/n scaling pass.
            data /= n
            em = ctx.emitter(self.butterfly_region)
            em.jump(0)
            for i in range(0, n, 2):
                yield em.load(self._addr(fft, i))
                yield em.fmul(src1=1)
                yield em.store(self._addr(fft, i), src1=1)
                yield em.branch(False)
        else:
            self.forward_results[fft] = data.copy()

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check forward results against numpy and the round trip
        against the original signal."""
        for fft, forward in self.forward_results.items():
            expected = np.fft.fft(self.inputs[fft])
            if not np.allclose(forward, expected, atol=1e-9):
                raise WorkloadError(
                    f"FFT {fft} forward result diverged from numpy"
                )
        for fft in self._round_tripped:
            if not np.allclose(self.work[fft], self.inputs[fft], atol=1e-9):
                raise WorkloadError(
                    f"FFT {fft} inverse did not restore the input"
                )


def make(n_cpus: int, functional: FunctionalMemory, scale: str = "test"):
    """Factory for the experiment harness."""
    return FftWorkload(n_cpus, functional, scale)
