"""Synthetic operating-system activity (paper Section 3.2.3).

SimOS runs the real IRIX kernel; we substitute a generator that
reproduces the two kernel behaviours the paper's multiprogramming
analysis leans on:

* **shared kernel text and data** — system-call handlers and the
  scheduler run the same code (same PCs) on every CPU and touch shared
  structures (run queue, buffer cache) under spin locks. As the kernel
  migrates across CPUs, a shared L1 keeps one copy of its hot data;
  private caches pay invalidation misses. The paper measures 16% of
  non-idle time in the kernel;
* **instruction-working-set pressure** — kernel text adds to the user
  code footprint, pushing the combined instruction working set past the
  I-cache.

Buffer-cache reads/writes copy data between a shared kernel buffer and
the calling process's private user buffer, so each syscall moves real
lines across protection domains the way ``read(2)``/``write(2)`` do.
"""

from __future__ import annotations

from repro.isa.codegen import CodeSpace
from repro.sync.lock import SpinLock
from repro.workloads.base import ThreadContext
from repro.workloads.layout import AddressSpace

_WORD = 4
_LINE = 32


class KernelActivity:
    """Shared kernel image: text, data, and syscall generators."""

    def __init__(
        self,
        code: CodeSpace,
        kernel_data: AddressSpace,
        n_buffers: int = 16,
        buffer_words: int = 16,
        runqueue_entries: int = 8,
    ) -> None:
        # Kernel text: one copy, shared by every process on every CPU.
        self.entry_region = code.region("kernel.syscall_entry", 24)
        self.read_region = code.region("kernel.fs_read", 48)
        self.write_region = code.region("kernel.fs_write", 48)
        self.sched_region = code.region("kernel.scheduler", 40)

        # Kernel data: shared across all CPUs.
        self.buffer_words = buffer_words
        self.buffers = [
            kernel_data.alloc_array(buffer_words, _WORD)
            for _ in range(n_buffers)
        ]
        self.runqueue_base = kernel_data.alloc_array(runqueue_entries, _LINE)
        self.runqueue_entries = runqueue_entries
        self.bcache_lock = SpinLock("kernel.bcache", code, kernel_data)
        self.runq_lock = SpinLock("kernel.runq", code, kernel_data)
        self.syscalls = 0
        self.sched_ticks = 0
        self._stretches: dict = {}

    # ------------------------------------------------------------------

    def _replay(self, ctx: ThreadContext, region, key, body, *args):
        """Emit the stretch ``body(em, *args)`` generates at the top of
        ``region``, generating it the first time ``key`` is asked for.

        Kernel text and data are one copy for every CPU, so one stretch
        serves every thread that passes through with the same operands
        (use with ``yield from``)."""
        em = ctx.emitter(region)
        em.jump(0)
        return em.replay(self._stretches, key, body, *args)

    @staticmethod
    def _entry(em):
        """Trap entry/exit overhead: save/restore, dispatch."""
        for _ in range(10):
            yield em.ialu()
        yield em.branch(True, to=0)

    def _copy(self, em, src: int, dst: int):
        """Word-by-word copy of one buffer."""
        for w in range(self.buffer_words):
            yield em.load(src + w * _WORD)
            yield em.store(dst + w * _WORD, src1=1)
            yield em.branch(False)

    def _scan_runqueue(self, em):
        for entry in range(self.runqueue_entries):
            addr = self.runqueue_base + entry * _LINE
            yield em.load(addr)
            yield em.ialu(src1=1)
            yield em.store(addr, src1=1)
            yield em.branch(False)

    def sys_read(self, ctx: ThreadContext, buffer_id: int, user_addr: int):
        """Copy one kernel buffer into the caller's user buffer."""
        self.syscalls += 1
        yield from self._replay(ctx, self.entry_region, "entry", self._entry)
        yield from self.bcache_lock.acquire(ctx)
        buffer = self.buffers[buffer_id % len(self.buffers)]
        yield from self._replay(
            ctx,
            self.read_region,
            ("read", buffer, user_addr),
            self._copy,
            buffer,
            user_addr,
        )
        yield from self.bcache_lock.release(ctx)

    def sys_write(self, ctx: ThreadContext, buffer_id: int, user_addr: int):
        """Copy the caller's user buffer into a kernel buffer."""
        self.syscalls += 1
        yield from self._replay(ctx, self.entry_region, "entry", self._entry)
        yield from self.bcache_lock.acquire(ctx)
        buffer = self.buffers[buffer_id % len(self.buffers)]
        yield from self._replay(
            ctx,
            self.write_region,
            ("write", buffer, user_addr),
            self._copy,
            user_addr,
            buffer,
        )
        yield from self.bcache_lock.release(ctx)

    def sched_tick(self, ctx: ThreadContext):
        """Clock-interrupt scheduler pass over the shared run queue."""
        self.sched_ticks += 1
        yield from self._replay(ctx, self.entry_region, "entry", self._entry)
        yield from self.runq_lock.acquire(ctx)
        yield from self._replay(
            ctx, self.sched_region, "sched", self._scan_runqueue
        )
        yield from self.runq_lock.release(ctx)
