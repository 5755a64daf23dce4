"""Sense-reversing centralized barrier.

Each arrival increments a lock-protected counter; the last arrival
resets the counter and flips the shared sense flag, releasing the
spinners. The per-thread sense lives in the
:class:`~repro.workloads.base.ThreadContext`, so the barrier object is
shared by all CPUs.

The shared sense flag is where the architecture differences bite: the
release store invalidates every spinner's cached copy, and each spinner
re-fetches it at the latency of the level where the processors share
data — 3 cycles in the shared L1, 14 through the shared L2, a full bus
transaction in the shared-memory machine.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.isa.codegen import CodeSpace
from repro.sync.lock import SpinLock
from repro.workloads.base import ThreadContext
from repro.workloads.layout import AddressSpace

_WAIT_SLOTS = 16


class Barrier:
    """Counter + sense flag + lock, each on its own cache line."""

    def __init__(
        self,
        name: str,
        code: CodeSpace,
        data: AddressSpace,
        n_threads: int,
    ) -> None:
        if n_threads <= 0:
            raise WorkloadError("barrier needs at least one thread")
        self.name = name
        self.n_threads = n_threads
        self.lock = SpinLock(f"{name}.lock", code, data)
        self.count_addr = data.alloc_line()
        self.sense_addr = data.alloc_line()
        self.region = code.region(f"{name}.wait", _WAIT_SLOTS)
        self.episodes = 0

    def wait(self, ctx: ThreadContext):
        """Arrive at the barrier and wait for all threads
        (use with ``yield from``)."""
        sense = 1 - ctx.senses.get(self.name, 0)
        ctx.senses[self.name] = sense

        yield from self.lock.acquire(ctx)
        em = ctx.emitter(self.region)
        em.jump(0)
        count = yield em.load(self.count_addr, want_value=True)
        count += 1
        yield em.ialu(src1=1)
        if count == self.n_threads:
            # Last arrival: reset the counter, release the lock, then
            # flip the sense to free the spinners.
            self.episodes += 1
            yield em.store(self.count_addr, 0)
            yield from self.lock.release(ctx)
            yield em.store(self.sense_addr, sense)
            return
        yield em.store(self.count_addr, count)
        yield from self.lock.release(ctx)
        spin = em.label()
        while True:
            flag = yield em.spin_load(self.sense_addr, until=sense)
            if flag == sense:
                yield em.branch(False)
                return
            yield em.branch(True, to=spin)
