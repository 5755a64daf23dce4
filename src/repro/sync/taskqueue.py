"""Distributed task queue with stealing (Volpack-style).

Each CPU owns a queue of task indices ``[head, tail)``; the head index
lives in shared memory (one cache line per queue) and is popped with an
LL/SC fetch-and-increment. A CPU that drains its own queue steals from
the other queues round-robin — the dynamic load balancing the paper's
Volpack workload uses to minimize load imbalance, at the cost of
sharing traffic on the stolen queues' head words.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.isa.codegen import CodeSpace
from repro.workloads.base import ThreadContext
from repro.workloads.layout import AddressSpace

_POP_SLOTS = 8


class TaskQueue:
    """Per-CPU task ranges with LL/SC pop and round-robin stealing."""

    def __init__(
        self,
        name: str,
        code: CodeSpace,
        data: AddressSpace,
        ranges: list[tuple[int, int]],
    ) -> None:
        """``ranges[q]`` is the half-open task-index range of queue ``q``."""
        if not ranges:
            raise WorkloadError("task queue needs at least one range")
        for start, stop in ranges:
            if stop < start:
                raise WorkloadError(f"bad task range [{start}, {stop})")
        self.name = name
        self.head_addrs = [data.alloc_line() for _ in ranges]
        self.tails = [stop for _start, stop in ranges]
        self.initial_heads = [start for start, _stop in ranges]
        self.region = code.region(f"{name}.pop", _POP_SLOTS)
        self.steals = 0
        self.pops = 0

    def initialize(self, functional) -> None:
        """Publish the initial head indices (call before the run)."""
        for addr, head in zip(self.head_addrs, self.initial_heads):
            functional.poke(addr, head)

    def pop(self, ctx: ThreadContext, queue: int):
        """Pop one task index from ``queue``; returns ``None`` if empty.

        The retry loop (``ll`` · ``ialu`` · ``sc``) is *not* a declared
        spin (:meth:`~repro.isa.stream.Emitter.spin_load`): each pass
        writes, and what it writes depends on what it read, so every
        pass goes through this generator.
        """
        em = ctx.emitter(self.region)
        em.jump(0)
        top = em.label()
        tail = self.tails[queue]
        addr = self.head_addrs[queue]
        while True:
            head = yield em.ll(addr)
            yield em.ialu(src1=1)  # bounds compare
            if head >= tail:
                yield em.branch(False)
                return None
            claimed = yield em.sc(addr, head + 1)
            if claimed:
                yield em.branch(False)
                self.pops += 1
                return head
            yield em.branch(True, to=top)

    def pop_any(self, ctx: ThreadContext):
        """Pop from the CPU's own queue, stealing from others when empty.

        Returns ``(queue, task_index)`` or ``None`` when every queue is
        empty.
        """
        n_queues = len(self.head_addrs)
        for step in range(n_queues):
            queue = (ctx.cpu_id + step) % n_queues
            task = yield from self.pop(ctx, queue)
            if task is not None:
                if step:
                    self.steals += 1
                return queue, task
        return None
