#!/usr/bin/env python3
"""Build your own workload against the public API.

The simulator is execution-driven: a workload is a class whose
``program(cpu_id)`` generators execute a real algorithm and emit typed
instructions with real addresses. This example implements a software
pipeline — CPU 0 produces work items into a shared ring buffer, CPUs
1..3 consume them under a lock — and shows how sharply the producer/
consumer hand-off cost varies with the level of the memory hierarchy at
which the CPUs communicate.

Usage:
    python examples/custom_workload.py
"""

from repro.core.report import format_breakdown_table, normalized_times
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison
from repro.mem.functional import FunctionalMemory
from repro.sync.lock import SpinLock
from repro.workloads.base import Workload

_WORD = 4


class PipelineWorkload(Workload):
    """Single producer, multiple consumers over a shared ring buffer."""

    name = "pipeline"

    def __init__(self, n_cpus: int, functional: FunctionalMemory,
                 items: int = 60, ring_slots: int = 8,
                 work_per_item: int = 40) -> None:
        super().__init__(n_cpus, functional)
        self.items = items
        self.ring_slots = ring_slots
        self.work_per_item = work_per_item

        self.produce_region = self.code.region("pipe.produce", 32)
        self.consume_region = self.code.region("pipe.consume", 48)

        # The ring: one cache line per slot (payload), plus shared
        # head/tail counters protected by a lock.
        self.ring_base = self.data.alloc_array(ring_slots, 32)
        self.head_addr = self.data.alloc_line()   # next slot to consume
        self.tail_addr = self.data.alloc_line()   # next slot to fill
        self.lock = SpinLock("pipe.lock", self.code, self.data)
        self.consumed = []

    # -- producer ------------------------------------------------------

    def _produce(self, ctx):
        em = ctx.emitter(self.produce_region)
        for item in range(self.items):
            # Wait for a free slot: tail - head < ring_slots.
            while True:
                em.jump(0)
                head = yield em.load(self.head_addr, want_value=True)
                yield em.ialu(src1=1)
                if item - head < self.ring_slots:
                    yield em.branch(False)
                    break
                yield em.branch(True, to=0)
            # Fill the slot (a line of payload) and publish the tail.
            slot = self.ring_base + (item % self.ring_slots) * 32
            for word in range(8):
                yield em.fmul()
                yield em.store(slot + word * _WORD, src1=1)
            yield em.store(self.tail_addr, value=item + 1)

    # -- consumers -----------------------------------------------------

    def _consume(self, ctx):
        em = ctx.emitter(self.consume_region)
        while True:
            # Claim the next item under the lock.
            yield from self.lock.acquire(ctx)
            em.jump(0)
            head = yield em.load(self.head_addr, want_value=True)
            tail = yield em.load(self.tail_addr, want_value=True)
            yield em.ialu(src1=1, src2=2)
            if head >= self.items:
                yield from self.lock.release(ctx)
                return
            if head >= tail:
                # Ring empty: release and retry.
                yield from self.lock.release(ctx)
                yield em.branch(True, to=0)
                continue
            yield em.store(self.head_addr, value=head + 1)
            yield from self.lock.release(ctx)

            # Read the payload the producer wrote, then crunch on it.
            slot = self.ring_base + (head % self.ring_slots) * 32
            for word in range(8):
                yield em.load(slot + word * _WORD)
            for _ in range(self.work_per_item):
                yield em.fadd(src1=1)
            self.consumed.append(head)

    def program(self, cpu_id: int):
        ctx = self.context(cpu_id)
        if cpu_id == 0:
            yield from self._produce(ctx)
        else:
            yield from self._consume(ctx)

    def validate(self) -> None:
        missing = set(range(self.items)) - set(self.consumed)
        if missing:
            raise AssertionError(f"items never consumed: {sorted(missing)}")
        if len(self.consumed) != len(set(self.consumed)):
            raise AssertionError("an item was consumed twice")


def make(n_cpus, functional, scale="test"):
    items = {"test": 40, "bench": 200, "paper": 2000}[scale]
    return PipelineWorkload(n_cpus, functional, items=items)


def main() -> int:
    print("Producer/consumer pipeline across the three architectures")
    results = run_architecture_comparison(Job(
        arch="shared-mem", workload=make, cpu_model="mipsy", scale="test",
        max_cycles=10_000_000,
    ))
    print()
    print(format_breakdown_table(
        results, title="pipeline: execution time (shared-mem = 1.0)"
    ))
    print()
    times = normalized_times(results)
    print("Every item crosses between CPUs once, so the ranking tracks")
    print("the communication latency of each design:")
    for arch in sorted(times, key=times.get):
        print(f"  {arch:<12} {times[arch]:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
