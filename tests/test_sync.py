"""Tests for the synchronization primitives under full simulation."""

import pytest

from conftest import build_system

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.sync.barrier import Barrier
from repro.sync.lock import SpinLock
from repro.sync.primitives import AtomicCounter
from repro.sync.taskqueue import TaskQueue
from repro.workloads.base import Workload


class LockWorkload(Workload):
    """All CPUs increment a shared counter under a lock."""

    name = "test-lock"

    def __init__(self, n_cpus, functional, increments=10):
        super().__init__(n_cpus, functional)
        self.increments = increments
        self.region = self.code.region("lock.body", 16)
        self.lock = SpinLock("test.lock", self.code, self.data)
        self.counter_addr = self.data.alloc_line()
        self.final_values = {}

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        for _ in range(self.increments):
            yield from self.lock.acquire(ctx)
            em.jump(0)
            value = yield em.load(self.counter_addr, want_value=True)
            yield em.ialu(src1=1)
            yield em.store(self.counter_addr, value + 1)
            yield from self.lock.release(ctx)
        self.final_values[cpu_id] = None

    def validate(self):
        total = self.functional.read(self.counter_addr, 1 << 60)
        expected = self.n_cpus * self.increments
        if total != expected:
            raise WorkloadError(
                f"lost updates: counter is {total}, expected {expected}"
            )


class BarrierPhaseWorkload(Workload):
    """Phases separated by barriers; records per-phase arrival order."""

    name = "test-barrier"

    def __init__(self, n_cpus, functional, phases=6):
        super().__init__(n_cpus, functional)
        self.phases = phases
        self.region = self.code.region("phase.body", 16)
        self.barrier = Barrier("test.bar", self.code, self.data, n_cpus)
        self.trace = []

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        for phase in range(self.phases):
            # Unequal work per CPU per phase.
            for _ in range(1 + (cpu_id + phase) % 4 * 5):
                yield em.ialu()
            self.trace.append((phase, cpu_id, "arrive"))
            yield from self.barrier.wait(ctx)
            self.trace.append((phase, cpu_id, "leave"))

    def validate(self):
        # No CPU may leave phase p before every CPU arrived at phase p.
        arrivals = {}
        for phase, cpu, what in self.trace:
            arrivals.setdefault(phase, set())
            if what == "arrive":
                arrivals[phase].add(cpu)
            else:
                if len(arrivals[phase]) != self.n_cpus:
                    raise WorkloadError(
                        f"cpu {cpu} left phase {phase} early"
                    )


class CounterWorkload(Workload):
    """Atomic fetch-and-increment: all values claimed exactly once."""

    name = "test-counter"

    def __init__(self, n_cpus, functional, claims=12):
        super().__init__(n_cpus, functional)
        self.claims = claims
        self.counter = AtomicCounter("test.fai", self.code, self.data)
        self.claimed = []

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        for _ in range(self.claims):
            value = yield from self.counter.fetch_increment(ctx)
            self.claimed.append(value)

    def validate(self):
        expected = self.n_cpus * self.claims
        if sorted(self.claimed) != list(range(expected)):
            raise WorkloadError(f"duplicate or lost claims: {self.claimed}")


class QueueWorkload(Workload):
    """Task queue with stealing: every task executed exactly once."""

    name = "test-queue"

    def __init__(self, n_cpus, functional, tasks=20, skew=True):
        super().__init__(n_cpus, functional)
        self.region = self.code.region("task.body", 16)
        # Skewed ranges force stealing: queue 0 gets most tasks.
        if skew:
            ranges = [(0, tasks - n_cpus + 1)]
            for cpu in range(1, n_cpus):
                ranges.append((tasks - n_cpus + cpu, tasks - n_cpus + cpu + 1))
        else:
            per = tasks // n_cpus
            ranges = [(i * per, (i + 1) * per) for i in range(n_cpus)]
        self.queue = TaskQueue("test.q", self.code, self.data, ranges)
        self.queue.initialize(functional)
        self.tasks = tasks
        self.executed = []

    def program(self, cpu_id):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        while True:
            popped = yield from self.queue.pop_any(ctx)
            if popped is None:
                return
            _q, task = popped
            self.executed.append(task)
            for _ in range(5):
                yield em.ialu()

    def validate(self):
        if sorted(self.executed) != list(range(self.tasks)):
            raise WorkloadError(f"task set wrong: {sorted(self.executed)}")


ARCHS = ("shared-l1", "shared-l2", "shared-mem")


@pytest.mark.parametrize("arch", ARCHS)
def test_lock_provides_mutual_exclusion(arch):
    system = build_system(arch, LockWorkload, increments=8)
    system.run()  # validate() raises on lost updates
    assert not system.truncated


@pytest.mark.parametrize("arch", ARCHS)
def test_barrier_separates_phases(arch):
    system = build_system(arch, BarrierPhaseWorkload, phases=5)
    system.run()
    assert not system.truncated


@pytest.mark.parametrize("arch", ARCHS)
def test_atomic_counter_unique_claims(arch):
    system = build_system(arch, CounterWorkload, claims=8)
    system.run()
    assert not system.truncated


@pytest.mark.parametrize("arch", ARCHS)
def test_task_queue_executes_all_tasks_once(arch):
    system = build_system(arch, QueueWorkload, tasks=16)
    system.run()
    assert not system.truncated


def test_task_queue_steals_under_skew():
    system = build_system("shared-mem", QueueWorkload, tasks=24, skew=True)
    workload = system.workload
    system.run()
    assert workload.queue.steals > 0


def test_lock_contention_is_recorded():
    system = build_system("shared-mem", LockWorkload, increments=12)
    workload = system.workload
    system.run()
    assert workload.lock.acquires == 4 * 12
    assert workload.lock.contended_retries > 0


def test_barrier_under_mxs():
    system = build_system(
        "shared-l2", BarrierPhaseWorkload, cpu_model="mxs", phases=3
    )
    system.run()
    assert not system.truncated


def test_lock_under_mxs():
    system = build_system(
        "shared-l1", LockWorkload, cpu_model="mxs", increments=5
    )
    system.run()
    assert not system.truncated


def test_sync_report_collects_primitives():
    system = build_system("shared-mem", LockWorkload, increments=4)
    system.run()
    report = system.workload.sync_report()
    assert "test.lock" in report
    assert report["test.lock"]["kind"] == "lock"
    assert report["test.lock"]["acquires"] == 16


def test_sync_report_reaches_nested_primitives():
    """The barrier's internal lock and kernel locks (one level down)
    are found too."""
    from repro.mem.functional import FunctionalMemory
    from repro.workloads import WORKLOADS

    workload = WORKLOADS["multiprog"](4, FunctionalMemory(), "test")
    report = workload.sync_report()
    assert "kernel.bcache" in report
    assert "kernel.runq" in report


def test_sync_report_on_queue_workload():
    system = build_system("shared-l1", QueueWorkload, tasks=16)
    system.run()
    report = system.workload.sync_report()
    assert report["test.q"]["pops"] == 16


# ----------------------------------------------------------------------
# One walk: the report, observability and checkpointing see one name set


def _registered_workloads():
    from repro.workloads import WORKLOADS

    return sorted(WORKLOADS)


@pytest.mark.parametrize("name", _registered_workloads())
def test_report_obs_and_snapshot_see_the_same_primitives(name):
    from repro.ckpt import snapshot_system
    from repro.core.configs import config_for_scale
    from repro.core.system import System
    from repro.mem.functional import FunctionalMemory
    from repro.obs import ObsConfig
    from repro.sync import Barrier
    from repro.workloads import WORKLOADS

    workload = WORKLOADS[name](4, FunctionalMemory(), "test")
    system = System(
        "shared-l2", workload, mem_config=config_for_scale("test", 4),
        obs=ObsConfig(sample_interval=256), checkpointing=True,
    )
    objects = workload.sync_objects()
    names = set(objects)
    # A barrier's inner lock is a primitive of its own everywhere.
    for primitive in list(objects.values()):
        if isinstance(primitive, Barrier):
            assert objects[primitive.lock.name] is primitive.lock
    assert set(workload.sync_report()) == names
    # Everything that times its waits got the observation attached.
    hooked = {n for n, p in objects.items() if hasattr(p, "obs")}
    assert all(objects[n].obs is system.obs for n in hooked)
    assert all(
        report["kind"] in ("lock", "barrier")
        for n, report in workload.sync_report().items() if n in hooked
    )
    system.run(pause_at=400)
    state = snapshot_system(system)
    assert set(state["sync"]) == names
    assert state["sync"] == workload.sync_report()
