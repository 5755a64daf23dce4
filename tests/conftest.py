"""Shared fixtures and tiny workloads for the test suite."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from repro.core.configs import test_config as make_test_config
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.sim.stats import SystemStats
from repro.sync.barrier import Barrier
from repro.workloads.base import Workload


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module: a golden generator is
    also the case matrix of the suite that checks its output."""
    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: workload -> whether the loop variables of a thread program that
#: stands inside a stretch say an earlier visit generated it: ocean's
#: sweeps 0 and 1 generate the two grid parities, multiprog's first
#: pass over a function body generates it.
REVISITING = {
    "ocean": lambda at: at["sweep"] >= 2,
    "multiprog": lambda at: at.get("_pass", 0) >= 1,
}


def replaying_cpus(workload_name: str, programs) -> int:
    """How many of the suspended thread ``programs`` stand inside a
    replayed stretch: the innermost of the program's chain of
    ``yield from`` generators is handing out a stretch's tuple, and
    the chain's merged locals (inner names win) say it is a revisit."""
    count = 0
    for inner in programs:
        at: dict = {}
        while getattr(inner, "gi_frame", None) is not None:
            at.update(inner.gi_frame.f_locals)
            inner = inner.gi_yieldfrom
        if type(inner).__name__ == "tuple_iterator":
            count += REVISITING[workload_name](at)
    return count


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the experiment runner's default cache at a throwaway dir.

    CLI invocations under test would otherwise read and write the
    user's real on-disk result cache (~/.cache/repro-isca96).
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


class RecordingHandle:
    """In-process stand-in for a BusHandle (store-hook tests)."""

    def __init__(self):
        self.events = []
        self.parent_pid = os.getpid()

    def emit(self, kind, **fields):
        self.events.append((kind, fields))

    def kinds(self):
        return [kind for kind, _ in self.events]


class LoopWorkload(Workload):
    """Each CPU streams loads/stores over a private array, no sharing."""

    name = "test-loop"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        iterations: int = 50,
        array_words: int = 64,
        stores: bool = True,
    ) -> None:
        super().__init__(n_cpus, functional)
        self.iterations = iterations
        self.array_words = array_words
        self.stores = stores
        self.region = self.code.region("loop.body", 32)
        self.arrays = [
            self.data.alloc_array(array_words, 4) for _ in range(n_cpus)
        ]

    def program(self, cpu_id: int):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        base = self.arrays[cpu_id]
        for _ in range(self.iterations):
            em.jump(0)
            top = em.label()
            for i in range(self.array_words):
                yield em.load(base + 4 * i)
                yield em.ialu(src1=1)
                if self.stores:
                    yield em.store(base + 4 * i, src1=1)
                last = i == self.array_words - 1
                yield em.branch(not last, to=top if not last else None)


class SharingWorkload(Workload):
    """CPU 0 writes a block each round; everyone else reads it back."""

    name = "test-sharing"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        rounds: int = 5,
        block_words: int = 32,
    ) -> None:
        super().__init__(n_cpus, functional)
        self.rounds = rounds
        self.block_words = block_words
        self.region = self.code.region("share.body", 32)
        self.block = self.data.alloc_array(block_words, 4)
        self.barrier = Barrier("share.bar", self.code, self.data, n_cpus)

    def program(self, cpu_id: int):
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        for round_no in range(self.rounds):
            if cpu_id == 0:
                em.jump(0)
                for i in range(self.block_words):
                    yield em.store(self.block + 4 * i, src1=1)
            yield from self.barrier.wait(ctx)
            em.jump(0)
            for i in range(self.block_words):
                yield em.load(self.block + 4 * i)
                yield em.ialu(src1=1)
            yield from self.barrier.wait(ctx)


def build_system(
    arch: str,
    workload_cls=LoopWorkload,
    cpu_model: str = "mipsy",
    n_cpus: int = 4,
    max_cycles: int = 2_000_000,
    **workload_kwargs,
):
    """Construct a small system around one of the toy workloads."""
    functional = FunctionalMemory()
    workload = workload_cls(n_cpus, functional, **workload_kwargs)
    return System(
        arch,
        workload,
        cpu_model=cpu_model,
        mem_config=make_test_config(n_cpus),
        max_cycles=max_cycles,
    )


@pytest.fixture
def stats4() -> SystemStats:
    return SystemStats.for_cpus(4)


@pytest.fixture
def functional() -> FunctionalMemory:
    return FunctionalMemory()
