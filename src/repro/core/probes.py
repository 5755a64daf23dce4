"""Measurements taken off an idle machine: the paper's two tables.

Table 2's contention-free access latencies are read by single accesses
through an idle hierarchy (:func:`idle_latencies`), Table 1's
functional-unit latencies by the CPI of a dependent chain through the
MXS pipeline (:func:`chain_cpi`). The Table 1 and Table 2 studies of
:mod:`repro.core.paper` and ``repro selfcheck`` read the same probes.
"""

from __future__ import annotations

from repro.core.configs import build_memory, paper_config, test_config
from repro.core.system import System
from repro.isa.instructions import OpClass
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import resolve_topology
from repro.mem.types import AccessKind
from repro.sim.stats import SystemStats
from repro.workloads.base import Workload

_ADDR = 0x1000_0000


def idle_latencies(arch: str) -> dict[str, int]:
    """Contention-free latency in cycles of each access type Table 2
    lists for ``arch`` at the paper's sizes: ``l1``, ``l2``, ``mem``
    and, where caches snoop a bus, ``c2c``."""
    config = paper_config()

    def idle():
        return build_memory(arch, config, SystemStats.for_cpus(config.n_cpus))

    def load(memory, cpu: int, at: int) -> int:
        return memory.access(cpu, AccessKind.LOAD, _ADDR, at).done - at

    memory = idle()
    memory.access(0, AccessKind.LOAD, _ADDR, 0)
    latencies = {"l1": load(memory, 0, 10_000)}
    # An L2 hit: conflicting loads push the line out of the L1 only.
    l1 = memory.l1d[0] if isinstance(memory.l1d, list) else memory.l1d
    at = 20_000
    for way in range(1, l1.assoc + 1):
        at = memory.access(
            0, AccessKind.LOAD, _ADDR + way * l1.n_sets * config.line_size, at
        ).done
    latencies["l2"] = load(memory, 0, at + 10_100)
    latencies["mem"] = load(idle(), 0, 10_000)
    if resolve_topology(arch, config).kind == "shared-memory":
        # CPU 1 reads a line CPU 0 holds modified (an unbuffered fill).
        owner = idle()
        owner.access(0, AccessKind.STORE_COND, _ADDR, 0)
        latencies["c2c"] = load(owner, 1, 10_000)
    return latencies


class _DependentChain(Workload):
    """CPU 0 runs ``count`` instructions of one class, each reading
    its predecessor's result."""

    name = "dependent-chain"

    def __init__(self, n_cpus, functional, op, count):
        super().__init__(n_cpus, functional)
        self.op = op
        self.count = count
        self.region = self.code.region("chain", 16)

    def program(self, cpu_id):
        """The chain itself."""
        em = self.context(cpu_id).emitter(self.region)
        for _ in range(self.count):
            em.jump(0)
            yield em.op(self.op, src1=1)


def chain_cpi(op: OpClass, count: int = 400) -> float:
    """Cycles per instruction of a dependent chain of ``op`` through
    one MXS pipeline: the result latency the model really charges
    (plus a little pipeline fill at either end)."""
    workload = _DependentChain(1, FunctionalMemory(), op, count)
    system = System(
        "shared-mem", workload, cpu_model="mxs", mem_config=test_config(1)
    )
    pipeline = system.run().mxs[0]
    return pipeline.cycles / pipeline.graduated
