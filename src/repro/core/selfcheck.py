"""Fast end-to-end self-check (``python -m repro selfcheck``).

Runs a battery of invariant checks in a few seconds — the things that
must hold for any result out of this simulator to be trustworthy:

1. Table 2 contention-free latencies measure exactly as configured.
2. Synchronization is sound on every architecture (no lost lock
   updates, no barrier phase overlap).
3. The FFT workload's computation validates against numpy.
4. A finished run is legal on every preset under both CPU models:
   nothing is lost between levels, every Mipsy cycle is busy or a
   stall and busy cycles equal instructions, every MXS graduation
   slot is filled or lost and graduations equal instructions, and the
   coherence end state is one the discipline allows
   (:func:`check_run`, the conservation and protocol oracle).
5. Runs are deterministic.
6. A declared spin loop that Mipsy runs and parks itself leaves every
   statistic where stepping it through the thread program does.
7. A thread program that replays a stretch of instructions it already
   generated leaves every statistic where generating it again on every
   visit does.

Intended for CI and for quickly validating local modifications; the
full evidence lives in tests/ and the ``repro reproduce`` catalog.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.configs import ARCHITECTURES, paper_config, test_config
from repro.core.probes import idle_latencies
from repro.core.runner import Job
from repro.core.system import System
from repro.errors import ProtocolError, ReproError
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import resolve_topology, topology_names
from repro.sync.lock import SpinLock
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload


class SelfCheckFailure(ReproError):
    """A self-check found an invariant violation."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckFailure(message)


# ----------------------------------------------------------------------
# the conservation and protocol oracle
#
# Everything here reads a ``System`` after ``run()`` through its
# statistics, its resource counters and the caches' tag columns (and
# ``find()``); nothing goes through ``access()``, a lane or a built
# path, so a rewritten path is checked against arithmetic it cannot
# have bent to its own shape. Failures are :class:`SelfCheckFailure`,
# not ``assert``, so ``python -O`` checks as much.


def check_conservation(system, stats) -> None:
    """Nothing is lost between levels: what misses in one level is
    exactly what the next one is asked for (accesses = hits + misses
    at every cache, with the hits being what never shows up below).
    Under Mipsy every cycle of a CPU's run is busy or a stall; under
    MXS every graduation slot of every cycle is filled or lost to a
    cause, and what graduated is what the run retired."""
    memory = system.memory
    for cache in stats.caches.values():
        _check(
            0 <= cache.misses <= cache.accesses,
            f"{cache.name}: {cache.misses} misses in "
            f"{cache.accesses} accesses",
        )
    l1i = stats.aggregate_caches(".l1i")
    l1d = stats.aggregate_caches(".l1d")
    l1d_read_misses = l1d.read_misses_repl + l1d.read_misses_inval
    l1d_write_misses = l1d.write_misses_repl + l1d.write_misses_inval

    def asked(cache, reads, writes, name) -> None:
        _check(
            (cache.reads, cache.writes) == (reads, writes),
            f"{name} served {cache.reads} reads / {cache.writes} writes; "
            f"the level above sent {reads} / {writes}",
        )

    kind = system.topology.kind
    if kind == "shared-primary":
        l2 = stats.cache("chip.l2")
        asked(l2, l1d_read_misses + l1i.misses, l1d_write_misses, "l2")
        _check(
            memory.mem.reads == l2.misses,
            f"memory read {memory.mem.reads} lines for {l2.misses} "
            "L2 misses",
        )
    elif kind == "shared-memory":
        l2 = stats.aggregate_caches(".l2")
        asked(l2, l1d_read_misses + l1i.misses, l1d_write_misses, "l2")
        served = memory.bus.mem_reads + memory.bus.c2c_transfers
        _check(
            served == l2.misses,
            f"the bus served {served} lines for {l2.misses} L2 misses",
        )
    else:
        # Write-through: every store reaches every level; reads thin
        # out level by level.
        reads_below = l1d_read_misses + l1i.misses
        *deeper, shared = system.topology.levels[1:]
        for level in deeper:
            cache = stats.aggregate_caches(f".{level.name}")
            asked(cache, reads_below, l1d.writes, level.name)
            reads_below = cache.read_misses_repl + cache.read_misses_inval
        cache = stats.cache(f"shared.{shared.name}")
        asked(cache, reads_below, l1d.writes, shared.name)
        _check(
            memory.mem.reads == cache.misses,
            f"memory read {memory.mem.reads} lines for {cache.misses} "
            f"{shared.name} misses",
        )
    if system.cpu_model == "mipsy":
        for cpu, breakdown in zip(system.cpus, stats.breakdowns):
            _check(
                breakdown.total == cpu.resume <= stats.cycles,
                f"cpu{cpu.cpu_id} breakdown sums to {breakdown.total} "
                f"cycles, its run took {cpu.resume} of {stats.cycles}",
            )
        busy = stats.aggregate_breakdown().busy
        _check(
            busy == stats.instructions,
            f"{busy} busy cycles for {stats.instructions} instructions",
        )
    else:
        for cpu, mxs in zip(system.cpus, stats.mxs):
            _check(
                mxs.slots_total == cpu.params.width * mxs.cycles,
                f"cpu{cpu.cpu_id} graduated or lost {mxs.slots_total} "
                f"slots in {mxs.cycles} cycles {cpu.params.width} wide",
            )
        graduated = sum(mxs.graduated for mxs in stats.mxs)
        _check(
            graduated == stats.instructions,
            f"{graduated} graduated for {stats.instructions} instructions",
        )


def _resident(cache) -> set[int]:
    return {tag for tag in cache.tags if tag >= 0}


def _code_lines(system) -> range:
    code = system.workload.code
    shift = system.config.line_size.bit_length() - 1
    return range(
        code.base >> shift, ((code.base + code.footprint_bytes) >> shift) + 1
    )


def check_protocol(system, stats) -> None:
    """The coherence discipline's end state is legal: one writer per
    line and L2 ⊇ L1 under MESI, the directory knows every private
    copy under a shared lower level, a shared L1 holds nothing its L2
    lost, and no resource was busy for longer than the run.

    Relaxed, by name, where the model does not hold it by design:

    * *instruction lines in a deeper private level* are unknown to the
      directory and survive the shared level replacing them — an
      I-fetch refill records no holder, because code is never written
      and nothing ever has to find the copy.
    """
    memory = system.memory
    kind = system.topology.kind
    if kind == "shared-memory":
        try:
            memory.snoop.check_invariants()
        except ProtocolError as error:
            raise SelfCheckFailure(str(error)) from None
    elif kind == "shared-secondary":
        shared = _resident(memory.shared)
        code = _code_lines(system)
        for _level, arrays, _stats, _ports in memory._private:
            for cpu, cache in enumerate(arrays):
                for line_addr in _resident(cache):
                    if line_addr in code:
                        continue
                    _check(
                        memory.directory.is_holder(line_addr, cpu),
                        f"{cache.name} holds {line_addr:#x} unknown to "
                        "the directory",
                    )
                    _check(
                        line_addr in shared,
                        f"{cache.name} holds {line_addr:#x} the shared "
                        "level lost",
                    )
    else:
        lost = _resident(memory.l1d) - _resident(memory.l2)
        _check(
            not lost,
            f"the shared L1 holds {len(lost)} line(s) its L2 lost",
        )
    cycles = stats.cycles
    for name, busy in memory.resource_report(cycles).items():
        _check(busy <= 1.0, f"{name} busy {busy:.3f} of the run")


def check_run(system, stats) -> None:
    """Every invariant of a run that finished (not truncated)."""
    check_conservation(system, stats)
    check_protocol(system, stats)


# ----------------------------------------------------------------------


def check_table2_latencies() -> str:
    """Contention-free hit latencies equal the topology spec's values.

    The expected latency is not hard-wired per architecture: it is the
    first cache level's latency in each paper preset's resolved
    :class:`~repro.mem.topology.Topology` (Table 2's 3 / 1 / 1 cycles),
    so the check also guards the spec against drifting from the built
    system. The measurement is the Table 2 study's own probe.
    """
    measured_all = []
    for arch in ARCHITECTURES:
        expected = resolve_topology(arch, paper_config()).levels[0].latency
        measured = idle_latencies(arch)["l1"]
        _check(
            measured == expected,
            f"{arch} L1 hit measured {measured}, expected {expected}",
        )
        measured_all.append(str(measured))
    return f"Table 2 L1 hit latencies: {' / '.join(measured_all)} cycles"


class LockedCounter(Workload):
    """Every CPU increments one lock-protected counter ``rounds`` times."""

    name = "selfcheck-counter"

    def __init__(self, n_cpus, functional, rounds=6):
        super().__init__(n_cpus, functional)
        self.rounds = rounds
        self.region = self.code.region("sc.body", 16)
        self.lock = SpinLock("sc.lock", self.code, self.data)
        self.addr = self.data.alloc_line()

    def program(self, cpu_id):
        """Acquire, read-modify-write the counter, release."""
        ctx = self.context(cpu_id)
        em = ctx.emitter(self.region)
        for _ in range(self.rounds):
            yield from self.lock.acquire(ctx)
            em.jump(0)
            value = yield em.load(self.addr, want_value=True)
            yield em.ialu(src1=1)
            yield em.store(self.addr, value + 1)
            yield from self.lock.release(ctx)


class FlagHandoff(Workload):
    """CPU 0 computes, then raises a flag the other CPUs spin on with
    a declared spin (:meth:`~repro.isa.stream.Emitter.spin_load`)."""

    name = "selfcheck-handoff"

    def __init__(self, n_cpus, functional, work=400):
        super().__init__(n_cpus, functional)
        self.work = work
        self.region = self.code.region("sc.handoff", 8)
        self.flag = self.data.alloc_line()

    def program(self, cpu_id):
        """The producer's compute run, or the consumers' spin."""
        em = self.context(cpu_id).emitter(self.region)
        if cpu_id == 0:
            for _ in range(self.work):
                em.jump(0)
                yield em.ialu()
            yield em.store(self.flag, 1)
            return
        em.jump(2)
        top = em.label()
        while True:
            raised = yield em.spin_load(self.flag, until=1)
            if raised == 1:
                yield em.branch(False)
                return
            yield em.branch(True, to=top)


def check_synchronization() -> str:
    """A lock-protected counter loses no updates on any architecture."""
    for arch in ARCHITECTURES:
        functional = FunctionalMemory()
        workload = LockedCounter(4, functional)
        system = System(
            arch, workload, mem_config=test_config(), max_cycles=1_000_000
        )
        system.run()
        _check(not system.truncated, f"{arch}: synchronization livelocked")
        total = functional.read(workload.addr, 1 << 60)
        _check(total == 24, f"{arch}: counter is {total}, expected 24")
    return "lock-protected counter exact on all three architectures"


def check_fft_math() -> str:
    """The FFT workload's transforms validate against numpy."""
    functional = FunctionalMemory()
    workload = WORKLOADS["fft"](4, functional, "test")
    system = System(
        "shared-l1", workload, mem_config=test_config(), max_cycles=3_000_000
    )
    system.run()  # validate() raises on divergence
    _check(
        len(workload.forward_results) == workload.n_ffts,
        "not every transform completed",
    )
    return f"{workload.n_ffts} FFTs match numpy, round trips restore inputs"


#: what the ``conservation`` item runs on every preset and CPU model
ORACLE_WORKLOADS = ("eqntott", "ear")


def check_conservation_oracle() -> str:
    """Every preset under both CPU models finishes each of
    :data:`ORACLE_WORKLOADS` at test scale in a state
    :func:`check_run` accepts."""
    runs = 0
    for arch in topology_names():
        for cpu_model in ("mipsy", "mxs"):
            for workload in ORACLE_WORKLOADS:
                where = f"{workload} on {arch}/{cpu_model}"
                system = Job(
                    arch=arch, workload=workload, cpu_model=cpu_model,
                    max_cycles=3_000_000,
                ).build()
                stats = system.run()
                _check(not system.truncated, f"{where}: truncated")
                try:
                    check_run(system, stats)
                except SelfCheckFailure as failure:
                    raise SelfCheckFailure(f"{where}: {failure}") from None
                runs += 1
    return (
        f"{runs} runs conserve every level and end in a legal "
        "protocol state"
    )


def check_determinism() -> str:
    """Two identical runs produce identical statistics."""

    def run() -> tuple:
        functional = FunctionalMemory()
        workload = WORKLOADS["volpack"](4, functional, "test")
        system = System(
            "shared-mem", workload, mem_config=test_config(),
            max_cycles=3_000_000,
        )
        stats = system.run()
        return stats.cycles, stats.instructions

    first, second = run(), run()
    _check(first == second, f"nondeterministic: {first} vs {second}")
    return f"two runs identical at {first[0]} cycles"


def check_spin_elision() -> str:
    """A parked spin loop costs exactly what the stepped one does, on
    both CPU models."""
    settled = {}
    for cpu_model in ("mipsy", "mxs"):
        settled[cpu_model] = 0
        for arch in ARCHITECTURES:
            outcomes = []
            for stepped in (False, True):
                workload = FlagHandoff(4, FunctionalMemory())
                system = System(
                    arch,
                    workload,
                    cpu_model=cpu_model,
                    mem_config=test_config(),
                    max_cycles=1_000_000,
                )
                # A CPU that may not run ahead of the loop steps every
                # spin iteration through the thread program: the
                # reference.
                for cpu in system.cpus:
                    cpu._batchable = not stepped
                outcomes.append(system.run().to_dict())
                report = system.spin_report()
                _check(
                    not (stepped and report["parks"]),
                    f"{arch}/{cpu_model}: a stepped run parked a CPU",
                )
                settled[cpu_model] += report["settled_iterations"]
            _check(
                outcomes[0] == outcomes[1],
                f"{arch}/{cpu_model}: parked and stepped spin loops disagree",
            )
        _check(
            settled[cpu_model] > 0,
            f"{cpu_model}: no spin iteration was ever settled in bulk",
        )
    return (
        f"{settled['mipsy']} (Mipsy) and {settled['mxs']} (MXS) spin "
        "iterations settled in bulk, statistics identical"
    )


class _Forgetful(dict):
    """Stretch storage that keeps nothing: every visit generates."""

    def __setitem__(self, key, value) -> None:
        pass


def check_stretch_replay() -> str:
    """Replaying a value-independent stretch changes nothing simulated.

    Where a stretch is kept is the workload's decision, so the
    reference is the same workload keeping none: Ear, whose blocks
    every CPU revisits, with storage that forgets.
    """
    outcomes = []
    reports = []
    for forget in (False, True):
        workload = WORKLOADS["ear"](4, FunctionalMemory(), "test")
        if forget:
            workload._blocks = _Forgetful()
        system = System("shared-mem", workload, mem_config=test_config())
        outcomes.append(system.run().to_dict())
        reports.append(workload.generation_report())
    kept, forgot = reports
    _check(kept["replayed"] > kept["generated"], "ear replayed no block")
    _check(forgot["replayed"] == 0, "forgetful storage still replayed")
    _check(
        kept["generated"] + kept["replayed"] == forgot["generated"],
        "replaying and regenerating emitted different instruction counts",
    )
    _check(
        outcomes[0] == outcomes[1],
        "replayed and regenerated stretches disagree",
    )
    return (
        f"{kept['replayed']} instructions replayed from "
        f"{kept['generated']} generated, statistics identical"
    )


CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("table2", check_table2_latencies),
    ("synchronization", check_synchronization),
    ("fft-math", check_fft_math),
    ("conservation", check_conservation_oracle),
    ("determinism", check_determinism),
    ("spin-elision", check_spin_elision),
    ("stretch-replay", check_stretch_replay),
)


def run_selfcheck(verbose: bool = True) -> bool:
    """Run every check; returns True when all pass."""
    all_ok = True
    for name, check in CHECKS:
        started = time.perf_counter()
        try:
            detail = check()
            status = "ok"
        except SelfCheckFailure as failure:
            detail = str(failure)
            status = "FAIL"
            all_ok = False
        elapsed = time.perf_counter() - started
        if verbose:
            print(f"[{status:>4}] {name:<16} {detail} ({elapsed:.2f}s)")
    return all_ok
