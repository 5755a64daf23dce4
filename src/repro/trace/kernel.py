"""Batch-specialized replay engine over packed trace columns.

Replaying a trace through the ordinary interpreter still pays the full
per-instruction machinery — generator resumption, ``Instruction``
allocation, the CPU tick dispatch — for a stream whose every reference
is already known. :class:`PackedTrace` decodes a trace once into flat
per-CPU ``array`` columns (kind, addr, pc), and :func:`replay_kernel`
drives the cache/coherence probe loop directly over those columns:
no generator protocol, no Event objects, no per-reference Python
dispatch beyond the probes themselves.

The kernel is a *specialization*, not a reimplementation: it mirrors
:meth:`repro.core.system.System.run` (rotating tick order,
fast-forward to the earliest resume, truncation, end-of-run drain
accounting) and :meth:`repro.cpu.mipsy.MipsyCpu.tick` (line-crossing
I-fetch probes, the L1-hit fast lanes, stall attribution) statement
for statement, and the differential suite in
``tests/test_replay_kernel.py`` holds its ``SystemStats`` bit-identical
to interpreter-mode replay on every architecture. Only the Mipsy model
is specialized — MXS replay takes the interpreter path (its
out-of-order core keeps real per-instruction state that cannot be
flattened away).
"""

from __future__ import annotations

import dataclasses
import os
import zlib
from array import array
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.core.store import publish, read_verified
from repro.errors import ArtifactMiss, ConfigError, WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemConfig
from repro.mem.types import AccessKind, StallLevel
from repro.sim.stats import SystemStats
from repro.trace.format import Row, parse_rows, per_cpu_columns
from repro.trace.replay import _DEFAULT_PC
from repro.trace.store import check_text

_IFETCH = int(AccessKind.IFETCH)
_LOAD = int(AccessKind.LOAD)
_STORE = int(AccessKind.STORE)
_SC = int(AccessKind.STORE_COND)


class PackedTrace:
    """A decoded trace as flat per-CPU reference columns.

    I-fetch records are folded into a ``pc`` column: each executed
    reference carries the pc of the most recent recorded fetch (the
    same constant-pc rule :class:`~repro.trace.replay.TraceWorkload`
    replays by), so the kernel re-derives the recorded fetch stream
    with one shift-and-compare per reference — for *any* line size.
    """

    __slots__ = ("n_cpus", "n_records", "kinds", "addrs", "pcs")

    def __init__(self, n_cpus: int, records: Iterable[Row] = ()) -> None:
        self._fold(*per_cpu_columns(n_cpus, records))

    @classmethod
    def from_file(cls, n_cpus: int, path: str | Path) -> "PackedTrace":
        """Decode a trace file into packed columns.

        Equivalent to ``cls(n_cpus, read_trace(path))`` without the
        record objects.
        """
        with Path(path).open() as handle:
            return cls(n_cpus, parse_rows(handle))

    @classmethod
    def from_columns(
        cls, kinds: list[array], addrs: list[array]
    ) -> "PackedTrace":
        """Pack per-CPU columns (see :mod:`repro.trace.format`) as a
        :class:`~repro.trace.recorder.TraceRecorder` fills them."""
        self = cls.__new__(cls)
        self._fold(kinds, addrs)
        return self

    def _fold(self, kinds: list[array], addrs: list[array]) -> None:
        """Drop the I-fetch rows, carrying their pcs onto the
        references that follow them."""
        self.n_cpus = len(kinds)
        self.n_records = sum(map(len, kinds))
        if self.n_records == 0:
            raise WorkloadError("empty trace")
        #: per-CPU reference kinds (AccessKind values; IFETCH folded)
        self.kinds = [array("b") for _ in kinds]
        #: per-CPU effective addresses
        self.addrs = [array("q") for _ in kinds]
        #: per-CPU fetch pc of each reference
        self.pcs = [array("q") for _ in kinds]
        for cpu, (cpu_kinds, cpu_addrs) in enumerate(zip(kinds, addrs)):
            keep_kind = self.kinds[cpu].append
            keep_addr = self.addrs[cpu].append
            keep_pc = self.pcs[cpu].append
            pc = _DEFAULT_PC
            for kind, addr in zip(cpu_kinds, cpu_addrs):
                if kind == _IFETCH:
                    pc = addr
                else:
                    keep_kind(kind)
                    keep_addr(addr)
                    keep_pc(pc)

    def __len__(self) -> int:
        """Executed (non-fetch) references across all CPUs."""
        return sum(len(kinds) for kinds in self.kinds)


#: Small per-process memo of decoded traces: a sweep replays one
#: recording against many configs, and under ``--jobs 1`` every point
#: runs in this process — decoding the same file once per *trace*
#: instead of once per *job* is most of the decode bill.
_DECODE_CACHE: dict = {}
_DECODE_CACHE_CAP = 8

#: sidecar format marker, bumped with the layout (another version's
#: sidecar is stale, not an error: re-derived over)
_SIDECAR_MAGIC = b"repro-packed-v2\n"


def _sidecar_path(path: Path, n_cpus: int) -> Path:
    return path.with_name(f".{path.name}.{n_cpus}.packed")


def _read_sidecar(path: Path, n_cpus: int, stat) -> "PackedTrace | None":
    """Load a previously published binary sidecar, or ``None``.

    A CRC-32 of everything after the magic has a damaged sidecar
    evicted, not replayed as a different workload; the header's copy of
    the source trace's size and mtime keeps a re-recorded trace from
    being served a stale decode.
    """

    def decode(data: bytes) -> "PackedTrace | None":
        head = len(_SIDECAR_MAGIC)
        if data[:head] != _SIDECAR_MAGIC:
            return None
        body = memoryview(data)[head + 4:]
        if zlib.crc32(body) != int.from_bytes(data[head:head + 4], "little"):
            raise ValueError("sidecar fails its CRC")
        header = array("q")
        header.frombytes(body[:8 * (4 + n_cpus)])
        size, mtime_ns, cpus, n_records = header[:4]
        if (size, mtime_ns, cpus) != (stat.st_size, stat.st_mtime_ns, n_cpus):
            return None
        columns = []
        at = 8 * len(header)
        for count in header[4:]:
            for code in "bqq":  # kinds, addrs, pcs of one CPU
                column = array(code)
                width = count * column.itemsize
                column.frombytes(body[at:at + width])
                columns.append(column)
                at += width
        packed = PackedTrace.__new__(PackedTrace)
        packed.n_cpus, packed.n_records = n_cpus, n_records
        packed.kinds = columns[0::3]
        packed.addrs = columns[1::3]
        packed.pcs = columns[2::3]
        return packed

    try:
        return read_verified(_sidecar_path(path, n_cpus), decode, "trace")
    except ArtifactMiss:
        return None


def _write_sidecar(
    path: Path, n_cpus: int, stat, packed: PackedTrace
) -> int:
    """Best-effort: cache the decode as a binary sidecar beside the
    trace (native byte order — a local cache, not an interchange
    format); returns the bytes written. Failures (read-only store,
    full disk) count as 0; the text trace stays the source of truth."""
    header = array("q", [
        stat.st_size,
        stat.st_mtime_ns,
        n_cpus,
        packed.n_records,
        *map(len, packed.kinds),
    ])
    body = [header]
    for c in range(n_cpus):
        body += (packed.kinds[c], packed.addrs[c], packed.pcs[c])
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    chunks = [_SIDECAR_MAGIC, crc.to_bytes(4, "little"), *body]

    def write(tmp: Path) -> None:
        with tmp.open("wb") as handle:
            handle.writelines(chunks)

    try:
        return publish(_sidecar_path(path, n_cpus), write).st_size
    except OSError:
        return 0


def _memo_key(path: Path, n_cpus: int, stat) -> tuple:
    return (os.fspath(path), n_cpus, stat.st_size, stat.st_mtime_ns)


def _remember(key: tuple, packed: PackedTrace) -> None:
    while len(_DECODE_CACHE) >= _DECODE_CACHE_CAP:
        _DECODE_CACHE.pop(next(iter(_DECODE_CACHE)))
    _DECODE_CACHE[key] = packed


def seed_packed(path: Path, stat, packed: PackedTrace) -> int:
    """Publish ``packed`` as the decode of the trace at ``path``.

    For a recorder that still holds the stream it just wrote: ``stat``
    is that text file's, and the sidecar and this process's memo are
    filled exactly as the first :func:`load_packed` would have filled
    them, minus the text parse. Returns the sidecar bytes written.
    """
    _remember(_memo_key(path, packed.n_cpus, stat), packed)
    return _write_sidecar(path, packed.n_cpus, stat, packed)


def load_packed(n_cpus: int, path: str | Path) -> PackedTrace:
    """Decode ``path`` with a per-process (path, stat) memo.

    The memo key includes size and mtime, so a re-recorded trace is
    never served stale; entries evict oldest-first past the cap. On a
    memo miss the decode is loaded from (or cached into) a binary
    sidecar beside the trace, so across processes each trace pays the
    text parse at most once — never, when a store recorded it — and a
    parse first holds a store's text to the digest in its meta. The
    returned object is shared: treat it as read-only (the kernel does).
    """
    path = Path(path)
    stat = os.stat(path)
    key = _memo_key(path, n_cpus, stat)
    packed = _DECODE_CACHE.get(key)
    if packed is None:
        packed = _read_sidecar(path, n_cpus, stat)
        if packed is None:
            check_text(path)
            packed = PackedTrace.from_file(n_cpus, path)
            _write_sidecar(path, n_cpus, stat, packed)
        _remember(key, packed)
    return packed


class KernelRun(NamedTuple):
    """Outcome of one :func:`replay_kernel` invocation."""

    stats: SystemStats
    truncated: bool
    #: resolved topology name (the run's architectural identity)
    arch: str
    #: ``memory.resource_report`` over the finished run
    resources: dict


def replay_kernel(
    packed: PackedTrace,
    arch,
    mem_config: MemConfig | None = None,
    max_cycles: int | None = None,
) -> KernelRun:
    """Replay ``packed`` on ``arch`` under the Mipsy timing model.

    The statistics are bit-identical
    to building a :class:`~repro.core.system.System` over a
    :class:`~repro.trace.replay.TraceWorkload` of the same trace and
    running it — this function *is* that run, with the interpreter
    machinery specialized away. Comments of the form ``System:`` /
    ``Mipsy:`` anchor each block to the code it mirrors; any change to
    the run loop or the Mipsy tick must land here too (the differential
    suite catches drift).
    """
    from repro.core.configs import build_memory
    from repro.mem.topology import resolve_topology

    # System: a private copy, so the model-specific field set below is
    # this run's and never the caller's.
    config = dataclasses.replace(
        mem_config if mem_config is not None else MemConfig()
    )
    n_cpus = packed.n_cpus
    if config.n_cpus != n_cpus:
        raise ConfigError(
            f"memory config has {config.n_cpus} CPUs but the trace was "
            f"packed for {n_cpus}"
        )
    # System: resolve the topology before the model-specific config
    # mutation, then build the memory against the mutated config.
    topology = resolve_topology(arch, config)
    config.shared_l1_optimistic = True  # Mipsy models the L1 optimistically
    stats = SystemStats.for_cpus(n_cpus)
    memory = build_memory(topology, config, stats)
    functional = FunctionalMemory()

    # BaseCpu.__init__: binding the per-CPU l1i counters creates their
    # entries up front, exactly as constructing the CPUs would.
    l1i = [stats.cache(f"cpu{c}.l1i") for c in range(n_cpus)]
    breakdowns = stats.breakdowns
    line_shift = memory.config.line_size.bit_length() - 1

    kinds = packed.kinds
    addrs = packed.addrs
    pcs = packed.pcs
    lengths = [len(kinds[c]) for c in range(n_cpus)]
    index = [0] * n_cpus
    resume = [0] * n_cpus
    done = [False] * n_cpus
    fetch_line = [-1] * n_cpus

    access = memory.access
    # Per-CPU fast-lane closures, indexed by CPU id — the same bound
    # lanes the CPU models hold, minus even the dispatch through the
    # fast_* methods.
    lanes = [memory.fast_lanes(c) for c in range(n_cpus)]
    lane_ifetch = [lane[0] for lane in lanes]
    lane_load = [lane[1] for lane in lanes]
    lane_store = [lane[2] for lane in lanes]
    k_ifetch = AccessKind.IFETCH
    k_load = AccessKind.LOAD
    k_store = AccessKind.STORE
    k_sc = AccessKind.STORE_COND
    lvl_l2 = StallLevel.L2
    lvl_mem = StallLevel.MEM
    lvl_c2c = StallLevel.C2C
    lvl_l1 = StallLevel.L1
    lvl_storebuf = StallLevel.STOREBUF

    huge = 1 << 62
    limit = max_cycles if max_cycles is not None else huge
    truncated = False
    cycle = 0
    active = [c for c in range(n_cpus)]

    # System.run: the per-rotation tick orders are precomputed so the
    # inner loop walks a ready-made list (rebuilt when a CPU finishes).
    n_active = len(active)
    orders = [
        [active[(slot + r) % n_active] for slot in range(n_active)]
        for r in range(n_cpus)
    ]

    # System.run: the loop skeleton — truncation checked at the top,
    # rotating tick order over the active list, earliest-resume
    # fast-forward.
    while active:
        if cycle >= limit:
            truncated = True
            break

        finished = False
        earliest = huge
        for c in orders[cycle % n_cpus]:
            if done[c]:
                continue
            if resume[c] <= cycle:
                # Mipsy.tick, flattened. Pulling past the end of the
                # column is the interpreter's StopIteration tick: the
                # CPU discovers completion and retires nothing.
                i = index[c]
                if i >= lengths[c]:
                    done[c] = True
                    finished = True
                    continue
                index[c] = i + 1
                kind_c = kinds[c]
                addr = addrs[c][i]
                pc = pcs[c][i]

                # Mipsy: every instruction counts one I-fetch and one
                # busy cycle (folded from ``index`` in the epilogue);
                # only line crossings probe the I-cache.
                exec_start = cycle
                line = pc >> line_shift
                if line != fetch_line[c]:
                    fetch_line[c] = line
                    if lane_ifetch[c](pc, cycle) < 0:
                        fetch = access(c, k_ifetch, pc, cycle)
                        fetch_done = fetch.done
                        if fetch_done - cycle > 1:
                            breakdowns[c].istall += fetch_done - cycle - 1
                            exec_start = fetch_done - 1

                kind = kind_c[i]
                if kind == _LOAD:
                    at = lane_load[c](addr, exec_start)
                    if at >= 0:
                        stall = at - exec_start - 1
                        if stall > 0:
                            breakdowns[c].l1d += stall
                        resume[c] = at
                        if at < earliest:
                            earliest = at
                        continue
                    result = access(c, k_load, addr, exec_start)
                elif kind == _STORE:
                    at = lane_store[c](addr, exec_start)
                    if at >= 0:
                        stall = at - exec_start - 1
                        if stall > 0:
                            breakdowns[c].storebuf += stall
                        resume[c] = at
                        if at < earliest:
                            earliest = at
                        continue
                    result = access(c, k_store, addr, exec_start)
                else:
                    result = access(c, k_sc, addr, exec_start)

                stall = result.done - exec_start - 1
                if stall > 0:
                    level = result.level
                    breakdown = breakdowns[c]
                    if level == lvl_l2:
                        breakdown.l2 += stall
                    elif level == lvl_mem:
                        breakdown.mem += stall
                    elif level == lvl_c2c:
                        breakdown.c2c += stall
                    elif level == lvl_l1:
                        breakdown.l1d += stall
                    elif level == lvl_storebuf:
                        breakdown.storebuf += stall
                    else:
                        breakdown.l1d += stall
                if kind == _SC:
                    # BaseCpu.apply_memory_semantics: the SC consults
                    # the functional memory (with no recorded
                    # reservation it deterministically fails and
                    # writes nothing — the recorded stream already
                    # contains the original run's retries).
                    functional.store_conditional(
                        c, addr, 0, result.visible_cycle
                    )
                resume[c] = result.done

            r = resume[c]
            if r < earliest:
                earliest = r
        if finished:
            active = [c for c in active if not done[c]]
            if not active:
                break
            n_active = len(active)
            orders = [
                [active[(slot + r) % n_active] for slot in range(n_active)]
                for r in range(n_cpus)
            ]

        next_cycle = cycle + 1
        if earliest > next_cycle:
            next_cycle = earliest
        cycle = next_cycle

    # System.run epilogue: fold the batched counters, account the
    # drain, stamp totals. (finish() and validate() are no-ops for
    # Mipsy and trace replay.) MipsyCpu.flush_stats: a CPU's column
    # index is its retired-instruction count, and every instruction is
    # exactly one I-fetch and one busy cycle.
    for c in range(n_cpus):
        l1i[c].reads += index[c]
        breakdowns[c].busy += index[c]
    end_cycle = max(resume)
    end_cycle = max(end_cycle, memory.drain(cycle))
    stats.cycles = end_cycle
    stats.instructions = sum(index)
    return KernelRun(
        stats=stats,
        truncated=truncated,
        arch=topology.name,
        resources=memory.resource_report(max(end_cycle, 1)),
    )
