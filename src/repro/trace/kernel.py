"""Packed trace columns: the decode every replay reads.

:class:`PackedTrace` decodes a trace once into flat per-CPU ``array``
columns (kind, addr, pc) — 9 bytes a reference whenever every address
and pc of the trace fits 32 bits, 17 when one does not;
:func:`load_packed` serves that decode from a per-process memo or a
binary sidecar beside the trace, so a recorded trace pays the text
parse at most once. Both CPU models replay from
these columns (:mod:`repro.trace.replay`): under Mipsy each CPU is a
:class:`~repro.trace.replay.TraceCpu` reading them directly, under MXS
a thread program re-issues them as instructions.

:func:`replay_kernel` is kept as the name of a plain Mipsy replay:
a :class:`~repro.core.system.System` over the packed trace, run to
the end.
"""

from __future__ import annotations

import hashlib
import os
import sys
import zlib
from array import array
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.core.store import publish, read_verified
from repro.errors import ArtifactMiss, WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.mem.hierarchy import MemConfig
from repro.mem.types import AccessKind
from repro.sim.stats import SystemStats
from repro.trace.format import Row, parse_rows, per_cpu_columns
from repro.trace.store import check_text

_IFETCH = int(AccessKind.IFETCH)

#: pc of the references recorded before any fetch
_DEFAULT_PC = 0x0040_0000

#: address/pc column type of a trace whose every value fits 32 bits
#: (every stock workload's); a trace with one that does not is packed
#: ``q``, 8 bytes wide
_NARROW = "I"
assert array(_NARROW).itemsize == 4


class PackedTrace:
    """A decoded trace as flat per-CPU reference columns.

    I-fetch records are folded into a ``pc`` column: each executed
    reference carries the pc of the most recent recorded fetch, and a
    replaying CPU probes the I-cache where that pc enters a new line.
    So of adjacent fetch rows — a run of fetches with no load or store
    between them, where the recorded program crossed lines in compute
    and branches — only the last is replayed, and a fetch after a
    CPU's last reference is not replayed at all. The I-cache sees a
    subset of the recorded fetches, never one the recording lacks
    (docs/REPLAY.md, "Determinism and the format").

    The ``addrs`` and ``pcs`` columns are 4-byte unsigned (``I``) when
    every value of the trace fits, else 8-byte ``q``: the data picks
    the width, and the :meth:`digest` does not see it.
    """

    __slots__ = ("n_cpus", "n_records", "kinds", "addrs", "pcs", "_digest")

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
        self._digest = None
        if self.n_records == 0:
            raise WorkloadError("empty trace")
        try:
            self._fold_as(_NARROW, kinds, addrs)
        except OverflowError:  # a value past 32 bits: the whole trace wide
            self._fold_as("q", kinds, addrs)

    def _fold_as(
        self, code: str, kinds: list[array], addrs: list[array]
    ) -> None:
        #: per-CPU reference kinds (AccessKind values; IFETCH folded)
        self.kinds = [array("b") for _ in kinds]
        #: per-CPU effective addresses
        self.addrs = [array(code) for _ in kinds]
        #: per-CPU fetch pc of each reference
        self.pcs = [array(code) for _ in kinds]
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

    def digest(self) -> str:
        """SHA-256 of the columns, little-endian on every host and each
        address and pc as an int64 whatever width stores it: which
        stream this is, whatever file or recording it came from. The
        columns never change, so it is computed once."""
        if self._digest is None:
            digest = hashlib.sha256(b"%d" % self.n_cpus)
            for code, columns in (
                ("b", self.kinds), ("q", self.addrs), ("q", self.pcs)
            ):
                for column in columns:
                    if column.typecode != code or sys.byteorder != "little":
                        column = array(code, column)
                        if sys.byteorder != "little":
                            column.byteswap()
                    digest.update(b"%d:" % len(column))
                    digest.update(column)
            self._digest = digest.hexdigest()
        return self._digest


#: Small per-process memo of decoded traces: a sweep replays one
#: recording against many configs, and under ``--jobs 1`` every point
#: runs in this process — decoding the same file once per *trace*
#: instead of once per *job* is most of the decode bill.
_DECODE_CACHE: dict = {}
_DECODE_CACHE_CAP = 8

#: sidecar format marker, bumped with the layout (another version's
#: sidecar is stale, not an error: re-derived over); v3 records the
#: address/pc column width in its header
_SIDECAR_MAGIC = b"repro-packed-v3\n"

#: address/pc column type by the width a v3 sidecar header records
_CODE_OF_WIDTH = {array(code).itemsize: code for code in (_NARROW, "q")}


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
        header.frombytes(body[:8 * (5 + n_cpus)])
        size, mtime_ns, cpus, n_records, value_width = header[:5]
        if (size, mtime_ns, cpus) != (stat.st_size, stat.st_mtime_ns, n_cpus):
            return None
        value_code = _CODE_OF_WIDTH[value_width]
        columns = []
        at = 8 * len(header)
        for count in header[5:]:
            # kinds, addrs, pcs of one CPU
            for code in ("b", value_code, value_code):
                column = array(code)
                width = count * column.itemsize
                column.frombytes(body[at:at + width])
                columns.append(column)
                at += width
        packed = PackedTrace.__new__(PackedTrace)
        packed.n_cpus, packed.n_records = n_cpus, n_records
        packed._digest = None
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
        packed.addrs[0].itemsize,
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
    returned object is shared: treat it as read-only (replay does).
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
    """Replay ``packed`` on ``arch`` under the Mipsy timing model: a
    :class:`~repro.core.system.System` over a
    :class:`~repro.trace.replay.TraceWorkload` of it, run to the end
    (each CPU a :class:`~repro.trace.replay.TraceCpu`)."""
    from repro.core.system import System
    from repro.trace.replay import TraceWorkload

    system = System(
        arch,
        TraceWorkload.from_packed(FunctionalMemory(), packed),
        mem_config=mem_config,
        max_cycles=max_cycles,
    )
    stats = system.run()
    return KernelRun(
        stats=stats,
        truncated=system.truncated,
        arch=system.arch,
        resources=system.memory.resource_report(max(stats.cycles, 1)),
    )
