"""On-disk trace format.

One record per line::

    <cpu> <kind> <hex addr> <pc hex>

``kind`` is one of ``I`` (ifetch), ``L`` (load), ``S`` (store) or
``C`` (store-conditional). The issue cycle is deliberately *not*
stored: replay timing comes from the replaying machine, not the
recording one (the whole point of trace-driven methodology). Lines
starting with ``#`` are comments.

In memory a stream lives either as :class:`TraceRecord` tuples or as
*per-CPU columns* — one ``array`` of kind codes and one of addresses
per CPU, I-fetch rows included (their address is the fetch pc). The
columns are what the recorder fills, what replay is built from,
and — each CPU's stream in issue order, CPU after CPU —
exactly the canonical order of the file.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from repro.errors import ReproError, WorkloadError
from repro.mem.types import AccessKind

_HEADER = "# repro trace v1: cpu kind addr pc\n"
_CODES = "ILSC"  # indexed by AccessKind value
_CODE_TO_KIND = {code: value for value, code in enumerate(_CODES)}
_IFETCH = int(AccessKind.IFETCH)

#: rows :func:`write_columns` formats per write: the text of a whole
#: column is never held at once, whatever the trace's length
_CHUNK_ROWS = 1 << 12

#: a :class:`TraceRecord`'s four fields as a plain tuple, the kind a
#: plain ``int`` (what the bulk paths move instead of record objects)
Row = tuple[int, int, int, int]


class TraceRecord(NamedTuple):
    """One memory reference in a captured trace."""

    cpu: int
    kind: AccessKind
    addr: int
    pc: int

    def to_line(self) -> str:
        """Serialize to the one-line on-disk format."""
        return f"{self.cpu} {_CODES[self.kind]} {self.addr:x} {self.pc:x}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        for cpu, kind, addr, pc in parse_rows([line]):
            return cls(cpu, AccessKind(kind), addr, pc)
        raise ReproError(f"malformed trace line: {line!r}")


def parse_rows(lines: Iterable[str]) -> Iterator[Row]:
    """Yield one ``(cpu, kind, addr, pc)`` row per reference line.

    The one parser of the text format: comments and blank lines are
    skipped, anything else that is not four well-formed fields is a
    :class:`~repro.errors.ReproError` naming the line.
    """
    for line in lines:
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            cpu, code, addr, pc = fields
            row = (
                int(cpu),
                _CODE_TO_KIND[code],
                int(addr, 16),
                # every non-fetch row of a recorded trace carries pc 0
                int(pc, 16) if pc != "0" else 0,
            )
        except ValueError:
            raise ReproError(
                f"malformed trace line: {line.strip()!r}"
            ) from None
        except KeyError:
            raise ReproError(
                f"unknown access kind {code!r} in trace line "
                f"{line.strip()!r}"
            ) from None
        yield row


def per_cpu_columns(
    n_cpus: int, rows: Iterable[Row]
) -> tuple[list[array], list[array]]:
    """Split ``rows`` into per-CPU ``(kinds, addrs)`` columns.

    The one place a row from outside (a trace file, a caller's record
    list) is checked before replay sees it: a CPU id outside
    ``[0, n_cpus)``, a negative address or pc, or an address that does
    not fit the 64-bit column is a :class:`~repro.errors.WorkloadError`
    naming the row. An I-fetch row keeps its pc in the address column;
    the pc of any other row is dropped, since replay executes every
    reference at the pc of the most recent fetch.
    """
    if n_cpus <= 0:
        raise WorkloadError("n_cpus must be positive")
    kinds = [array("b") for _ in range(n_cpus)]
    addrs = [array("q") for _ in range(n_cpus)]
    for cpu, kind, addr, pc in rows:
        if not 0 <= cpu < n_cpus:
            raise WorkloadError(
                f"trace row {_describe(cpu, kind, addr, pc)} references "
                f"cpu {cpu} but the machine has {n_cpus}"
            )
        if addr < 0 or pc < 0:
            raise WorkloadError(
                f"trace row {_describe(cpu, kind, addr, pc)}: an address "
                "or pc is negative"
            )
        try:
            addrs[cpu].append(pc if kind == _IFETCH and pc else addr)
        except OverflowError:
            raise WorkloadError(
                f"trace row {_describe(cpu, kind, addr, pc)}: address "
                "does not fit in 64 bits"
            ) from None
        kinds[cpu].append(kind)
    if not any(kinds):
        raise WorkloadError("empty trace")
    return kinds, addrs


def _describe(cpu: int, kind: int, addr: int, pc: int) -> str:
    return repr(f"{cpu} {_CODES[kind]} {addr:x} {pc:x}")


def canonical_order(records: Iterable[TraceRecord]) -> list[TraceRecord]:
    """Records grouped by CPU, each stream in issue order.

    The global interleaving of a recorded trace carries no semantics —
    replay splits it back into per-CPU streams — but it *does* depend
    on the recording machine's tick rotation, which would make
    record -> replay -> record produce permuted (if equivalent) files.
    Grouping by CPU is a stable sort, so it canonicalizes the file
    without touching any stream.
    """
    return sorted(records, key=lambda record: record.cpu)


def write_trace(path: str | Path, records: Iterable[TraceRecord]) -> int:
    """Write records to ``path`` as given; returns the count written."""
    count = 0
    with Path(path).open("w") as handle:
        handle.write(_HEADER)
        for record in records:
            handle.write(record.to_line() + "\n")
            count += 1
    return count


def write_columns(
    path: str | Path, kinds: list[array], addrs: list[array]
) -> int:
    """Write per-CPU columns to ``path``; returns the count written.

    Byte-identical to ``write_trace(path, canonical_order(records))``
    of the same stream recorded as tuples, bulk-formatted
    :data:`_CHUNK_ROWS` rows at a time. An I-fetch row's pc is its
    address; other rows carry 0.
    """
    with Path(path).open("w") as handle:
        handle.write(_HEADER)
        for cpu, (cpu_kinds, cpu_addrs) in enumerate(zip(kinds, addrs)):
            templates = [
                f"{cpu} {code} %x " + ("%x\n" if code == "I" else "0\n")
                for code in _CODES
            ]
            for start in range(0, len(cpu_kinds), _CHUNK_ROWS):
                stop = start + _CHUNK_ROWS
                handle.write(
                    "".join(
                        [
                            templates[kind]
                            % ((addr, addr) if kind == _IFETCH else addr)
                            for kind, addr in zip(
                                cpu_kinds[start:stop], cpu_addrs[start:stop]
                            )
                        ]
                    )
                )
    return sum(map(len, kinds))


def read_trace(path: str | Path) -> Iterator[TraceRecord]:
    """Yield records from ``path`` (skipping comments and blanks)."""
    with Path(path).open() as handle:
        for cpu, kind, addr, pc in parse_rows(handle):
            yield TraceRecord(cpu, AccessKind(kind), addr, pc)
