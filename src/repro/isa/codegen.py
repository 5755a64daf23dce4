"""Synthetic code layout.

Workloads do not execute real MIPS binaries, but their instruction
fetches must still exercise the instruction cache the way the original
programs did: tight loops reuse a few cache lines, large programs (the
gcc-based multiprogramming workload) sweep an instruction working set
far bigger than the 16 KB I-cache.

A :class:`CodeSpace` carves a region of the simulated address space into
named :class:`CodeRegion` "functions". Each region is a contiguous run
of 4-byte instruction slots; an :class:`~repro.isa.stream.Emitter` walks
a region linearly and wraps (or jumps between labels) the way control
flow would.
"""

from __future__ import annotations

from repro.errors import WorkloadError

INSTRUCTION_BYTES = 4


class CodeRegion:
    """A contiguous block of instruction slots representing one function.

    Attributes:
        name: human-readable label.
        base: byte address of the first instruction.
        size: number of instruction slots.
    """

    def __init__(self, name: str, base: int, size: int) -> None:
        if size <= 0:
            raise WorkloadError(f"code region {name!r} must have size > 0")
        if base % INSTRUCTION_BYTES:
            raise WorkloadError(
                f"code region {name!r} base {base:#x} is not aligned"
            )
        self.name = name
        self.base = base
        self.size = size
        # One int per slot, shared by every instruction emitted at it:
        # a stretch built fresh holds its pcs, not copies of them.
        self._pcs = tuple(
            range(base, base + size * INSTRUCTION_BYTES, INSTRUCTION_BYTES)
        )
        # Emitted-instruction memo, shared by every Emitter walking this
        # region (Instructions are immutable, so a hot loop body is
        # built once and re-yielded; see repro.isa.stream).
        self._inst_cache: dict = {}
        #: instructions generated into stretches of this region, and
        #: instructions replayed from them (host-side tallies for
        #: Workload.generation_report())
        self.generated = 0
        self.replayed = 0

    @property
    def limit(self) -> int:
        """One past the last valid instruction address."""
        return self.base + self.size * INSTRUCTION_BYTES

    def pc_of(self, index: int) -> int:
        """Byte address of instruction slot ``index`` (wraps modulo size).

        Wrapping models a loop body that is longer than the region by
        re-entering at the top, keeping fetch addresses inside the
        function's footprint. Every index of one slot gets the same
        int object.
        """
        return self._pcs[index % self.size]

    def contains(self, pc: int) -> bool:
        """Whether ``pc`` falls inside this region."""
        return self.base <= pc < self.limit

    def __repr__(self) -> str:
        return (
            f"<CodeRegion {self.name!r} base={self.base:#x} "
            f"size={self.size}>"
        )


class CodeSpace:
    """Allocates non-overlapping :class:`CodeRegion` blocks.

    Regions are handed out bump-allocator style, optionally padded to
    cache-line multiples so distinct functions never share an I-cache
    line (matching how linkers align functions).
    """

    def __init__(
        self,
        base: int = 0x0040_0000,
        align: int = 32,
    ) -> None:
        if align % INSTRUCTION_BYTES:
            raise WorkloadError("alignment must be a multiple of 4 bytes")
        self.base = base
        self.align = align
        self._cursor = base
        self._regions: dict[str, CodeRegion] = {}

    def region(self, name: str, size: int) -> CodeRegion:
        """Allocate (or return the previously allocated) region ``name``.

        ``size`` is in instruction slots. Asking again for an existing
        name with a different size is an error — function footprints are
        fixed once laid out.
        """
        existing = self._regions.get(name)
        if existing is not None:
            if existing.size != size:
                raise WorkloadError(
                    f"code region {name!r} already allocated with size "
                    f"{existing.size}, requested {size}"
                )
            return existing
        region = CodeRegion(name, self._cursor, size)
        self._regions[name] = region
        footprint = size * INSTRUCTION_BYTES
        padded = -(-footprint // self.align) * self.align
        self._cursor += padded
        return region

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def __iter__(self):
        return iter(self._regions.values())

    def __getitem__(self, name: str) -> CodeRegion:
        return self._regions[name]

    @property
    def footprint_bytes(self) -> int:
        """Total bytes of code laid out so far."""
        return self._cursor - self.base

    def __len__(self) -> int:
        return len(self._regions)
