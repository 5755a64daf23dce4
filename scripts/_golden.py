"""What the golden generators share: ``--check`` and the final write.

A generator renders its outputs to memory and hands them to
:func:`settle`, which writes them — or, under ``--check``, compares
them with the committed files and reports drift, so a golden that no
longer regenerates from its own script is caught without touching it.
"""

from __future__ import annotations

import sys
from pathlib import Path


def wants_check(argv: list[str]) -> bool:
    """Parse the generators' one flag; anything else is a usage error."""
    if argv not in ([], ["--check"]):
        print(f"usage: {Path(sys.argv[0]).name} [--check]", file=sys.stderr)
        raise SystemExit(2)
    return bool(argv)


def settle(
    outputs: dict[Path, bytes], check: bool, same=bytes.__eq__
) -> int:
    """Write ``outputs`` (path -> content), or under ``check`` compare
    each with the committed file through ``same(committed, fresh)``;
    returns the process exit status."""
    status = 0
    for path, fresh in outputs.items():
        if not check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(fresh)
            print(f"wrote {path}")
        elif path.exists() and same(path.read_bytes(), fresh):
            print(f"{path} regenerates identically")
        else:
            print(f"DRIFT: {path} no longer regenerates from its script")
            status = 1
    return status
