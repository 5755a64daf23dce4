#!/usr/bin/env python
"""Render the ``repro.ckpt/1`` wire-format table into the docs.

``docs/CHECKPOINTING.md`` §2 carries one table row per stateful class,
generated from ``repro.ckpt.snapshot.CODECS`` — the table the snapshot
walker itself reads — between the two ``wire-table`` markers. Run bare
to rewrite that region after changing a codec row; ``--check`` exits
non-zero when the committed document no longer matches
(``tests/test_documentation.py`` holds the same comparison).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _golden import settle, wants_check
from repro.ckpt.snapshot import CODECS

DOC_PATH = (
    Path(__file__).resolve().parent.parent / "docs" / "CHECKPOINTING.md"
)
BEGIN = "<!-- wire-table:begin (scripts/gen_ckpt_wire_table.py) -->"
END = "<!-- wire-table:end -->"


def render() -> str:
    """One markdown row per codec row, in table order."""
    lines = ["| class | lies on the wire as | fields |", "|---|---|---|"]
    for cls, (fields, shape) in CODECS.items():
        described = ", ".join(field.doc for field in fields)
        lines.append(f"| `{cls.__name__}` | {shape} | {described} |")
    return "\n".join(lines)


def committed(text: str) -> str:
    """The table region of the document (without its markers)."""
    return text.split(BEGIN, 1)[1].split(END, 1)[0].strip("\n")


def spliced(text: str) -> str:
    """``text`` with the table region replaced by :func:`render`."""
    head, rest = text.split(BEGIN, 1)
    tail = rest.split(END, 1)[1]
    return f"{head}{BEGIN}\n{render()}\n{END}{tail}"


def main(argv: list[str]) -> int:
    check = wants_check(argv)
    text = DOC_PATH.read_text(encoding="utf-8")
    return settle({DOC_PATH: spliced(text).encode("utf-8")}, check)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
