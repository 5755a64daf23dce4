"""``repro selfcheck``: the fast invariant battery (seconds; for CI)."""

from __future__ import annotations

import argparse

from repro.core.selfcheck import run_selfcheck


def register(subparsers) -> None:
    """Declare ``selfcheck``."""
    subparsers.add_parser(
        "selfcheck",
        help="run the fast invariant battery (seconds; for CI)",
    ).set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    """Exit status 0 when every check holds."""
    return 0 if run_selfcheck() else 1
