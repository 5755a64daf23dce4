"""The ``repro`` command line: a registry of verb modules.

Each module under this package owns one verb group. It exposes
``register(subparsers)``, which declares the group's parsers —
composing the shared flag groups of :mod:`repro.command.jobargs`
instead of re-declaring them — and binds them to its ``run(args) ->
int``. :func:`main` parses, calls whatever ``run`` the chosen parser
bound, and owns the one error contract: a
:class:`~repro.errors.ReproError` is ``error: ...`` on stderr and exit
status 2. ``python -m repro <verb> --help`` is the reference for every
flag; all output is plain text, suitable for piping into reports.

A verb module turns flags into values, calls the library and prints.
Anything a test, a script or another module would want to call — how a
``Job`` becomes a ``System``, which figures exist, what a result
looks like on disk — belongs under :mod:`repro.core` (or ``obs`` /
``serve`` / ``ckpt``), which never imports this package.
"""

from __future__ import annotations

import argparse
import sys

from repro.command import (
    cache,
    catalog,
    ckpt,
    client,
    matrix,
    obs,
    reproduce,
    run,
    selfcheck,
    serve,
    trace,
)
from repro.errors import ReproError

#: in ``repro --help`` order
VERBS = (
    catalog, run, matrix, reproduce, ckpt, obs, trace, serve, client,
    cache, selfcheck,
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Evaluation of Design Alternatives for a "
            "Multiprocessor Microprocessor' (ISCA 1996)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        verb.register(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: run the chosen verb; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
