"""Import shim: the command line lives in :mod:`repro.command`."""

from repro.command import build_parser, main

__all__ = ["build_parser", "main"]
