"""``repro trace``: dump a workload's instruction stream (no simulation)."""

from __future__ import annotations

import argparse

from repro.command.jobargs import add_flags
from repro.errors import ConfigError
from repro.mem.functional import FunctionalMemory
from repro.workloads import WORKLOADS


def register(subparsers) -> None:
    """Declare ``trace``."""
    parser = subparsers.add_parser(
        "trace", help="dump a workload's instruction stream (no simulation)"
    )
    add_flags(parser, ("workload", "scale"))
    # Not the machine group's pair: no machine is built, so --cpus only
    # sizes the workload and --cpu picks one of its programs.
    parser.add_argument(
        "--cpus", "-n", type=int, default=4,
        help="number of processors the workload is built for",
    )
    parser.add_argument("--cpu", type=int, default=0, help="which CPU")
    parser.add_argument(
        "--limit", type=int, default=60, help="instructions to print"
    )
    parser.set_defaults(run=run)


def run(args: argparse.Namespace) -> int:
    """Print the first ``--limit`` instructions of one CPU's program."""
    if not 0 <= args.cpu < args.cpus:
        raise ConfigError(
            f"--cpu {args.cpu} out of range for {args.cpus} CPUs"
        )
    workload = WORKLOADS[args.workload](
        args.cpus, FunctionalMemory(), args.scale
    )
    program = workload.program(args.cpu)
    print(f"# {args.workload} cpu {args.cpu} of {args.cpus} "
          f"({args.scale} scale), "
          f"first {args.limit} instructions")
    print(f"{'#':>5} {'pc':>10} {'op':<8} {'operand':<14} {'deps'}")
    value = None
    feed = 0
    for index in range(args.limit):
        try:
            inst = program.send(value) if value is not None else next(program)
        except StopIteration:
            print(f"# program ended after {index} instructions")
            break
        value = None
        if inst.want_value:
            feed += 1
            value = (0, 1, 2, 3, 1 << 20)[feed % 5]
        operand = ""
        if inst.is_memory:
            operand = f"[{inst.addr:#x}]"
        elif inst.is_branch:
            operand = ("taken" if inst.taken else "not-taken")
        deps = ""
        if inst.src1 or inst.src2:
            deps = f"src-{inst.src1}" + (f",-{inst.src2}" if inst.src2 else "")
        print(f"{index:>5} {inst.pc:>#10x} {inst.op.name:<8} "
              f"{operand:<14} {deps}")
    return 0
