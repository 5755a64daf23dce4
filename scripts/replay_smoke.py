#!/usr/bin/env python3
"""End-to-end smoke test of the trace-replay lane (CI ``replay-smoke``).

Scenario (see docs/REPLAY.md):

1. Record eqntott once into a throwaway trace store — the
   record-on-first-use half of the lane — and check the cold path:
   the recording published its binary sidecar, the first
   ``load_packed`` parses no text, and the text is byte for byte what
   an independent recording writes record by record.
2. Replay a three-point line-size sweep through the batch kernel —
   the record-once/sweep-many half.
3. Re-simulate every point through the interpreter
   (``TraceWorkload`` + ``System``) and diff the full ``SystemStats``
   dict: the kernel's differential contract, checked on a machine
   that is not the test suite's.

Exit status 0 on success; a cold-path failure or any stats divergence
prints what broke and returns 1.
"""

from __future__ import annotations

import sys
import tempfile
from unittest import mock

sys.path.insert(0, "src")

from repro.core.configs import config_for_scale
from repro.core.runner import Job
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.trace import kernel
from repro.trace.format import canonical_order, write_trace
from repro.trace.kernel import PackedTrace, load_packed, replay_kernel
from repro.trace.recorder import record_run
from repro.trace.replay import TraceWorkload
from repro.trace.store import REFERENCE_ARCH, TraceStore

WORKLOAD = "eqntott"
SCALE = "test"
N_CPUS = 4
ARCH = "shared-l2"
LINE_SIZES = (32, 64, 128)


def diff_stats(kernel: dict, interp: dict, label: str) -> bool:
    if kernel == interp:
        return True
    print(f"FAIL {label}: kernel and interpreter stats diverge")
    keys = sorted(kernel.keys() | interp.keys())
    for key in keys:
        if kernel.get(key) != interp.get(key):
            print(f"  {key}: kernel={kernel.get(key)!r} "
                  f"interpreter={interp.get(key)!r}")
    return False


def cold_path_problems(path, tmp: str) -> list[str]:
    """What a fresh recording at ``path`` failed to publish. Must run
    before anything else loads the trace."""
    problems = []
    if not kernel._sidecar_path(path, N_CPUS).is_file():
        problems.append("record() published no .packed sidecar")

    with mock.patch.object(
        PackedTrace, "from_file", wraps=PackedTrace.from_file
    ) as parse:
        load_packed(N_CPUS, path)
    if parse.called:
        problems.append("the first load_packed() parsed the text trace")

    factory = Job(arch=REFERENCE_ARCH, workload=WORKLOAD).resolve_factory()
    independent = System(
        REFERENCE_ARCH,
        factory(N_CPUS, FunctionalMemory(), SCALE),
        mem_config=config_for_scale(SCALE, N_CPUS),
    )
    record_by_record = f"{tmp}/independent.trace"
    write_trace(
        record_by_record, canonical_order(record_run(independent).records)
    )
    with open(record_by_record, "rb") as handle:
        if handle.read() != path.read_bytes():
            problems.append(
                "published text differs from an independent recording "
                "written record by record"
            )
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="replay-smoke-") as tmp:
        store = TraceStore(tmp)
        print(f"[record] {WORKLOAD}/{SCALE}/{N_CPUS}cpu ...", flush=True)
        path = store.get_or_record(WORKLOAD, SCALE, N_CPUS)
        problems = cold_path_problems(path, tmp)
        for problem in problems:
            print(f"FAIL cold path: {problem}")
        if not problems:
            print("ok   cold path: sidecar published, no text parse, "
                  "text == independent recording")
        packed = load_packed(N_CPUS, path)
        print(f"[record] {path.name}: {len(packed)} references")

        ok = not problems
        for line_size in LINE_SIZES:
            outcome = replay_kernel(
                packed,
                ARCH,
                mem_config=config_for_scale(
                    SCALE, N_CPUS, line_size=line_size
                ),
            )
            system = System(
                ARCH,
                TraceWorkload.from_file(N_CPUS, FunctionalMemory(), path),
                mem_config=config_for_scale(
                    SCALE, N_CPUS, line_size=line_size
                ),
                max_cycles=50_000_000,
            )
            system.run()
            label = f"{ARCH}/line_size={line_size}"
            if diff_stats(
                outcome.stats.to_dict(), system.stats.to_dict(), label
            ):
                print(
                    f"ok   {label}: {outcome.stats.cycles} cycles, "
                    "kernel == interpreter"
                )
            else:
                ok = False

    if not ok:
        return 1
    print("replay smoke: all sweep points bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
