#!/usr/bin/env python
"""Regenerate the golden that pins every thread program's instruction stream.

For every registered workload (the seven applications and
``synthetic``) x scale {test, bench} x CPU count {2, 4, 8, 16} x two
timings — ``shared-mem`` under Mipsy and ``shared-l1`` under MXS,
because what the synchronisation parts emit depends on when values
arrive — a pass-through proxy around ``workload.program(cpu)``
(forwarding ``send``) records, per CPU, the number of pulls and a
SHA-256 over every yielded instruction's ten slots (plus ``until`` and
``back.pc`` of a ``SpinLoad``). A CPU count a workload refuses is
pinned as its refusal. Ocean and multiprog at bench scale are also cut
short by ``max_cycles`` at several points of their run, pinning the
truncated ``SystemStats`` and streams.

The committed ``tests/data/stream_golden.json`` was produced by thread
programs that re-derived every instruction on every visit of a loop;
``tests/test_stream_golden.py`` asserts the replayed stretches
reproduce it pull for pull.

``--check`` regenerates to memory and exits non-zero when the result
differs from the committed file. Only rerun without it to *extend* the
matrix — never to paper over a mismatch, which is exactly the
regression the suite exists to catch.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _golden import settle, wants_check
from repro.core.configs import config_for_scale
from repro.core.system import System
from repro.errors import WorkloadError
from repro.isa.instructions import SpinLoad
from repro.mem.functional import FunctionalMemory
from repro.workloads import WORKLOADS

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "data"
    / "stream_golden.json"
)
SCALES = ("test", "bench")
CPU_COUNTS = (2, 4, 8, 16)
#: timing -> (architecture, CPU model)
TIMINGS = {
    "shared-mem.mipsy": ("shared-mem", "mipsy"),
    "shared-l1.mxs": ("shared-l1", "mxs"),
}
#: far above any case's length (under 700 000 cycles); a case that
#: reaches it is pinned as truncated
MAX_CYCLES = 5_000_000

#: The runs cut short: workload -> tenths of the full run's cycles at
#: which ``max_cycles`` falls (bench scale, four CPUs, both timings).
#: Ocean's sweeps 2-5 and four of multiprog's five passes per phase
#: revisit a loop, so most of these land inside a revisit.
TRUNCATED = {"ocean": (3, 5, 7, 9), "multiprog": (2, 4, 6, 8)}
TRUNCATED_SCALE = "bench"
TRUNCATED_CPUS = 4


def _slots(inst) -> bytes:
    """One instruction as the bytes the digest covers."""
    fields = [
        int(inst.op),
        inst.mcode,
        int(inst.pc),
        int(inst.addr),
        bool(inst.taken),
        int(inst.target),
        bool(inst.want_value),
        None if inst.value is None else int(inst.value),
        int(inst.src1),
        int(inst.src2),
    ]
    if isinstance(inst, SpinLoad):
        fields += [int(inst.until), int(inst.back.pc)]
    return repr(fields).encode("ascii")


class StreamTap:
    """Per-CPU pull counts and stream digests of one workload instance.

    Constructing one replaces the instance's ``program`` with a proxy
    generator that yields what the real thread program yields and
    sends it what the CPU sends.
    """

    def __init__(self, workload) -> None:
        self.pulls = [0] * workload.n_cpus
        self._hashes = [hashlib.sha256() for _ in range(workload.n_cpus)]
        # Instructions are memoized, so most pulls re-yield an object
        # already rendered; keyed by the object, which the dict keeps
        # alive.
        self._rendered: dict = {}
        #: the real thread programs, by CPU
        self.programs: dict = {}
        self._program = workload.program
        workload.program = self._tapped

    def _tapped(self, cpu_id: int):
        program = self.programs[cpu_id] = self._program(cpu_id)
        update = self._hashes[cpu_id].update
        rendered = self._rendered
        value = None
        while True:
            try:
                inst = program.send(value)
            except StopIteration:
                return
            slots = rendered.get(inst)
            if slots is None:
                slots = rendered[inst] = _slots(inst)
            update(slots)
            self.pulls[cpu_id] += 1
            value = yield inst

    def result(self) -> dict:
        return {
            "pulls": self.pulls,
            "sha256": [h.hexdigest() for h in self._hashes],
        }


def case_keys() -> list[str]:
    return [
        f"{workload}/{scale}/{n_cpus}/{timing}"
        for workload in WORKLOADS
        for scale in SCALES
        for n_cpus in CPU_COUNTS
        for timing in TIMINGS
    ]


def truncated_keys() -> list[str]:
    return [
        f"{workload}/{timing}/{tenths}"
        for workload, cuts in TRUNCATED.items()
        for timing in TIMINGS
        for tenths in cuts
    ]


def build_tapped(
    workload_name: str,
    scale: str,
    n_cpus: int,
    timing: str,
    max_cycles: int = MAX_CYCLES,
) -> tuple[System, StreamTap]:
    """The system of one case with the tap on its workload."""
    arch, cpu_model = TIMINGS[timing]
    workload = WORKLOADS[workload_name](n_cpus, FunctionalMemory(), scale)
    tap = StreamTap(workload)
    system = System(
        arch,
        workload,
        cpu_model=cpu_model,
        mem_config=config_for_scale(scale, n_cpus),
        max_cycles=max_cycles,
    )
    return system, tap


def run_case(key: str) -> dict:
    workload_name, scale, n_cpus, timing = key.split("/")
    try:
        system, tap = build_tapped(workload_name, scale, int(n_cpus), timing)
    except WorkloadError as error:
        return {"refused": str(error)}
    stats = system.run()
    return {
        "cycles": stats.cycles,
        "truncated": system.truncated,
        **tap.result(),
    }


def truncation_point(cases: dict, key: str) -> int:
    """The ``max_cycles`` of one truncated case, from the full run's
    length in ``cases``."""
    workload_name, timing, tenths = key.split("/")
    full = cases[
        f"{workload_name}/{TRUNCATED_SCALE}/{TRUNCATED_CPUS}/{timing}"
    ]
    return full["cycles"] * int(tenths) // 10


def build_truncated(key: str, max_cycles: int) -> tuple[System, StreamTap]:
    workload_name, timing, _tenths = key.split("/")
    return build_tapped(
        workload_name, TRUNCATED_SCALE, TRUNCATED_CPUS, timing, max_cycles
    )


def run_truncated(system: System, tap: StreamTap) -> dict:
    stats = system.run()
    payload = json.dumps(stats.to_dict(), sort_keys=True)
    return {
        "max_cycles": system.max_cycles,
        "truncated": system.truncated,
        "instructions": stats.instructions,
        "stats_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        **tap.result(),
    }


def main(argv: list[str]) -> int:
    check = wants_check(argv)
    cases: dict[str, dict] = {}
    for key in case_keys():
        print(f"running {key} ...", flush=True)
        cases[key] = run_case(key)
    truncated: dict[str, dict] = {}
    for key in truncated_keys():
        print(f"running truncated {key} ...", flush=True)
        truncated[key] = run_truncated(
            *build_truncated(key, truncation_point(cases, key))
        )
    text = json.dumps(
        {"cases": cases, "truncated": truncated}, indent=1, sort_keys=True
    )
    return settle({GOLDEN_PATH: (text + "\n").encode("utf-8")}, check)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
