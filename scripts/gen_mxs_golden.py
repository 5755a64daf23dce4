#!/usr/bin/env python
"""Regenerate the golden stats that pin the MXS pipeline's behaviour.

Runs every registered hierarchy x {eqntott, ear, multiprog, the
ledger's storm synthetic} x a handful of ``CpuParams`` variants under
MXS at test scale and dumps, per case, the full
``SystemStats.to_dict()`` payload plus the per-CPU counters the stats
object does not carry (functional-unit structural stalls, MSHR
merges/allocations/full stalls, BTB lookups/hits) to
``tests/data/mxs_golden.json``. The committed file was produced by the
pre-rewrite pipeline (dict wake-up, full-ROB select, string-keyed FU
pool); ``tests/test_mxs_golden.py`` asserts the current pipeline
reproduces it bit-for-bit, fast lane on and off.

The variants exist because the default parameters leave rules
unexercised: ``window < rob`` is the only case where the select bound
binds, ``mshrs=1`` makes MSHR-full replays (which keep the memory port
claimed) common, and the wide/wrong-path variants cover the remaining
``CpuParams`` fields.

It also writes ``tests/data/mxs_midrun_ckpt.json.gz``: one golden case
paused mid-run (full ROB, the window bound binding, fills in flight)
and snapshot in the ``repro.ckpt/1`` wire format — the committed blob
was written by the pre-rewrite pipeline, and the suite asserts it still
restores and runs on to the golden stats.

It also writes ``tests/data/hierarchy_midrun_ckpt.json.gz``: the storm
synthetic under Mipsy paused mid-run on ``shared-l2``, ``shared-l3``
(4 CPUs) and ``cluster-l1`` (16 CPUs), each snapshot beside the stats
of the uninterrupted run. The committed blobs were written by the five
per-preset ``MemorySystem`` classes; the suite asserts the spec-driven
disciplines that replaced them restore each one and finish on the same
stats — the frozen ``repro.ckpt/1`` memory section.

``--check`` regenerates to memory and exits non-zero when a result
differs from its committed file (the blobs up to the package version
they embed). Only rerun without it to *extend* the matrix — never to
paper over a mismatch, which is exactly the regression the suite
exists to catch.
"""

from __future__ import annotations

import functools
import gzip
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _golden import settle, wants_check
from repro.ckpt import snapshot_system
from repro.core.configs import CpuParams, config_for_scale
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import topology_names
from repro.workloads import WORKLOADS, synthetic

SCALE = "test"
N_CPUS = 4
_DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
GOLDEN_PATH = _DATA / "mxs_golden.json"
CKPT_PATH = _DATA / "mxs_midrun_ckpt.json.gz"
#: the golden case the mid-run blob pauses, and where
CKPT_CASE = "shared-mem/storm/window8"
CKPT_PAUSE = 9000

HIERARCHY_CKPT_PATH = _DATA / "hierarchy_midrun_ckpt.json.gz"
#: preset -> (CPUs, pause cycle) of the Mipsy storm runs the hierarchy
#: blob pauses (each about half way)
HIERARCHY_CKPT_CASES = {
    "shared-l2": (4, 11700),
    "shared-l3": (4, 15700),
    "cluster-l1": (16, 24700),
}

#: The ledger's coherence-storm synthetic at test scale (a copy of
#: ``benchmarks/ledger/matrix.py``'s STORM_PARAMS — the ledger pins its
#: own matrices and is not importable from here).
_STORM = functools.partial(
    synthetic.make,
    phases=12,
    seed=1996,
    sharing=0.6,
    store_ratio=0.4,
    grain=64,
    private_bytes=65536,
    shared_bytes=8192,
    compute_per_access=0,
)

GOLDEN_WORKLOADS = {
    "eqntott": WORKLOADS["eqntott"],
    "ear": WORKLOADS["ear"],
    "multiprog": WORKLOADS["multiprog"],
    "storm": _STORM,
}

GOLDEN_PARAMS = {
    "default": {},
    "window8": {"window": 8, "rob": 32},
    "mshrs1": {"mshrs": 1},
    "wrongpath": {"wrong_path_fetch": True},
    "wide4": {"width": 4, "fetch_width": 4},
}


def case_keys() -> list[str]:
    return [
        f"{arch}/{workload}/{params}"
        for arch in topology_names()
        for workload in GOLDEN_WORKLOADS
        for params in GOLDEN_PARAMS
    ]


def pipeline_counters(system: System) -> list[dict]:
    """Per-CPU counters that live on the CPU, not in ``SystemStats``."""
    return [
        {
            "fus.structural_stalls": cpu.fus.structural_stalls,
            "mshrs.merges": cpu.mshrs.merges,
            "mshrs.allocations": cpu.mshrs.allocations,
            "mshrs.full_stalls": cpu.mshrs.full_stalls,
            "btb.lookups": cpu.btb.lookups,
            "btb.hits": cpu.btb.hits,
        }
        for cpu in system.cpus
    ]


def build_case(
    key: str, fast_lane: bool = True, checkpointing: bool = False
) -> System:
    arch, workload_name, params_name = key.split("/")
    config = config_for_scale(SCALE, N_CPUS, l1_fast_path=fast_lane)
    workload = GOLDEN_WORKLOADS[workload_name](
        N_CPUS, FunctionalMemory(), SCALE
    )
    return System(
        arch,
        workload,
        cpu_model="mxs",
        mem_config=config,
        cpu_params=CpuParams(**GOLDEN_PARAMS[params_name]),
        checkpointing=checkpointing,
    )


def run_case(key: str, fast_lane: bool = True) -> dict:
    system = build_case(key, fast_lane)
    stats = system.run()
    return {"stats": stats.to_dict(), "cpus": pipeline_counters(system)}


def midrun_snapshot() -> dict:
    system = build_case(CKPT_CASE, checkpointing=True)
    system.run(pause_at=CKPT_PAUSE)
    return snapshot_system(system)


def build_hierarchy_case(arch: str) -> System:
    n_cpus, _pause = HIERARCHY_CKPT_CASES[arch]
    return System(
        arch,
        _STORM(n_cpus, FunctionalMemory(), SCALE),
        cpu_model="mipsy",
        mem_config=config_for_scale(SCALE, n_cpus),
        checkpointing=True,
    )


def hierarchy_snapshots() -> dict:
    """Per preset: the mid-run snapshot and the uninterrupted stats."""
    cases = {}
    for arch, (_n_cpus, pause) in HIERARCHY_CKPT_CASES.items():
        paused = build_hierarchy_case(arch)
        paused.run(pause_at=pause)
        cases[arch] = {
            "snapshot": snapshot_system(paused),
            "final": build_hierarchy_case(arch).run().to_dict(),
        }
    return cases


def _blob(path: Path, payload: dict) -> bytes:
    raw = json.dumps(payload, separators=(",", ":"))
    held = io.BytesIO()
    # mtime=0 keeps the compressed bytes deterministic (the header
    # also carries the file's name).
    with gzip.GzipFile(path.name, "wb", fileobj=held, mtime=0) as blob:
        blob.write(raw.encode("utf-8"))
    return held.getvalue()


def _same_blob(committed: bytes, fresh: bytes) -> bool:
    """Blob equality up to the package version every snapshot embeds
    (the one field allowed to move between releases)."""

    def unversioned(blob: bytes):
        state = json.loads(gzip.decompress(blob))
        for snapshot in (
            [state]
            if "meta" in state
            else [case["snapshot"] for case in state.values()]
        ):
            snapshot["meta"]["version"] = None
        return state

    return unversioned(committed) == unversioned(fresh)


def main(argv: list[str]) -> int:
    check = wants_check(argv)
    golden = {}
    for key in case_keys():
        print(f"running {key} ...", flush=True)
        golden[key] = run_case(key)
    text = json.dumps(
        {"scale": SCALE, "n_cpus": N_CPUS, "cases": golden},
        sort_keys=True,
        separators=(",", ":"),
    )
    status = settle({GOLDEN_PATH: (text + "\n").encode("utf-8")}, check)
    return status | settle(
        {
            CKPT_PATH: _blob(CKPT_PATH, midrun_snapshot()),
            HIERARCHY_CKPT_PATH: _blob(
                HIERARCHY_CKPT_PATH, hierarchy_snapshots()
            ),
        },
        check,
        same=_same_blob,
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
