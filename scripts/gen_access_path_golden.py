#!/usr/bin/env python
"""Regenerate the golden stats that pin the memory systems' access paths.

Runs every registered hierarchy x {the ledger's storm synthetic on RNG
seeds 11 and 2026, eqntott, mp3d, ocean} x {mipsy, mxs} x a handful of
``MemConfig`` variants at test scale, plus two machines no preset
names, and dumps per case the full ``SystemStats.to_dict()`` payload,
``resource_report()`` and the counters ``SystemStats`` does not carry —
every ``Resource``'s requests / waits, the bus's transaction counts,
the directory's invalidations, the write buffers' stalls, the
crossbar's conflict cycles, main memory's reads / writes — to
``tests/data/access_path_golden.json``. The committed file was produced
by the interpreted general path (``_load`` / ``_store`` /
``_data_path`` methods walking ``self.x[cpu]`` per access);
``tests/test_access_path_golden.py`` asserts the per-CPU built paths
reproduce it bit-for-bit, fast lane on and off.

The variants exist because the stock geometry leaves branches
unexercised: associativity 1 and 4 leave the unrolled two-way probe,
a one-entry write buffer makes full-buffer stalls the common case, a
64-byte line moves every shift and bank index, eight CPUs widen every
snoop walk and directory mask, and write-update replaces the
invalidation walk where a directory exists.

``--check`` regenerates to memory and exits non-zero when the result
differs from the committed file. Only rerun without it to *extend* the
matrix — never to paper over a mismatch, which is exactly the
regression the suite exists to catch.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _golden import settle, wants_check
from repro.core.configs import config_for_scale
from repro.core.system import System
from repro.mem.bank import BankedResource, Resource
from repro.mem.bus import SnoopyBus
from repro.mem.cache import CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import Crossbar
from repro.mem.functional import FunctionalMemory
from repro.mem.mainmem import MainMemory
from repro.mem.topology import (
    Interconnect,
    get_preset,
    resolve_topology,
    topology_names,
)
from repro.mem.writebuffer import WriteBuffer
from repro.workloads import WORKLOADS, synthetic

SCALE = "test"
N_CPUS = 4
GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "data"
    / "access_path_golden.json"
)
#: far above any case's length (under 60 000 cycles); a case that
#: reaches it is a bug
MAX_CYCLES = 1_000_000

#: The ledger's coherence-storm synthetic at test scale (a copy of
#: ``benchmarks/ledger/matrix.py``'s STORM_PARAMS — the ledger pins its
#: own matrices and is not importable from here).
_STORM = functools.partial(
    synthetic.make,
    phases=12,
    sharing=0.6,
    store_ratio=0.4,
    grain=64,
    private_bytes=65536,
    shared_bytes=8192,
    compute_per_access=0,
)

GOLDEN_WORKLOADS = {
    "storm11": functools.partial(_STORM, seed=11),
    "storm2026": functools.partial(_STORM, seed=2026),
    "eqntott": WORKLOADS["eqntott"],
    "mp3d": WORKLOADS["mp3d"],
    "ocean": WORKLOADS["ocean"],
}

#: variant -> (CPU count, ``MemConfig`` overrides)
GOLDEN_VARIANTS = {
    "stock": (N_CPUS, {}),
    "l1d_assoc1": (N_CPUS, {"l1d_assoc": 1}),
    "l1d_assoc4": (N_CPUS, {"l1d_assoc": 4}),
    "wb1": (N_CPUS, {"write_buffer_depth": 1}),
    "line64": (N_CPUS, {"line_size": 64}),
    "cpus8": (8, {}),
    "update": (N_CPUS, {"l1_coherence": "update"}),
}


def _two_private_levels(config):
    """``shared-l3`` redrawn: a two-way private L2 at another latency
    over a two-bank shared level at another point."""
    spec = resolve_topology("shared-l3", config)
    l1d, l2, l3 = spec.levels
    return dataclasses.replace(
        spec,
        name="two-private",
        levels=(
            l1d,
            dataclasses.replace(l2, assoc=2, latency=6, occupancy=3),
            dataclasses.replace(l3, latency=18, occupancy=2, banks=2),
        ),
        interconnect=Interconnect(
            kind="crossbar", stage_latencies=(18,), occupancy=2
        ),
    )


def _slow_cluster(config):
    """``cluster-l1`` behind an (8, 8) two-stage interconnect."""
    spec = resolve_topology("cluster-l1", config)
    l1d, l2 = spec.levels
    return dataclasses.replace(
        spec,
        name="slow-cluster",
        levels=(dataclasses.replace(l1d, latency=16), l2),
        interconnect=dataclasses.replace(
            spec.interconnect, stage_latencies=(8, 8)
        ),
    )


#: machine -> (CPU count, spec builder); run on the storm only
GOLDEN_SPECS = {
    "two-private": (N_CPUS, _two_private_levels),
    "slow-cluster": (16, _slow_cluster),
}
SPEC_WORKLOAD = "storm11"


def case_keys() -> list[str]:
    return [
        f"{arch}/{workload}/{cpu_model}/{variant}"
        for arch in topology_names()
        for workload in GOLDEN_WORKLOADS
        for cpu_model in ("mipsy", "mxs")
        for variant in GOLDEN_VARIANTS
        # write-update needs a directory
        if variant != "update"
        or get_preset(arch).kind == "shared-secondary"
    ] + [
        f"{machine}/{SPEC_WORKLOAD}/{cpu_model}/stock"
        for machine in GOLDEN_SPECS
        for cpu_model in ("mipsy", "mxs")
    ]


def build_case(key: str, fast_lane: bool = True) -> System:
    machine, workload_name, cpu_model, variant = key.split("/")
    if machine in GOLDEN_SPECS:
        n_cpus, make_spec = GOLDEN_SPECS[machine]
        overrides = {}
    else:
        n_cpus, overrides = GOLDEN_VARIANTS[variant]
        make_spec = None
    config = config_for_scale(
        SCALE, n_cpus, l1_fast_path=fast_lane, **overrides
    )
    workload = GOLDEN_WORKLOADS[workload_name](
        n_cpus, FunctionalMemory(), SCALE
    )
    return System(
        make_spec(config) if make_spec else machine,
        workload,
        cpu_model=cpu_model,
        mem_config=config,
        max_cycles=MAX_CYCLES,
    )


def _resource_counters(resource: Resource) -> list[int]:
    return [
        resource.requests,
        resource.wait_cycles,
        resource.busy_cycles,
        resource.next_free,
    ]


def component_counters(value):
    """Every counter of one ``components()`` entry that ``SystemStats``
    does not hold; ``None`` for what has none."""
    if isinstance(value, list):
        return [component_counters(item) for item in value]
    if isinstance(value, Resource):
        return _resource_counters(value)
    if isinstance(value, BankedResource):
        return [_resource_counters(bank) for bank in value.banks]
    if isinstance(value, Crossbar):
        return {
            "wait_cycles": value.wait_cycles,
            "ports": [_resource_counters(port) for port in value.ports],
            "banks": component_counters(value.banks),
            "switches": [
                [_resource_counters(switch) for switch in column]
                for column in value.switches
            ],
        }
    if isinstance(value, SnoopyBus):
        return {
            "resource": _resource_counters(value.resource),
            "mem_reads": value.mem_reads,
            "c2c_transfers": value.c2c_transfers,
            "upgrades": value.upgrades,
            "writebacks": value.writebacks,
        }
    if isinstance(value, Directory):
        return {
            "invalidations_sent": value.invalidations_sent,
            "entries": len(value),
        }
    if isinstance(value, WriteBuffer):
        return {"full_stalls": value.full_stalls, "stores": value.stores}
    if isinstance(value, MainMemory):
        return {
            "reads": value.reads,
            "writes": value.writes,
            "banks": component_counters(value.banks),
        }
    if isinstance(value, CacheArray):
        return {
            "resident": sum(tag >= 0 for tag in value.tags),
            "invalidated": len(value.invalidated),
        }
    return None


def hidden_counters(memory) -> dict:
    """The component counters of ``memory`` by checkpoint wire name."""
    counted = {
        name: component_counters(component)
        for name, component in sorted(memory.components().items())
    }
    return {
        name: counters
        for name, counters in counted.items()
        if counters is not None
    }


def case_result(system: System, stats) -> dict:
    assert not system.truncated
    return {
        "stats": stats.to_dict(),
        "resources": system.memory.resource_report(stats.cycles),
        "counters": hidden_counters(system.memory),
    }


def run_case(key: str, fast_lane: bool = True) -> dict:
    system = build_case(key, fast_lane)
    return case_result(system, system.run())


def main(argv: list[str]) -> int:
    check = wants_check(argv)
    golden = {}
    for key in case_keys():
        print(f"running {key} ...", flush=True)
        golden[key] = run_case(key)
    text = json.dumps(
        {"scale": SCALE, "cases": golden},
        sort_keys=True,
        separators=(",", ":"),
    )
    return settle({GOLDEN_PATH: (text + "\n").encode("utf-8")}, check)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
