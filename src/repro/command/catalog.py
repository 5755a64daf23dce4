"""``repro list``: everything a flag can name, read from the
registries the verbs themselves read."""

from __future__ import annotations

import argparse

from repro.core.configs import ARCHITECTURES, CPU_MODELS, SCALES
from repro.core.paper import PAPER_EXPECTATIONS, STUDIES
from repro.mem.topology import get_builder, get_preset, topology_names
from repro.workloads import WORKLOADS

#: ``Job.spec()["backend"]`` values and what each runs.
_BACKENDS = (
    ("interpreter", "the workload's program executed on the target "
                    "machine (default; every CPU model)"),
    ("replay", "--replay: its recorded reference stream re-simulated on "
               "the target machine (every CPU model; plain, observed or "
               "checkpointed)"),
)


def register(subparsers) -> None:
    """Declare ``list``."""
    subparsers.add_parser(
        "list",
        help="show workloads, topology presets, CPU models, scales, "
             "backends and the studies of the evaluation",
    ).set_defaults(run=run)


def _summary(obj) -> str:
    """First paragraph of a docstring, on one line."""
    return " ".join((obj.__doc__ or "").split("\n\n")[0].split())


def run(args: argparse.Namespace) -> int:
    """Print the catalog."""
    print("workloads:")
    for name in sorted(WORKLOADS):
        module = (WORKLOADS[name].__module__ or "").split(".")[-1]
        print(f"  {name:<10} (repro.workloads.{module})")
    print("topologies:")
    kinds = []
    for name in topology_names():
        preset = get_preset(name)
        paper = "paper" if name in ARCHITECTURES else "extra"
        print(f"  {name:<12} [{preset.kind}, {preset.default_cpus} "
              f"cpus, {paper}] {preset.description}")
        if preset.kind not in kinds:
            kinds.append(preset.kind)
    print("coherence disciplines (a topology's kind):")
    for kind in kinds:
        builder = get_builder(kind)
        print(f"  {kind:<17} {builder.__name__}: {_summary(builder)}")
    print(f"cpu models:    {', '.join(CPU_MODELS)}")
    print("scales:")
    for name, config in SCALES.items():
        print(f"  {name:<10} {_summary(config)}")
    print("execution backends:")
    for name, text in _BACKENDS:
        print(f"  {name:<12} {text}")
    print("studies (repro reproduce):")
    for study in STUDIES.values():
        claims = len(study.checks) + (
            len(PAPER_EXPECTATIONS[study.claims].checks)
            if study.claims
            else 0
        )
        print(f"  {study.name:<26} {len(study.jobs):>2} job(s) "
              f"{claims:>2} claim(s)  {study.title}")
    return 0
