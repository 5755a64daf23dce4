"""The argparse codec of a :class:`~repro.core.runner.Job`.

A job description is spelled in two places: JSON in
:mod:`repro.serve.wire` and command-line flags here. Every flag that
fills a ``Job`` field — and the three that configure the ``Runner``
around it — is declared once, in :func:`_declarations`, under the name
of the field it fills; a verb composes the groups it honours with
:func:`add_flags` and reads them back with :func:`job_from_args`,
:func:`policy_from_args` and :func:`runner_from_args`. An omitted flag
is an omitted field — ``Job`` alone decides what an omitted ``--cpus``
/ ``--max-cycles`` means — and these alone refuse
``--checkpoint-every`` without a directory, so equal flags mean an
equal ``Job`` — one content address — at every door.
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.core.configs import CPU_MODELS, SCALES
from repro.core.runner import (
    MAX_CYCLES,
    Job,
    ResultCache,
    Runner,
    default_cache_dir,
)
from repro.errors import ConfigError
from repro.mem.topology import topology_names
from repro.workloads import WORKLOADS

#: which simulation
MACHINE = (
    "workload", "arch", "cpu_model", "n_cpus", "scale", "overrides",
    "max_cycles",
)
#: how a run is babysat; never part of a job's identity
POLICY = ("replay", "trace_dir", "timeout_s", "ckpt_every", "ckpt_dir")
#: the Runner (or daemon pool) around the jobs
RUNNER = ("jobs", "no_cache", "cache_dir")

_JOB_FIELDS = frozenset(field.name for field in dataclasses.fields(Job))


def _parse_override(text: str) -> tuple[str, int]:
    field, eq, value = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(
            f"override must look like field=value, got {text!r}"
        )
    try:
        return field, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"override value must be an integer, got {value!r}"
        ) from None


def _declarations() -> dict[str, tuple[tuple[str, ...], dict]]:
    """dest -> (option strings, ``add_argument`` keywords). Built per
    parser so the choices follow the registries."""
    return {
        "workload": (("--workload", "-w"), dict(
            choices=sorted(WORKLOADS),
            help="which workload to run (see `repro list`)",
        )),
        "arch": (("--arch", "-a", "--topology"), dict(
            choices=topology_names(),
            help="memory-system topology preset (--topology is an alias)",
        )),
        "cpu_model": (("--cpu", "-c"), dict(
            default="mipsy", choices=CPU_MODELS,
            help="CPU model (mipsy=simple in-order, mxs=dynamic "
                 "superscalar)",
        )),
        "n_cpus": (("--cpus", "-n"), dict(
            type=int,
            help="number of processors (default: each topology "
                 "preset's natural core count, 4 for the paper's three)",
        )),
        "scale": (("--scale", "-s"), dict(
            default="test", choices=tuple(SCALES),
            help="size preset (test=1/32, bench=1/8, paper=full)",
        )),
        "overrides": (("--set",), dict(
            type=_parse_override, action="append", default=[],
            metavar="FIELD=VALUE",
            help="override a MemConfig field (repeatable)",
        )),
        "max_cycles": (("--max-cycles",), dict(
            type=int,
            help=f"safety cap on simulated cycles (default: {MAX_CYCLES})",
        )),
        "replay": (("--replay",), dict(
            action="store_true",
            help="trace-replay lane: record the workload's reference "
                 "stream once (automatic, cached in the trace store) and "
                 "re-simulate it on the target topology instead of "
                 "re-executing the program — several times faster for "
                 "geometry/policy sweeps; see docs/REPLAY.md for when "
                 "the approximation is valid",
        )),
        "trace_dir": (("--trace-dir",), dict(
            metavar="PATH",
            help="trace artifact store for replayed jobs "
                 "(default: <cache>/traces)",
        )),
        "timeout_s": (("--timeout",), dict(
            type=float, default=0.0, metavar="SECONDS",
            help="per-job wall-clock budget (0 = unlimited)",
        )),
        "ckpt_every": (("--checkpoint-every",), dict(
            type=int, default=0, metavar="CYCLES",
            help="snapshot every running simulation each CYCLES "
                 "simulated cycles (requires --checkpoint-dir); a "
                 "retried or re-run job resumes from its latest "
                 "checkpoint — see docs/CHECKPOINTING.md",
        )),
        "ckpt_dir": (("--checkpoint-dir",), dict(
            metavar="PATH", help="checkpoint store location",
        )),
        "jobs": (("--jobs", "-j"), dict(
            type=int, metavar="N",
            help="worker processes (default: all cores; a batch with "
                 "1 runs in-process)",
        )),
        "no_cache": (("--no-cache",), dict(
            action="store_true",
            help="always simulate; do not read or write the result cache",
        )),
        "cache_dir": (("--cache-dir",), dict(
            metavar="PATH",
            help=f"result cache location (default: {default_cache_dir()})",
        )),
    }


def add_flags(
    parser: argparse.ArgumentParser, dests, required: bool = True
) -> None:
    """Declare the shared flags named by ``dests`` (members of
    :data:`MACHINE`, :data:`POLICY`, :data:`RUNNER`) on ``parser``;
    ``required`` is whether ``--workload`` / ``--arch`` must be given."""
    declared = _declarations()
    for dest in dests:
        options, keywords = declared[dest]
        if dest in ("workload", "arch"):
            keywords["required"] = required
        parser.add_argument(*options, dest=dest, **keywords)


def _present(args: argparse.Namespace, names) -> dict:
    return {
        name: value for name, value in vars(args).items() if name in names
    }


def policy_from_args(args: argparse.Namespace) -> dict:
    """The execution-policy ``Job`` fields among the parsed flags."""
    policy = _present(args, POLICY)
    if policy.get("ckpt_every") and not policy.get("ckpt_dir"):
        raise ConfigError("--checkpoint-every requires --checkpoint-dir")
    return policy


def job_from_args(args: argparse.Namespace, **fields) -> Job:
    """The ``Job`` the parsed flags describe. ``fields`` are ``Job``
    fields a verb decides itself — one preset of ``--archs``, the
    machine a checkpoint recorded — and win over the namespace. A flag
    left unset (``None``) is left out, so ``Job`` fills it in."""
    spec = {
        **_present(args, _JOB_FIELDS - set(POLICY)),
        **policy_from_args(args),
        **fields,
    }
    spec["overrides"] = dict(spec.get("overrides", ()))
    return Job(**{
        name: value for name, value in spec.items() if value is not None
    })


def cache_from_args(args: argparse.Namespace) -> ResultCache | None:
    """The result cache ``--no-cache`` / ``--cache-dir`` describe."""
    return None if args.no_cache else ResultCache(args.cache_dir)


def runner_from_args(args: argparse.Namespace, **options) -> Runner:
    """The ``Runner`` the runner group describes; ``options`` are the
    constructor arguments no flag carries (progress hook, event bus)."""
    return Runner(jobs=args.jobs, cache=cache_from_args(args), **options)
