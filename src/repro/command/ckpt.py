"""``repro ckpt save`` / ``resume`` / ``inspect``: snapshots by hand.

``save`` runs the job the flags describe to a cycle and stores the
paused machine; ``resume`` rebuilds that job from what the snapshot
recorded about it and runs it to completion (see
docs/CHECKPOINTING.md; ``run --checkpoint-every`` is the automatic
form).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.command.jobargs import MACHINE, add_flags, job_from_args


def register(subparsers) -> None:
    """Declare ``ckpt`` and its three sub-verbs."""
    parser = subparsers.add_parser(
        "ckpt", help="checkpoints: save, resume, inspect"
    )
    parser.set_defaults(run=run)
    sub = parser.add_subparsers(dest="ckpt_command", required=True)
    save = sub.add_parser(
        "save", help="run a simulation to a cycle and snapshot it"
    )
    add_flags(save, MACHINE)
    save.add_argument(
        "--at", type=int, required=True, metavar="CYCLE",
        help="cycle to pause and snapshot at",
    )
    save.set_defaults(verb=_save)
    resume = sub.add_parser(
        "resume", help="restore a checkpoint and run it to completion"
    )
    resume.add_argument("digest", help="checkpoint digest to resume")
    add_flags(resume, ("max_cycles",))
    resume.set_defaults(verb=_resume)
    inspect = sub.add_parser(
        "inspect", help="print a checkpoint's metadata"
    )
    inspect.add_argument("digest", help="checkpoint digest")
    inspect.set_defaults(verb=_inspect)
    for verb in (save, resume, inspect):
        verb.add_argument(
            "--dir", required=True, metavar="PATH",
            help="checkpoint store directory",
        )


def run(args: argparse.Namespace) -> int:
    """Open the checkpoint store and hand it to the sub-verb."""
    from repro.ckpt import CheckpointStore

    return args.verb(CheckpointStore(args.dir), args)


def _inspect(store, args: argparse.Namespace) -> int:
    print(json.dumps(store.inspect(args.digest), indent=2, sort_keys=True))
    return 0


def _save(store, args: argparse.Namespace) -> int:
    from repro.ckpt import snapshot_system

    job = job_from_args(args)
    system = job.build(checkpointing=True)
    system.run(pause_at=args.at)
    if not system.paused:
        print(
            f"run finished at cycle {system._cycle} before "
            f"reaching cycle {args.at}; nothing to checkpoint",
            file=sys.stderr,
        )
        return 1
    extra = {"scale": job.scale}
    if job.overrides:
        extra["overrides"] = job.overrides
    digest = store.save(snapshot_system(system, extra_meta=extra))
    print(f"checkpoint saved at cycle {system._cycle}")
    print(digest)
    return 0


def _resume(store, args: argparse.Namespace) -> int:
    from repro.ckpt import restore_system

    state = store.load(args.digest)
    meta = state["meta"]
    job = job_from_args(
        args,
        workload=meta["workload"],
        arch=meta["arch"],
        cpu_model=meta["cpu_model"],
        n_cpus=meta["n_cpus"],
        scale=meta.get("scale", "test"),
        overrides=meta.get("overrides") or {},
    )
    obs_config = None
    if meta.get("obs"):
        from repro.obs import ObsConfig

        obs_config = ObsConfig(
            sample_interval=meta["obs"].get("sample_interval", 0),
            events=meta["obs"].get("events", False),
        )
    system = job.build(obs=obs_config, checkpointing=True)
    restore_system(system, state)
    stats = system.run()
    print(
        f"{job.workload} on {job.arch} ({job.cpu_model}): "
        f"resumed at cycle {meta['cycle']}, finished at {stats.cycles}"
    )
    print(f"  instructions  {stats.instructions}")
    print(f"  machine IPC   {stats.ipc:.3f}")
    return 0
