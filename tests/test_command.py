"""The front door: flags -> ``Job`` -> ``System``, each in one place.

Every door that describes a simulation — ``run``, ``client submit``,
``ckpt save``, ``obs report``, the matrix verbs, ``reproduce`` — must
mean the same ``Job`` by the same flags, and every ``Job`` must become
a machine through the one builder. (What ``reproduce --resume`` used
to promise is pinned in the fault lane: ``tests/test_runner_faults.py``
and ``tests/test_store_faults.py`` run the old manifest cases against
a batch's own ``ResultCache``.)
"""

from __future__ import annotations

import argparse
import json
import re

import pytest

from repro.command import build_parser, main, reproduce
from repro.command.jobargs import MACHINE, POLICY, RUNNER, job_from_args
from repro.core.paper import STUDIES
from repro.core.runner import MAX_CYCLES, Job, ResultCache
from repro.mem.topology import topology_names
from repro.obs import ObsConfig
from repro.serve import ServiceDaemon, job_from_payload, job_to_payload
from repro.workloads import WORKLOADS


def leaf_parsers(parser=None, path=()):
    """``(verb path, parser)`` for every parser that takes no sub-verb."""
    parser = parser or build_parser()
    nested = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not nested:
        yield path, parser
        return
    for name, child in nested[0].choices.items():
        yield from leaf_parsers(child, path + (name,))


# ----------------------------------------------------------------------
# (1) one declaration per flag


SIMULATING = {
    ("run",), ("compare",), ("sweep",), ("scaling",), ("reproduce",),
    ("serve",), ("ckpt", "save"), ("obs", "report"), ("client", "submit"),
}


def test_shared_flags_are_the_same_action_at_every_verb():
    seen: dict[str, dict[tuple, tuple]] = {}
    for path, parser in leaf_parsers():
        for action in parser._actions:
            if action.dest in MACHINE + POLICY + RUNNER:
                seen.setdefault(action.dest, {})[path] = (
                    tuple(action.option_strings),
                    action.type,
                    action.default,
                    tuple(action.choices) if action.choices else None,
                    action.help,
                )
    composed = {path for doors in seen.values() for path in doors}
    assert SIMULATING <= composed
    assert set(seen) == set(MACHINE + POLICY + RUNNER)
    for dest, doors in seen.items():
        assert len(doors) >= 2, dest  # shared means shared
        first, *rest = doors.values()
        assert all(other == first for other in rest), (dest, doors)


@pytest.mark.parametrize(
    "path", [path for path, _ in leaf_parsers()], ids=" ".join
)
def test_every_verb_answers_help(path, capsys):
    with pytest.raises(SystemExit) as caught:
        main([*path, "--help"])
    assert caught.value.code == 0
    assert "usage: repro " + " ".join(path) in capsys.readouterr().out


def test_each_verb_honours_only_the_groups_it_composes(capsys):
    parse = build_parser().parse_args
    for argv in (
        ["obs", "report", "-w", "fft", "-a", "shared-l2", "--jobs", "2"],
        ["obs", "report", "-w", "fft", "-a", "shared-l2", "--no-cache"],
        ["scaling", "-w", "fft", "--cpus", "8"],
        ["reproduce", "--resume"],
        ["reproduce", "--ckpt-dir", "x"],
    ):
        with pytest.raises(SystemExit) as caught:
            parse(argv)
        assert caught.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert parse([
        "ckpt", "save", "-w", "fft", "-a", "shared-l2", "--at", "9",
        "--dir", "x", "--max-cycles", "77",
    ]).max_cycles == 77


# ----------------------------------------------------------------------
# (2) the same flags are the same Job at every door


DOORS = {
    "run": ["run"],
    "client submit": ["client", "submit"],
    "ckpt save": ["ckpt", "save", "--at", "1", "--dir", "unused"],
    "obs report": ["obs", "report"],
}

#: name -> (flags, the same fields as ``Job`` keywords, flag doors)
FLAG_SETS = {
    "plain": (
        ["-w", "fft", "-a", "shared-l2"],
        {"workload": "fft", "arch": "shared-l2"},
        tuple(DOORS),
    ),
    "mxs-8-override": (
        ["-w", "fft", "-a", "shared-l2", "--cpu", "mxs", "-n", "8",
         "--set", "l2_assoc=2"],
        {"workload": "fft", "arch": "shared-l2", "cpu_model": "mxs",
         "n_cpus": 8, "overrides": {"l2_assoc": 2}},
        tuple(DOORS),
    ),
    # only the doors with an execution-policy group take --replay
    "replay": (
        ["-w", "fft", "-a", "shared-l2", "--replay"],
        {"workload": "fft", "arch": "shared-l2", "replay": True},
        ("run", "client submit"),
    ),
    "natural-cpus": (
        ["-w", "fft", "-a", "cluster-l1"],
        {"workload": "fft", "arch": "cluster-l1"},
        tuple(DOORS),
    ),
}


def job_at(door: str, flags: list[str]) -> Job:
    job = job_from_args(build_parser().parse_args(DOORS[door] + flags))
    if door == "client submit":  # what the daemon makes of what is sent
        job = job_from_payload(job_to_payload(job))
    return job


@pytest.mark.parametrize("name", FLAG_SETS)
def test_front_doors_build_the_same_job(name):
    flags, fields, doors = FLAG_SETS[name]
    jobs = {door: job_at(door, flags) for door in doors}
    # ... and the doors that take no flags: Python, and a raw JSON
    # client that sends these fields and nothing else
    jobs["python"] = Job(**fields)
    jobs["raw wire"] = job_from_payload(json.loads(json.dumps(fields)))
    reference = jobs["run"]
    assert reference.max_cycles == MAX_CYCLES
    for door, job in jobs.items():
        assert job.spec() == reference.spec(), door
        assert job.key() == reference.key(), door
    if name == "natural-cpus":
        assert reference.n_cpus == 16


# ----------------------------------------------------------------------
# (3) Job -> System happens once


@pytest.mark.parametrize("cpu_model", ("mipsy", "mxs"))
@pytest.mark.parametrize("arch", topology_names())
def test_job_build_runs_what_job_run_runs(arch, cpu_model):
    job = Job(arch=arch, workload="eqntott", cpu_model=cpu_model, n_cpus=4)
    direct = Job(
        arch, WORKLOADS["eqntott"], cpu_model=cpu_model, scale="test",
        n_cpus=4,
    ).run()
    built = job.build().run()
    assert built.to_dict() == direct.stats.to_dict()
    assert built.to_dict() == job.run().stats.to_dict()


def test_an_observed_build_is_a_live_system_with_the_plain_stats():
    system = Job(
        arch="shared-l2", workload="fft", overrides={"l2_assoc": 2}
    ).build(obs=ObsConfig(sample_interval=500))
    stats = system.run()
    assert system.obs is not None and system.obs.sampler.n_samples > 0
    plain = Job(
        arch="shared-l2", workload="fft", overrides={"l2_assoc": 2}
    ).run()
    assert stats.to_dict() == plain.stats.to_dict()


def test_ckpt_save_then_resume_ends_on_the_uninterrupted_run(
    tmp_path, capsys
):
    flags = ["-w", "fft", "-a", "shared-l2", "--set", "l2_assoc=2"]
    assert main([
        "ckpt", "save", *flags, "--at", "1500", "--dir", str(tmp_path),
    ]) == 0
    digest = capsys.readouterr().out.split()[-1]
    assert main(["ckpt", "inspect", digest, "--dir", str(tmp_path)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert (meta["cycle"], meta["overrides"]) == (1500, {"l2_assoc": 2})
    assert main(["ckpt", "resume", digest, "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    plain = job_at("run", flags).run().stats
    assert f"finished at {plain.cycles}\n" in out
    assert re.search(rf"instructions\s+{plain.instructions}\n", out)


# ----------------------------------------------------------------------
# (4) defaults are resolved once; no flag lies


def test_what_run_published_the_daemon_answers_cached(tmp_path, capsys):
    flags = ["-w", "fft", "-a", "shared-l2"]
    cache_dir = tmp_path / "cache"
    assert main([
        "run", *flags, "--jobs", "1", "--cache-dir", str(cache_dir),
    ]) == 0
    daemon = ServiceDaemon(
        port=0, jobs=1, cache=ResultCache(cache_dir)
    ).start()
    try:
        capsys.readouterr()
        assert main([
            "client", "submit", *flags, "--wait",
            "--server", f"http://127.0.0.1:{daemon.port}",
        ]) == 0
        out = capsys.readouterr().out
        assert daemon.scheduler.executed == 0
    finally:
        daemon.shutdown(grace=5.0)
    assert f"job {job_at('run', flags).key()}" in out
    assert re.search(r"state\s+cached", out)


def test_compare_builds_each_preset_at_its_natural_cpu_count(
    tmp_path, capsys
):
    assert main([
        "compare", "-w", "fft", "--archs", "cluster-l1", "shared-l1",
        "--jobs", "1", "--cache-dir", str(tmp_path),
    ]) == 0
    assert "cluster-l1@16 shared-l1@4" in capsys.readouterr().out
    published = ResultCache(tmp_path).get(
        Job(arch="cluster-l1", workload="fft", n_cpus=16,
            max_cycles=MAX_CYCLES)
    )
    assert published is not None
    assert published.stats.n_cpus == 16


@pytest.mark.parametrize("verb", ("run", "reproduce", "serve"))
def test_checkpoint_every_needs_a_directory_at_every_door(verb, capsys):
    machine = ["-w", "fft", "-a", "shared-l2"] if verb == "run" else []
    assert main([verb, *machine, "--checkpoint-every", "700"]) == 2
    assert capsys.readouterr().err == (
        "error: --checkpoint-every requires --checkpoint-dir\n"
    )


# ----------------------------------------------------------------------
# (5) reproduce is a verb, and re-running it is the resume


def test_reproduce_writes_the_gallery_and_a_rerun_only_renders(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(
        reproduce, "STUDIES", {"fig09_fft": STUDIES["fig09_fft"]}
    )
    out_dir = tmp_path / "results"
    argv = [
        "reproduce", str(out_dir), "--quick", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    written = [
        "fig09_fft.csv", "fig09_fft.svg", "fig09_fft.txt", "index.html",
        "paper_claims.txt",
    ]

    def run_and_cached(*flags):
        # (run, cached) from the RunReport.summary() that ends the run
        assert main([*argv, *flags]) == 0
        out = capsys.readouterr().out
        done = out.splitlines()[-1]
        assert done.startswith("done in ")
        counts = re.search(r"; (\d+) run, (\d+) cached", done)
        return out, (int(counts[1]), int(counts[2]))

    out, cold = run_and_cached()
    first_text = (out_dir / "fig09_fft.txt").read_text()
    first_csv = (out_dir / "fig09_fft.csv").read_text()
    assert "paper claims:" in first_text
    assert "<svg" in (out_dir / "fig09_fft.svg").read_text()
    assert "fig09_fft" in (out_dir / "index.html").read_text()
    assert "[cache]" not in out
    assert cold == (3, 0)
    assert sorted(path.name for path in out_dir.iterdir()) == written

    telemetry = tmp_path / "telemetry"
    out, warm = run_and_cached("--telemetry-dir", str(telemetry))
    assert out.count("[cache]") == 3
    assert warm == (0, 3)
    assert re.search(r"^telemetry: .* \(\d+ events, \d+ worker\(s\)\)$",
                     out, re.M)
    assert sorted(path.name for path in telemetry.iterdir()) == [
        "batch_events.jsonl", "batch_trace.json",
    ]
    assert (out_dir / "fig09_fft.txt").read_text() == first_text
    assert (out_dir / "fig09_fft.csv").read_text() == first_csv
    assert sorted(path.name for path in out_dir.iterdir()) == written
