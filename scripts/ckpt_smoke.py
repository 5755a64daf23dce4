#!/usr/bin/env python3
"""End-to-end crash-recovery smoke test: re-running a batch resumes it.

Scenario (this is the CI ``ckpt-smoke`` job; see docs/CHECKPOINTING.md):

1. Run ``python -m repro reproduce --quick`` to completion against a
   result cache of its own — the baseline: every job's final
   statistics, by content address.
2. Start the same evaluation again against a second, empty cache with
   in-run checkpointing enabled, wait until a few results have been
   published into it, then SIGKILL the whole process group mid-batch
   (the OOM-killer / preemption case).
3. Run the same command again: it must take every published job from
   the cache and simulate only the rest.
4. Assert the interrupted-then-re-run cache covers exactly the same
   jobs as the baseline, with identical per-job statistics — crash
   recovery changed nothing but the wall clock.

Exit status 0 on success; any deviation prints a diagnostic and
returns 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.runner import ResultCache  # noqa: E402


def cache_entries(root: Path) -> dict[str, dict]:
    """Job key -> published entry for every result under ``root``."""
    entries = {}
    for path in ResultCache(root).root.glob("??/[!.]*.json"):
        entry = json.loads(path.read_text())
        entries[entry["key"]] = entry
    return entries


def reproduce_cmd(workdir: Path, name: str, extra: list[str]) -> list[str]:
    return [
        sys.executable, "-m", "repro", "reproduce",
        str(workdir / f"results_{name}"),
        "--quick",
        "--jobs", "2",
        "--cache-dir", str(workdir / f"cache_{name}"),
        *extra,
    ]


def run_to_completion(cmd: list[str], env: dict) -> str:
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=False
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(cmd[1:4])} exited "
                         f"{proc.returncode}")
    return proc.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir", default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--kill-after-jobs", type=int, default=3, metavar="N",
        help="SIGKILL the interrupted run once N results are published",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=200_000, metavar="CYCLES",
        help="in-run snapshot interval for the interrupted run",
    )
    parser.add_argument(
        "--kill-timeout", type=float, default=600.0, metavar="S",
        help="give up if the interrupted run never reaches the "
             "kill threshold",
    )
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="ckpt-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    int_cache = ResultCache(workdir / "cache_interrupted")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    print("=== phase 1: uninterrupted baseline ===", flush=True)
    run_to_completion(reproduce_cmd(workdir, "baseline", []), env)
    baseline = cache_entries(workdir / "cache_baseline")
    if not baseline:
        print("FAIL: the baseline published no results")
        return 1
    print(f"baseline: {len(baseline)} job(s) published")

    print("=== phase 2: SIGKILL mid-batch ===", flush=True)
    interrupted = reproduce_cmd(workdir, "interrupted", [
        "--checkpoint-every", str(args.checkpoint_every),
        "--checkpoint-dir", str(workdir / "ckpts"),
    ])
    # Own process group so the kill takes out pool workers too.
    victim = subprocess.Popen(
        interrupted,
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + args.kill_timeout
    while True:
        if int_cache.disk_stats()["entries"] >= args.kill_after_jobs:
            break
        if victim.poll() is not None:
            # Finished before we could kill it — the re-run below then
            # degenerates to "everything cached", which still validates
            # the comparison, so only warn.
            print("warning: run finished before the kill threshold")
            break
        if time.monotonic() > deadline:
            os.killpg(victim.pid, signal.SIGKILL)
            print("FAIL: interrupted run never reached the kill "
                  "threshold")
            return 1
        time.sleep(0.2)
    if victim.poll() is None:
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait()
    landed = int_cache.disk_stats()["entries"]
    print(f"killed mid-batch with {landed} job(s) published")

    print("=== phase 3: the same command again ===", flush=True)
    out = run_to_completion(interrupted, env)
    if out.count("[cache]") != landed:
        print(f"FAIL: {landed} job(s) were published before the kill "
              f"but the re-run took {out.count('[cache]')} from the cache")
        return 1

    print("=== phase 4: compare against baseline ===", flush=True)
    resumed = cache_entries(int_cache.root)
    if set(resumed) != set(baseline):
        print(f"FAIL: job sets differ "
              f"(baseline {len(baseline)}, resumed {len(resumed)})")
        return 1
    mismatched = [
        entry["spec"]
        for key, entry in baseline.items()
        if resumed[key]["result"]["stats"] != entry["result"]["stats"]
    ]
    if mismatched:
        print("FAIL: per-job statistics diverged after crash recovery:")
        for spec in mismatched:
            print(f"  {spec['workload']}/{spec['arch']}/{spec['cpu_model']}")
        return 1
    print(f"OK: {len(baseline)} job(s), interrupted+re-run statistics "
          f"identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
