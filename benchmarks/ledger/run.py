#!/usr/bin/env python3
"""The layered performance ledger: one command, seven workloads.

    PYTHONPATH=src python benchmarks/ledger/run.py            # full ledger
    python3 benchmarks/ledger/run.py --workload fig_sweep_mipsy \\
        --seed 1996 --seconds 10 --trace 0                    # one run
    python benchmarks/ledger/run.py compare A.json B.json
    python benchmarks/ledger/run.py repeat
    python benchmarks/ledger/run.py --smoke
    python benchmarks/ledger/run.py --rebaseline

A *run* is one workload in one fresh process: set-up, one untraced
pass of the timed region (the end-to-end metrics), every result
checked against ``expected.json``, and — with ``--trace 1`` — a second,
traced pass plus that workload's layer micro-drives (the per-layer
metrics and ``tracing_overhead_ratio``). The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The *full ledger* (no ``--workload``) runs all seven workloads that
way, untraced, round-robin for ``--reps`` rounds, then each once
traced, and writes ``out/ledger.json``. See README.md.
"""

from __future__ import annotations

import time

import hostspeed

#: host speed just before the imports that ``setup_s`` times
_Y0 = hostspeed.yardstick()
_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_OUT = LEDGER_DIR / "out"

WORKLOAD_NAMES = (
    "fig_sweep_mipsy",
    "fig_sweep_mxs",
    "coherence_storm",
    "replay_warm",
    "replay_cold",
    "service_cold",
    "service_hit",
)
DEFAULT_SEED = 1996
HELD_OUT_SEED = 2026
#: fresh-interpreter imports timed per run for the ``setup_s`` median
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 900
#: per-layer entries that bound a layer's cost from above without
#: saying so in their name (see drives.py)
UPPER_BOUNDS = (
    "workloads.gen_share", "mem.drive_s", "mem.ns_per_access",
    "mem.share_of_kernel",
)
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _import_program() -> float:
    """Import the package under test and the ledger's own modules;
    returns the seconds since process start, at reference host speed."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no package under test at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import metrics  # noqa: F401 — pulls in passes, drives and repro.*
    elapsed = time.perf_counter() - _T0
    return elapsed * hostspeed.factor(_Y0, hostspeed.yardstick())


def _probe_import() -> float:
    """Seconds a fresh interpreter needs for :func:`_import_program`."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--import-probe"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set: this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


# ----------------------------------------------------------------------
# one run of one workload


@dataclass
class Pass:
    """One pass over a workload's timed region, in raw seconds."""

    state: dict
    outcomes: list
    wall_s: float
    cpu_s: float
    #: host-speed samples taken around and inside the pass
    speed: hostspeed.HostSpeed
    #: multiplies the pass's raw seconds onto the reference host speed
    factor: float
    #: the region from first call to last return, yardstick samples
    #: included: what the "pass" span covers when traced
    span_s: float = 0.0


def _run_pass(workload, ctx, state, spans) -> Pass:
    """The timed region once, then tear-down."""
    import passes

    gc.collect()
    speed = hostspeed.HostSpeed()
    speed.sample()
    outside_s = speed.spent_s
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    if spans is None:
        outcomes = workload.timed(ctx, state, None, speed)
    else:
        with spans.span("pass"):
            outcomes = workload.timed(ctx, state, spans, speed)
    span_s = time.perf_counter() - started
    sampling_s = speed.spent_s - outside_s
    # Worker processes are only accounted once reaped, so CPU time is
    # read after tear-down (and includes it).
    workload.finish(ctx, state)
    cpu_s = _cpu_seconds() - cpu_before - sampling_s
    speed.sample()
    wall_s, factor = workload.wall(
        state, outcomes, span_s - sampling_s, speed
    )
    passes.decode_payloads(outcomes)
    return Pass(state, outcomes, wall_s, cpu_s, speed, factor, span_s)


def _run_interleaved(workload, ref_state, traced_state, spans):
    """Tracing-overhead A/B for an in-process workload: every job runs
    untraced and traced back to back (order alternating), so both sides
    see the same host conditions. Returns the (untraced, traced) passes;
    they share the host-speed samples taken after each pair."""
    ref, traced = [], []
    walls = {"ref": 0.0, "traced": 0.0}
    speed = hostspeed.HostSpeed()
    gc.collect()
    cpu_before = _cpu_seconds()
    with spans.span("pass"):
        pairs = zip(ref_state["jobs"], traced_state["jobs"])
        for index, (plain, walked) in enumerate(pairs):
            sides = [("ref", plain), ("traced", walked)]
            if index % 2:
                sides.reverse()
            for side, (job_id, job) in sides:
                started = time.perf_counter()
                if side == "ref":
                    with spans.span("untraced_reference", job_id):
                        ref.append(workload.step(ref_state, job_id, job, None))
                else:
                    traced.append(
                        workload.step(traced_state, job_id, job, spans)
                    )
                walls[side] += time.perf_counter() - started
            with spans.span("host.yardstick"):
                speed.sample()
    cpu_s = _cpu_seconds() - cpu_before
    span_s = walls["ref"] + walls["traced"] + speed.spent_s
    factor = speed.factor()
    return (
        Pass(ref_state, ref, walls["ref"], cpu_s, speed, factor),
        Pass(
            traced_state, traced, walls["traced"], cpu_s, speed, factor,
            span_s,
        ),
    )


def run_workload(args) -> int:
    """Contract mode: one workload, one process, one JSON line."""
    tmp_root = Path(args.out) / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    # Hermetic stores: every store the run uses gets an explicit path
    # under run_dir; the default cache location points at a sentinel
    # that must still be empty afterwards.
    sentinel = run_dir / "default-cache-sentinel"
    sentinel.mkdir()
    os.environ["REPRO_CACHE_DIR"] = str(sentinel)
    try:
        document = _measure(args, run_dir)
        leaked = sorted(p.name for p in sentinel.rglob("*"))
        if leaked:
            print(
                f"error: the run wrote to the default cache dir: {leaked}",
                file=sys.stderr,
            )
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.detail:
        Path(args.detail).write_text(json.dumps(document, indent=1))
    return _report(document, args.trace)


def _measure(args, run_dir: Path) -> dict:
    """Set up, run the timed region(s), check and compute everything."""
    own_import_s = _import_program()
    import metrics
    import passes
    from spanrec import SpanRecorder

    name = args.workload
    workload = passes.WORKLOADS[name]
    ctx = passes.Context(
        seed=args.seed, scale=args.scale, seconds=args.seconds,
        run_dir=run_dir,
    )
    expected = metrics.load_expected()

    # set-up, several times where it is cheap; earlier states are
    # torn down untimed and the last one is used
    prepare_s = []
    state = None
    speed_before = hostspeed.steady()
    for _ in range(workload.setup_reps):
        if state is not None:
            workload.finish(ctx, state)
        started = time.perf_counter()
        state = workload.prepare(ctx)
        prepare_s.append(time.perf_counter() - started)
    prepare_factor = hostspeed.factor(speed_before, hostspeed.steady())

    spans = SpanRecorder()
    traced = None
    if not args.trace:
        untraced = _run_pass(workload, ctx, state, None)
    elif workload.in_process:
        untraced, traced = _run_interleaved(
            workload, state, workload.prepare(ctx), spans
        )
    else:
        untraced = _run_pass(workload, ctx, state, None)
        traced = _run_pass(workload, ctx, workload.prepare(ctx), spans)

    verdict = {"attempted": 0, "failed": 0, "unverified": 0, "problems": []}
    for done in filter(None, (untraced, traced)):
        checked = metrics.verify(done.outcomes, expected)
        for key, value in checked.items():
            verdict[key] += value
        verdict["problems"] += workload.problems(done.state)
    peak_rss_mb = _peak_rss_mb()

    document = {
        "workload": name,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    per_layer: dict = {}
    if traced is not None:
        by_name = spans.by_name()
        # The interleaved pair shares one set of host-speed samples, so
        # the scaling cancels in their ratio; two passes run one after
        # the other each carry their own.
        per_layer = metrics.per_layer(name, ctx, by_name, traced, untraced)
        trace_path = Path(args.out) / f"trace-{name}.json"
        spans.write(trace_path, f"ledger {name}")
        pass_span = spans.spans[0]
        document["spans"] = {
            "file": str(trace_path),
            "by_name": by_name,
            "lane_closure_error": spans.lane_closure_error(),
            "pass_vs_wall_error": abs(
                (pass_span.end - pass_span.start) - traced.span_s
            ) / traced.span_s,
        }

    # Import cost, sampled in fresh interpreters last so the probes do
    # not count towards this run's child CPU time or peak RSS.
    import_s = [own_import_s] + [
        _probe_import() for _ in range(IMPORT_SAMPLES - 1)
    ]
    setup_s = (
        statistics.median(import_s)
        + statistics.median(prepare_s) * prepare_factor
    )
    end_to_end, exact = metrics.end_to_end(
        name, args.scale, untraced.outcomes, verdict, setup_s,
        untraced.wall_s, untraced.cpu_s, peak_rss_mb, untraced.factor,
    )
    pinned = expected.get("claims_held", {}).get(args.scale)
    if "claims_held_frac" in exact and pinned is not None:
        if exact["claims_held_frac"] != pinned[0] / pinned[1]:
            verdict["problems"].append(
                f"claims_held_frac {exact['claims_held_frac']:.4f} differs "
                f"from the pinned {pinned[0]}/{pinned[1]}"
            )
    document.update(
        verdict,
        end_to_end={k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        per_layer={k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        exact=exact,
        setup_samples={"import_s": import_s, "prepare_s": prepare_s},
        yardstick_mops=untraced.speed.samples,
    )
    return document


def _report(document: dict, trace: int) -> int:
    """Print every metric by name with its unit, then the JSON line."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    section = "per_layer" if trace else "end_to_end"
    for group in ("end_to_end", "per_layer"):
        for name, entry in document[group].items():
            print(f"{name:<34} {entry['value']:>16.6f} {entry['unit']}")
    for name, value in document["exact"].items():
        print(f"{name:<34} {value:>16.6f} exact")
    for problem in document["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    if document["unverified"]:
        print(
            f"unverified: {document['unverified']} job(s) have no digest "
            "in expected.json",
            file=sys.stderr,
        )
    wanted = [metric["name"] for metric in declared[section]]
    missing = [name for name in wanted if name not in document[section]]
    if missing:
        print(f"error: metrics not emitted: {missing}", file=sys.stderr)
        return 1
    correct = (
        document["failed"] == 0
        and document["unverified"] == 0
        and not document["problems"]
    )
    print(json.dumps({
        "correct": correct,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: document[section][name] for name in wanted},
    }))
    return 0


# ----------------------------------------------------------------------
# the full ledger


def host_record() -> dict:
    """Who measured: core count, interpreter, load, and one second of
    the pure-Python yardstick loop, which lets ``compare`` notice when
    two files come from differently fast (or differently busy) hosts."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "calib_mops": hostspeed.yardstick(1.0),
    }


def _child(args, name: str, trace: int, detail: Path) -> dict:
    """Run one workload in a fresh process; returns its detail file."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", args.scale,
        "--out", str(args.out),
        "--detail", str(detail),
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: {name} (trace {trace}) exited {done.returncode}")
    document = json.loads(detail.read_text())
    print(
        f"  {name:<17} trace={trace} "
        f"wall_s={document['end_to_end']['wall_s']['value']:.3f} "
        f"failed={document['failed']}/{document['attempted']} "
        f"[{time.perf_counter() - started:.1f}s]",
        flush=True,
    )
    return document


def run_ledger(args, traced: bool = True, label: str = "ledger") -> dict:
    """All workloads, untraced round-robin then once traced."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    detail = out / "tmp"
    detail.mkdir(exist_ok=True)
    host = host_record()
    print(
        f"{label}: {len(WORKLOAD_NAMES)} workloads x {args.reps} rep(s), "
        f"scale={args.scale} seed={args.seed}; host {host['nproc']} cores, "
        f"python {host['python']}, load {host['loadavg_1m']:.2f}, "
        f"calib {host['calib_mops']:.2f} Mops",
        flush=True,
    )
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOAD_NAMES}
    for rep in range(args.reps):
        for name in WORKLOAD_NAMES:
            runs[name].append(
                _child(args, name, 0, detail / f"{label}-{name}-{rep}.json")
            )
    traced_runs = {}
    if traced:
        for name in WORKLOAD_NAMES:
            traced_runs[name] = _child(
                args, name, 1, detail / f"{label}-{name}-traced.json"
            )

    ledger = {
        "schema": 1,
        "host": host,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "reps": args.reps,
        "workloads": {},
    }
    for name in WORKLOAD_NAMES:
        end_to_end = {}
        for metric in runs[name][0]["end_to_end"]:
            values = [run["end_to_end"][metric]["value"] for run in runs[name]]
            end_to_end[metric] = {
                "unit": runs[name][0]["end_to_end"][metric]["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
                "values": values,
            }
        exact = runs[name][0]["exact"]
        for run in runs[name][1:]:
            if run["exact"] != exact:
                raise SystemExit(
                    f"error: {name}: exact values differ between runs of "
                    f"one commit: {exact} vs {run['exact']}"
                )
        entry = {
            "end_to_end": end_to_end,
            "exact": exact,
            "attempted": sum(run["attempted"] for run in runs[name]),
            "failed": sum(run["failed"] for run in runs[name]),
            "unverified": sum(run["unverified"] for run in runs[name]),
        }
        if name in traced_runs:
            entry["per_layer"] = traced_runs[name]["per_layer"]
            entry["spans"] = traced_runs[name]["spans"]
        ledger["workloads"][name] = entry
    path = out / f"{label}.json"
    path.write_text(json.dumps(ledger, indent=1))
    print_ledger(ledger)
    print(f"wrote {path}")
    return ledger


def print_ledger(ledger: dict) -> None:
    """Every metric by name, with its unit."""
    for name, entry in ledger["workloads"].items():
        share = entry["failed"] / max(entry["attempted"], 1)
        note = "  UNVERIFIED" if entry["unverified"] else ""
        print(f"\n{name}: {entry['failed']}/{entry['attempted']} failed "
              f"({share:.3f}){note}")
        print(f"  {'end-to-end (untraced)':<32} {'median':>14} {'min':>14} "
              f"{'max':>14} {'n':>2}  unit")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<32} {row['median']:>14.6g} {row['min']:>14.6g} "
                  f"{row['max']:>14.6g} {row['n']:>2}  {row['unit']}")
        for metric, value in entry["exact"].items():
            print(f"  {metric:<32} {value:>14.6g} {'':>14} {'':>14} {'':>2}  exact")
        if "per_layer" in entry:
            print(f"  {'per-layer (traced pass)':<32} {'value':>14}")
            for metric, row in entry["per_layer"].items():
                upper = (
                    "  (upper bound)"
                    if "_upper_" in metric or metric in UPPER_BOUNDS
                    else ""
                )
                print(f"  {metric:<32} {row['value']:>14.6g}  "
                      f"{row['unit']}{upper}")


def run_repeat(args) -> int:
    """Two full untraced sets of one commit must agree within bound."""
    import compare

    first = run_ledger(args, traced=False, label="repeat-a")
    second = run_ledger(args, traced=False, label="repeat-b")
    out = Path(args.out)
    status = compare.main(
        str(out / "repeat-a.json"), str(out / "repeat-b.json"), strict=True
    )
    failed = any(
        ledger["workloads"][name]["failed"]
        for ledger in (first, second)
        for name in WORKLOAD_NAMES
    )
    return 1 if status or failed else 0


# ----------------------------------------------------------------------
# smoke and rebaseline


def run_smoke(args) -> int:
    """The same code path at test scale, with the ledger's own
    invariants asserted. Not collected by tier-1 (testpaths = tests)."""
    import compare

    args.scale, args.reps = "test", 1
    args.out = str(Path(args.out) / "smoke")
    ledger = run_ledger(args)
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    sys.path.insert(0, str(SRC))
    from repro.obs import validate_trace

    for name, entry in ledger["workloads"].items():
        assert entry["failed"] == 0, (name, "failed jobs")
        assert entry["unverified"] == 0, (name, "unverified jobs")
        for metric in declared["end_to_end"]:
            assert metric["name"] in entry["end_to_end"], (name, metric)
        for metric in declared["per_layer"]:
            assert metric["name"] in entry["per_layer"], (name, metric)
        for metric in (*entry["end_to_end"], *entry["per_layer"], *entry["exact"]):
            assert METRIC_NAME.match(metric), metric
        spans = entry["spans"]
        assert spans["lane_closure_error"] <= 0.02, (name, spans)
        assert spans["pass_vs_wall_error"] <= 0.02, (name, spans)
        assert validate_trace(spans["file"]) == [], (name, "bad trace")
    bounds = compare.load_bounds()
    rows, _ = compare.compare(ledger, ledger, bounds)
    assert all(row["verdict"] == "within bound" for row in rows)
    # a synthetic slowdown half as large again as the bound must show
    slower = 1 + 1.5 * bounds["wall_s"][1]
    slowed = json.loads(json.dumps(ledger))
    row = slowed["workloads"]["fig_sweep_mipsy"]["end_to_end"]["wall_s"]
    row["values"] = [value * slower for value in row["values"]]
    row["median"] *= slower
    rows, _ = compare.compare(ledger, slowed, bounds)
    flagged = [r for r in rows if r["verdict"] != "within bound"]
    assert [(r["workload"], r["metric"], r["verdict"]) for r in flagged] == [
        ("fig_sweep_mipsy", "wall_s", "worse")
    ], flagged
    print("smoke ok")
    return 0


def run_rebaseline(args) -> int:
    """Regenerate ``expected.json`` from the current tree — a
    deliberate act, reviewed on its own: it redefines *correct*."""
    _import_program()
    import matrix
    import metrics
    import passes

    tmp_root = Path(args.out) / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="rebaseline-", dir=tmp_root))
    digests: dict[str, str] = {}
    claims: dict[str, list[int]] = {}
    try:
        for scale in ("bench", "test"):
            jobs = matrix.figure_jobs(scale)
            jobs += matrix.figure_jobs(scale, cpu_model="mxs")
            jobs += matrix.figure_jobs(
                scale, replay=True, trace_dir=str(run_dir / f"traces-{scale}")
            )
            for rng_seed in matrix.STORM_RNG_SEEDS:
                jobs += matrix.storm_jobs(scale, rng_seed)
            outcomes = []
            for job_id, job in jobs:
                outcome = passes.run_job(job_id, job)
                if outcome.error is not None:
                    raise SystemExit(f"error: {job_id}: {outcome.error}")
                digests[job_id] = metrics.stats_digest(outcome.stats)
                outcomes.append(outcome)
                print(f"  {job_id}  {digests[job_id][:12]}", flush=True)
            mipsy = [o for o in outcomes if o.job_id.endswith(f"/mipsy/{scale}")
                     and not o.job_id.startswith("synthetic@")]
            claims[scale] = list(metrics.claims_held(mipsy, scale))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics.EXPECTED_PATH.write_text(json.dumps(
        {
            "note": "SHA-256 of canonical-JSON SystemStats.to_dict() per "
                    "job; regenerate only with run.py --rebaseline",
            "seeds": [DEFAULT_SEED, HELD_OUT_SEED],
            "claims_held": claims,
            "digests": dict(sorted(digests.items())),
        },
        indent=1,
    ) + "\n")
    print(f"wrote {metrics.EXPECTED_PATH} ({len(digests)} digests)")
    return 0


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="The layered performance ledger (see README.md)."
    )
    parser.add_argument(
        "command", nargs="?", choices=("compare", "repeat"),
        help="compare A.json B.json | repeat (two full sets must agree)",
    )
    parser.add_argument("files", nargs="*", help="ledger files to compare")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="nominal length of one run's timed region (default: "
             "run_seconds in BENCHMARK.json); stretches the round counts "
             "of replay_warm and service_hit, never a job matrix",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "test"), default="bench")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--detail", help="also write the run's full JSON here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--rebaseline", action="store_true")
    parser.add_argument("--import-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.import_probe:
        print(_import_program())
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no package under test at {SRC}/repro")
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare needs two ledger files")
        import compare

        return compare.main(*args.files)
    if args.workload:
        return run_workload(args)
    if args.command == "repeat":
        return run_repeat(args)
    if args.smoke:
        return run_smoke(args)
    if args.rebaseline:
        return run_rebaseline(args)
    run_ledger(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
