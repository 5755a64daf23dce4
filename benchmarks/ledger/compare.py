"""Compare two ``ledger.json`` files row by row.

One row per (end-to-end metric, workload): *better*, *worse*, *within
bound* or *unresolved*, judged against the regression bound the
benchmark fixed for that metric. A combined score is never offered in
place of the rows.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = LEDGER_DIR.parents[1] / "BENCHMARK.json"

#: End-to-end metrics the ledger reports beyond the set in
#: ``BENCHMARK.json`` (which may only hold metrics every workload
#: emits): direction, and the declared metric whose bound they share.
LEDGER_ONLY = {
    "sim_kips": ("higher", "jobs_per_s"),
    "req_p50_ms": ("lower", "wall_s"),
}

#: two hosts (or one host under different load) are not comparable
#: when their calibration loops differ by more than this
CALIBRATION_TOLERANCE = 0.15


def load_bounds() -> dict[str, tuple[str, float]]:
    """Metric name -> (better, bound) for every end-to-end metric."""
    declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in declared}
    for name, (better, like) in LEDGER_ONLY.items():
        bounds[name] = (better, bounds[like][1])
    bounds["failed_frac"] = ("lower", 0.0)
    return bounds


def _spread(values: list[float]) -> float:
    """Distance between the runs' quartiles as a share of their median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / abs(middle)


def judge(
    base: list[float], new: list[float], better: str, bound: float
) -> tuple[str, float]:
    """Verdict for one row, and how much worse ``new``'s median is than
    ``base``'s as a share of ``base``'s (negative: better)."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    if base_median == 0:
        change = 0.0 if new_median == 0 else float("inf")
    else:
        change = (new_median - base_median) / abs(base_median)
    if better == "higher":
        change = -change
    spread = max(_spread(base), _spread(new))
    overlap = min(new) <= max(base) and min(base) <= max(new)
    if spread > bound and overlap:
        # wider than the bound and not cleanly separated: neither a
        # regression nor "unchanged" can be claimed
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within bound", change


def compare(base: dict, new: dict, bounds: dict) -> tuple[list[dict], list[str]]:
    """Rows for every (metric, workload) in both ledgers, plus notes."""
    notes = []
    base_calib = base["host"]["calib_mops"]
    new_calib = new["host"]["calib_mops"]
    drift = abs(new_calib - base_calib) / base_calib
    if drift > CALIBRATION_TOLERANCE:
        notes.append(
            f"WARNING host calibration differs by {100 * drift:.0f} % "
            f"({base_calib:.2f} vs {new_calib:.2f} Mops): host-time rows "
            "compare two machines, not two commits"
        )
    if (base["scale"], base["seed"]) != (new["scale"], new["seed"]):
        notes.append(
            f"WARNING scale/seed differ: {base['scale']}/{base['seed']} "
            f"vs {new['scale']}/{new['seed']}"
        )
    rows = []
    for name, base_workload in base["workloads"].items():
        new_workload = new["workloads"].get(name)
        if new_workload is None:
            notes.append(f"WARNING workload {name} missing from the second file")
            continue
        for metric, entry in base_workload["end_to_end"].items():
            if metric not in bounds:
                continue  # informational (raw seconds, host speed)
            other = new_workload["end_to_end"].get(metric)
            if other is None:
                notes.append(f"WARNING {name}/{metric} missing from the second file")
                continue
            better, bound = bounds[metric]
            verdict, change = judge(
                entry["values"], other["values"], better, bound
            )
            rows.append({
                "workload": name,
                "metric": metric,
                "unit": entry["unit"],
                "base": entry["median"],
                "new": other["median"],
                "change": change,
                "bound": bound,
                "verdict": verdict,
            })
        # exact values: the modelled machine's time and the accuracy
        # figure must not move at all
        for metric, value in base_workload["exact"].items():
            other = new_workload["exact"].get(metric)
            if other is None:
                notes.append(f"WARNING {name}/{metric} missing from the second file")
                continue
            rows.append({
                "workload": name,
                "metric": metric,
                "unit": "exact",
                "base": value,
                "new": other,
                "change": 0.0,
                "bound": 0.0,
                "verdict": "within bound" if other == value else "worse",
            })
    return rows, notes


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<17} {'metric':<17} {'base':>13} {'new':>13} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<17} {row['metric']:<17} "
            f"{row['base']:>13.6g} {row['new']:>13.6g} "
            f"{100 * row['change']:>8.1f}% {100 * row['bound']:>5.0f}%  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str, strict: bool = False) -> int:
    """Print the comparison; exit status 1 on any *worse* row (and,
    with ``strict``, on anything but *within bound*)."""
    base = json.loads(Path(path_a).read_text())
    new = json.loads(Path(path_b).read_text())
    rows, notes = compare(base, new, load_bounds())
    print(format_rows(rows))
    for note in notes:
        print(note)
    tally: dict[str, int] = {}
    for row in rows:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    print("  ".join(f"{verdict}: {count}" for verdict, count in sorted(tally.items())))
    bad = ("worse", "unresolved", "better") if strict else ("worse",)
    return 1 if any(row["verdict"] in bad for row in rows) else 0
