"""The paper's evaluation as data: its studies and every claim about them.

Every figure discussion in Section 4 makes specific claims — who wins,
which miss component dominates, which architecture pays which cost.
This module encodes those claims as data
(:data:`PAPER_EXPECTATIONS`), each a relation between named quantities
of :mod:`repro.core.claims` (``shared-l1 time < shared-l2 time``), and
provides :func:`check_figure`, which evaluates a result set against
them and reports which claims hold.
Beside them sits the catalog of *studies* (:data:`STUDIES`): Tables 1
and 2, Figures 4-11 and the eight ablation and crossover studies, each
declaring by value the jobs it needs (:func:`repro.core.runner.job_grid`
over the figures' operating point), how its measurements print (the
paper's rows for a figure, :class:`~repro.core.report.Table` columns
for the rest) and what the paper — or the reproduction — claims about
them, as :data:`Check` values. ``repro reproduce`` runs the union of
their jobs as one batch (:func:`batch_of`: a job two studies share
simulates once), hands every study its results by content address and
fails when a claim does not hold; ``repro list`` prints the catalog.

Users running their own configurations can evaluate the figure claims:

    from repro.core.paper import check_figure
    report = check_figure(results, "fig4")
    for claim, ok, detail in report:
        print("OK " if ok else "DEV", claim, "-", detail)

which prints, at bench scale, lines such as

    OK  shared-l1 time < shared-l2 time - 0.2682 < 0.504
    OK  shared-mem L2I misses > shared-mem L2R misses - 2060 > 253

(`DEV` marks a deviation, not an error: EXPERIMENTS.md documents the
known ones and why they appear at reduced scale.)
"""

from __future__ import annotations

import csv
import dataclasses
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.core.claims import (
    SPREAD,
    Check,
    Quantity,
    Results,
    Row,
    at,
    c2c_transfers,
    cache,
    cell,
    cycles,
    evaluate,
    format_check_report,
    holds,
    ipc,
    rel_time,
    tagged,
    time_share,
    within,
)
from repro.core.configs import ARCHITECTURES, config_for_scale
from repro.core.experiment import ExperimentResult
from repro.core.figures import render_comparison_figure
from repro.core.probes import chain_cpi, idle_latencies
from repro.core.report import (
    Column,
    Table,
    format_breakdown_table,
    format_ipc_table,
    format_miss_rate_table,
    normalized_times,
)
from repro.core.runner import Job, job_grid
from repro.errors import ReproError
from repro.isa.instructions import FU_LATENCY, OpClass
from repro.sim.stats import CycleBreakdown


_SL1, _SL2, _SM = ARCHITECTURES


@dataclass
class FigureExpectation:
    """One figure's claims from the paper's Section 4 discussion."""

    figure: str
    workload: str
    summary: str
    checks: list[Check] = field(default_factory=list)


PAPER_EXPECTATIONS: dict[str, FigureExpectation] = {
    "fig4": FigureExpectation(
        "fig4",
        "eqntott",
        "shared-L1 wins substantially; communication dominates the "
        "shared-memory machine's L2 misses",
        [
            holds(rel_time(_SL1), "<", rel_time(_SL2), quantitative=False),
            holds(rel_time(_SL2), "<", rel_time(_SM), quantitative=False),
            within(rel_time(_SL1), 0.0, 0.9),
            holds(cache(_SM, "L2I misses"), ">", cache(_SM, "L2R misses")),
            holds(
                cache(_SL1, "L1I misses") + cache(_SL1, "L2I misses"),
                "==", 0, quantitative=False,
            ),
            holds(c2c_transfers(_SM), ">", 0, quantitative=False),
        ],
    ),
    "fig5": FigureExpectation(
        "fig5",
        "mp3d",
        "the shared-L1 advantage collapses (paper: 16% worse); "
        "L1 misses are replacement-dominated everywhere",
        [
            within(rel_time(_SL1), 0.85, 1.3),
            holds(
                cache(_SL1, "L1R misses"), ">", cache(_SL1, "L1I misses"),
                quantitative=False,
            ),
            holds(
                cache(_SM, "L1R misses"), ">", cache(_SM, "L1I misses"),
                quantitative=False,
            ),
            # "heavy communication requirements": a large invalidation
            # component in the shared-memory machine's L2.
            holds(cache(_SM, "L2I share"), ">=", 0.25),
        ],
    ),
    "fig6": FigureExpectation(
        "fig6",
        "ocean",
        "large L1R everywhere, small communication; shared-L1 slightly "
        "ahead, shared-L2 behind it",
        [
            holds(cache(_SL1, "L1R rate"), ">=", 0.03),
            holds(cache(_SM, "L1R rate"), ">=", 0.03),
            holds(rel_time(_SL1), "<", rel_time(_SL2), quantitative=False),
            within(rel_time(_SL1), 0.7, 1.05),
            within(rel_time(_SL2), 0.85, 1.15),
        ],
    ),
    "fig7": FigureExpectation(
        "fig7",
        "volpack",
        "small working set; the two shared caches close together, "
        "both ahead of shared memory",
        [
            holds(cache(_SL1, "L1R rate"), "<=", 0.04),
            within(rel_time(_SL1), 0.0, 1.0),
            within(rel_time(_SL2), 0.0, 1.0),
        ],
    ),
    "fig8": FigureExpectation(
        "fig8",
        "ear",
        "shared-L1 has almost no memory stalls; private caches pay the "
        "suite's highest invalidation rate",
        [
            holds(rel_time(_SL1), "<", rel_time(_SL2), quantitative=False),
            holds(rel_time(_SL2), "<", rel_time(_SM), quantitative=False),
            holds(time_share(_SL1, "memory_stall"), "<=", 0.15),
            holds(
                cache(_SL1, "L1I misses") + cache(_SL1, "L2I misses"),
                "==", 0, quantitative=False,
            ),
        ],
    ),
    "fig9": FigureExpectation(
        "fig9",
        "fft",
        "all three fairly similar; shared caches slightly ahead",
        [
            within(rel_time(_SL1), 0.6, 1.1),
            within(rel_time(_SL2), 0.6, 1.15),
        ],
    ),
    "fig10": FigureExpectation(
        "fig10",
        "multiprog",
        "shared-L1 close to shared memory, shared-L2 behind both; "
        "instruction stalls visible; the pooled L1 pays no extra L1R",
        [
            within(rel_time(_SL1), 0.7, 1.1),
            # The paper's "pooled L1 holds the working sets" only holds
            # when the shared cache is big enough for the process count
            # — a capacity claim, hence quantitative.
            holds(rel_time(_SL1), "<", rel_time(_SL2)),
            holds(time_share(_SL1, "istall"), ">=", 0.05),
            holds(time_share(_SM, "istall"), ">=", 0.05),
        ],
    ),
}


def check_figure(
    results: dict[str, ExperimentResult],
    figure: str,
    structural_only: bool = False,
) -> list[tuple[str, bool, str]]:
    """Evaluate one figure's claims; returns (label, ok, detail) rows.

    ``structural_only`` skips the quantitative claims, which are tuned
    for bench scale (the studies' operating point) and are not
    expected to hold at other scales.
    """
    try:
        expectation = PAPER_EXPECTATIONS[figure]
    except KeyError:
        raise ReproError(
            f"unknown figure {figure!r}; known: "
            f"{', '.join(sorted(PAPER_EXPECTATIONS))}"
        ) from None
    return evaluate(expectation.checks, results, structural_only)



# ----------------------------------------------------------------------
# Studies: what runs, how it prints, what is claimed


@dataclass(frozen=True)
class Study:
    """One table, figure or ablation of the evaluation.

    ``name`` is the artefact stem. ``rows`` are the simulations, by
    value: row label -> {point -> :class:`~repro.core.runner.Job`};
    a study that measures an idle machine instead has a ``probe``
    returning its rows. With ``tables`` the rows print through those
    column declarations into ``<name>.txt``; without, the first row is
    drawn as the paper draws it (``.txt``/``.csv``/``.svg``), with the
    :data:`PAPER_EXPECTATIONS` entry ``claims`` reported under the
    series. ``checks`` are further claims, over the study's results.
    A study that is not ``replayable`` measures what a trace freezes
    (timing that feeds back into the reference stream): it runs
    generated even when stamped ``replay=True``.
    """

    name: str
    title: str
    rows: Mapping[Hashable, Mapping[Hashable, Job]] = field(
        default_factory=dict
    )
    probe: Callable[[], Results] | None = None
    tables: Sequence[Table] = ()
    checks: Sequence[Check] = ()
    claims: str | None = None
    replayable: bool = True

    @property
    def jobs(self) -> list[Job]:
        """Every simulation this study reads, row by row."""
        return [job for row in self.rows.values() for job in row.values()]

    @property
    def mxs(self) -> bool:
        """Whether any of it runs under the detailed CPU model (what
        ``repro reproduce --quick`` leaves out)."""
        return any(job.cpu_model == "mxs" for job in self.jobs)

    @property
    def artefacts(self) -> tuple[str, ...]:
        """The files :meth:`write` leaves in the output directory."""
        kinds = ("txt",) if self.tables else ("txt", "csv", "svg")
        return tuple(f"{self.name}.{kind}" for kind in kinds)

    def stamped(self, **fields) -> "Study":
        """This study with ``fields`` laid over every job: execution
        policy, another scale (``replay`` only where it is
        :attr:`replayable`)."""
        if not self.replayable:
            fields.pop("replay", None)
        return dataclasses.replace(self, rows={
            label: {
                point: dataclasses.replace(job, **fields)
                for point, job in row.items()
            }
            for label, row in self.rows.items()
        })

    def results(self, result_of: Callable[[Job], ExperimentResult]) -> Results:
        """This study's measurements: its probe's, or ``result_of``
        each job under the job's row and point."""
        if self.probe is not None:
            return self.probe()
        return {
            label: {point: result_of(job) for point, job in row.items()}
            for label, row in self.rows.items()
        }

    @staticmethod
    def drawn(results: Results) -> Row:
        """The row a figure study draws and the paper's claims are
        about: its first."""
        return next(iter(results.values()))

    def report(
        self, results: Results, structural_only: bool = False
    ) -> list[tuple[str, bool, str]]:
        """Evaluate every claim about this study — the paper's about
        the figure drawn, then ``checks`` — as (label, ok, detail)."""
        paper = [] if self.claims is None else check_figure(
            self.drawn(results), self.claims, structural_only
        )
        return paper + evaluate(self.checks, results, structural_only)

    def write(self, results: Results, out_dir: str | Path) -> str:
        """Format, print and persist the study; returns its text."""
        out_dir = Path(out_dir)
        if self.tables:
            text = "\n".join([
                self.title,
                "=" * len(self.title),
                *(
                    line
                    for table in self.tables
                    for line in ("", table.format(results))
                ),
            ])
        else:
            text = _write_figure(self, self.drawn(results), out_dir)
        print()
        print(text)
        (out_dir / f"{self.name}.txt").write_text(text + "\n")
        return text


def batch_of(studies: Iterable[Study]) -> dict[str, Job]:
    """The union of the studies' jobs by content address, in first-use
    order: the evaluation as one batch, a shared job once."""
    return {job.key(): job for study in studies for job in study.jobs}


#: The artefact every figure claim is reported in, beside the studies'.
CLAIMS_ARTEFACT = "paper_claims.txt"


def write_paper_claims(rows: Mapping[str, Row], out_dir: str | Path) -> str:
    """``paper_claims.txt``: every :data:`PAPER_EXPECTATIONS` claim
    against the figure rows given (figure key -> row)."""
    lines = ["Paper claims at bench scale", "===========================", ""]
    for figure, row in rows.items():
        expectation = PAPER_EXPECTATIONS[figure]
        lines.append(
            f"{figure} ({expectation.workload}): {expectation.summary}"
        )
        lines.append(format_check_report(check_figure(row, figure)))
        lines.append("")
    text = "\n".join(lines)
    (Path(out_dir) / CLAIMS_ARTEFACT).write_text(text + "\n")
    return text


def _write_figure(study: Study, results: Row, out_dir: Path) -> str:
    """One figure's data series: returns the ``.txt`` body (the
    paper's rows plus its claims) and writes ``.csv`` (the
    machine-readable companion) and ``.svg`` beside it."""
    lines = [study.title, "=" * len(study.title), ""]
    if study.mxs:
        lines.append(format_ipc_table(results))
    else:
        lines.append(format_breakdown_table(results))
        lines.append("")
        lines.append(format_miss_rate_table(results))
    times = normalized_times(results)
    lines.append("")
    lines.append(
        "normalized time vs shared-mem: "
        + "  ".join(f"{arch}={value:.3f}" for arch, value in times.items())
    )
    if study.claims is not None:
        lines.append("")
        lines.append("paper claims:")
        lines.append(
            format_check_report(check_figure(results, study.claims))
        )
    with (out_dir / f"{study.name}.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "arch", "cycles", "instructions", "ipc",
            *CycleBreakdown._FIELDS,
            "l1r_pct", "l1i_pct", "l2r_pct", "l2i_pct",
        ])
        for arch, result in results.items():
            breakdown = result.stats.aggregate_breakdown()
            l1 = result.stats.aggregate_caches(".l1d")
            l2 = result.stats.aggregate_caches(".l2")
            writer.writerow([
                arch,
                result.cycles,
                result.instructions,
                f"{result.stats.ipc:.4f}",
                *breakdown.as_dict().values(),
                f"{100 * l1.miss_rate_repl:.3f}",
                f"{100 * l1.miss_rate_inval:.3f}",
                f"{100 * l2.miss_rate_repl:.3f}",
                f"{100 * l2.miss_rate_inval:.3f}",
            ])
    render_comparison_figure(
        results, study.title, out_dir / f"{study.name}.svg"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The catalog

#: Per-workload memory-config overrides at the figures' operating
#: point. Ocean runs at the 1/4 cache scale because its
#: boundary-to-area ratio (the paper's "small amount of communication
#: at the edges") cannot be preserved on a 1/8-scale grid.
BENCH_OVERRIDES: dict[str, dict] = {
    "ocean": {
        "l1d_size": 4096,
        "l1i_size": 4096,
        "l2_size": 512 * 1024,
    },
}

#: Hard ceiling so a regression can never hang a figure run.
BENCH_MAX_CYCLES = 30_000_000



def _bench(workload: str, cpu_model: str = "mipsy", **fields) -> Job:
    """``workload`` at the operating point every study starts from:
    bench scale under the cycle ceiling, its Figure 4-10 caches unless
    ``fields`` says otherwise."""
    fields.setdefault("overrides", dict(BENCH_OVERRIDES.get(workload, {})))
    return Job(
        _SL1, workload, cpu_model, "bench",
        max_cycles=BENCH_MAX_CYCLES, **fields,
    )


def _compare(base: Job) -> dict[str, Job]:
    """One row: ``base`` on each of the paper's architectures."""
    return dict(zip(ARCHITECTURES, job_grid(base, ARCHITECTURES)))


def _sweep(
    base: Job, name: str, values: Sequence, archs=ARCHITECTURES
) -> dict[Hashable, dict[str, Job]]:
    """One row of ``archs`` per value of the ``MemConfig`` field
    ``name``. The value the bench scale has anyway is no override, so
    that row is the very jobs the workload's figure runs."""
    default = getattr(config_for_scale("bench"), name)
    jobs = iter(job_grid(base, archs, overrides=[
        {} if value == default else {name: value} for value in values
    ]))
    return {value: {arch: next(jobs) for arch in archs} for value in values}


def _figure(
    name: str, title: str, workload: str, claims: str, *checks: Check
) -> Study:
    """A Mipsy figure; ``checks`` are further claims about its row."""
    return Study(
        name, title, {"mipsy": _compare(_bench(workload))}, claims=claims,
        checks=[at("mipsy", check, check.label) for check in checks],
    )


def _figure11(app: str, *checks: Check) -> Study:
    """A Figure 11 application: the MXS runs that are drawn, and the
    Mipsy runs (its Figure 4-10 jobs) some claims compare them with.
    Not replayable: a trace holds the interleaving of the in-order
    recording, where MXS timing would have fed back into it."""
    return Study(
        f"fig11_{app}_mxs", f"Figure 11 - {app} (MXS, ideal IPC = 2)",
        {model: _compare(_bench(app, model)) for model in ("mxs", "mipsy")},
        checks=checks,
        replayable=False,
    )


#: Claim: charging the shared L1 its real hit time and bank contention
#: moves it toward (or past) the shared-memory baseline.
_ADVANTAGE_SHRINKS = holds(
    rel_time(_SL1).at("mxs"), ">", rel_time(_SL1).at("mipsy")
)

#: The paper's Table 1 (cycles); a load is 1 or 3 by architecture.
_TABLE1_PAPER = {
    OpClass.IALU: 1, OpClass.IMUL: 2, OpClass.IDIV: 12, OpClass.BRANCH: 2,
    OpClass.STORE: 1, OpClass.FADD_SP: 2, OpClass.FMUL_SP: 2,
    OpClass.FDIV_SP: 12, OpClass.FADD_DP: 2, OpClass.FMUL_DP: 2,
    OpClass.FDIV_DP: 18,
}
_TABLE1_ROWS = (
    ("ALU", OpClass.IALU, "SP Add/Sub", OpClass.FADD_SP),
    ("Multiply", OpClass.IMUL, "SP Multiply", OpClass.FMUL_SP),
    ("Divide", OpClass.IDIV, "SP Divide", OpClass.FDIV_SP),
    ("Branch", OpClass.BRANCH, "DP Add/Sub", OpClass.FADD_DP),
    ("Load", OpClass.LOAD, "DP Multiply", OpClass.FMUL_DP),
    ("Store", OpClass.STORE, "DP Divide", OpClass.FDIV_DP),
)
#: classes whose latency is also measured through the MXS pipeline
_TABLE1_CHAINED = (
    OpClass.IALU, OpClass.IMUL, OpClass.IDIV, OpClass.FADD_DP,
    OpClass.FDIV_DP,
)


def _probe_table1() -> Results:
    rows: dict = {
        unit: {
            "latency": "1 or 3" if op is OpClass.LOAD else FU_LATENCY[op],
            "fp": fp_unit,
            "fp latency": FU_LATENCY[fp_op],
        }
        for unit, op, fp_unit, fp_op in _TABLE1_ROWS
    }
    rows["chain"] = {op.name: chain_cpi(op) for op in _TABLE1_CHAINED}
    return rows


def _table1_as_published(_results: Results) -> tuple[bool, str]:
    differing = [
        op.name for op, cycles in _TABLE1_PAPER.items()
        if FU_LATENCY[op] != cycles
    ]
    return not differing, f"{len(_TABLE1_PAPER)} classes, differing: {differing}"


#: The paper's Table 2 (cycles at 200 MHz) and its access-type names.
_TABLE2_PAPER = {
    _SL1: {"l1": "3", "l2": "10", "mem": "50"},
    _SL2: {"l1": "1", "l2": "14", "mem": "50"},
    _SM: {"l1": "1", "l2": "10", "mem": "50", "c2c": ">50"},
}
_TABLE2_ACCESS = {
    "l1": "Level 1 Cache", "l2": "Level 2 Cache", "mem": "Main",
    "c2c": "Cache-to-Cache",
}


def _probe_table2() -> Results:
    return {
        (arch, access): {
            "system": arch,
            "access": _TABLE2_ACCESS[access],
            "measured": latency,
            "paper": _TABLE2_PAPER[arch][access],
        }
        for arch in ARCHITECTURES
        for access, latency in idle_latencies(arch).items()
    }


def _idle(arch: str, access: str) -> Quantity:
    return cell(
        (arch, access), "measured",
        f"{arch} idle {_TABLE2_ACCESS[access]} latency",
    )


def _speedup(n_cpus: int) -> Quantity:
    return Quantity(f"{n_cpus}-CPU speedup", cycles(1) / cycles(n_cpus))


def _percent(header, width, quantity, digits=2) -> Column:
    return Column(header, width, 100 * quantity, f".{digits}f", "%")


def _time_columns(*columns: tuple[str, int]) -> list[Column]:
    """A relative-time column per (architecture, width)."""
    return [
        Column(arch, width, rel_time(arch), ".3f") for arch, width in columns
    ]


_SM_L1I = cache(_SM, "L1I rate")
_L2_MISS = {arch: cache(arch, "L2 miss rate") for arch in ARCHITECTURES}
_SCALING = tuple(
    (workload, arch) for workload in ("fft", "ear") for arch in ARCHITECTURES
)
_SHARING = (0.0, 0.15, 0.35, 0.6, 0.85)

#: Tables 1-2, Figures 4-10 under Mipsy, Figure 11's three MXS
#: applications, then the ablation and crossover studies.
STUDIES: dict[str, Study] = {
    study.name: study
    for study in (
        Study(
            "table1_fu_latencies", "Table 1 - CPU functional unit latencies",
            probe=_probe_table1,
            tables=[Table(
                [
                    Column("Integer", 12, left=True),
                    Column("Latency", 8, operator.itemgetter("latency")),
                    Column("", 3, lambda row: ""),
                    Column("Floating Point", 16,
                           operator.itemgetter("fp"), left=True),
                    Column("Latency", 8, operator.itemgetter("fp latency")),
                ],
                rows=[unit for unit, *_ in _TABLE1_ROWS], rule=True,
            )],
            checks=[
                tagged(
                    _table1_as_published,
                    "implemented latencies equal the paper's Table 1",
                    quantitative=False,
                ),
                # A dependent chain's CPI is the result latency plus a
                # little pipeline fill at either end of the run.
                *(
                    holds(
                        abs(cell("chain", op.name,
                                 f"{op.name} dependent-chain CPI")
                            - FU_LATENCY[op]),
                        "<", 0.5, quantitative=False,
                    )
                    for op in _TABLE1_CHAINED
                ),
            ],
        ),
        Study(
            "table2_latencies",
            "Table 2 - contention-free access latencies (measured, cycles)",
            probe=_probe_table2,
            tables=[Table(
                [
                    Column("System", 12,
                           operator.itemgetter("system"), left=True),
                    Column("Access type", 16,
                           operator.itemgetter("access"), left=True),
                    Column("Measured", 10, operator.itemgetter("measured")),
                    Column("Paper", 8, operator.itemgetter("paper")),
                ],
                rule=True,
            )],
            # The paper's values, plus a small allowance for the
            # L1-probe/port step the detailed path adds before the
            # next level begins.
            checks=[
                holds(_idle(_SL1, "l1"), "==", 3, quantitative=False),
                holds(_idle(_SL2, "l1"), "==", 1, quantitative=False),
                holds(_idle(_SM, "l1"), "==", 1, quantitative=False),
                within(_idle(_SL1, "l2"), 10, 15, quantitative=False),
                within(_idle(_SL2, "l2"), 14, 16, quantitative=False),
                within(_idle(_SM, "l2"), 10, 13, quantitative=False),
                *(
                    holds(_idle(arch, "mem"), ">=", 50, quantitative=False)
                    for arch in ARCHITECTURES
                ),
                holds(_idle(_SM, "c2c"), ">", 50, quantitative=False),
            ],
        ),
        _figure(
            "fig04_eqntott", "Figure 4 - Eqntott (Mipsy)", "eqntott", "fig4",
            # the baseline loses by a clear margin
            holds(rel_time(_SL1), "<", 0.8),
        ),
        _figure(
            "fig05_mp3d", "Figure 5 - MP3D (Mipsy)", "mp3d", "fig5",
            holds(cache(_SM, "L2I rate"), ">", 0.02),
            # The extra shared-L1 misses turn into conflict misses in
            # the direct-mapped L2, well above the shared-L2 design's.
            holds(cache(_SL1, "L2R rate"), ">",
                  1.5 * cache(_SL2, "L2R rate")),
        ),
        _figure(
            "fig06_ocean", "Figure 6 - Ocean (Mipsy)", "ocean", "fig6",
            within(rel_time(_SL1), 0.7, 1.0),
            holds(cache(_SL2, "L1R rate"), ">", 0.03),
            # communication is a thin slice of the misses
            *(
                holds(cache(arch, "L1I rate"), "<",
                      0.5 * cache(arch, "L1R rate"))
                for arch in ARCHITECTURES
            ),
        ),
        _figure(
            "fig07_volpack", "Figure 7 - Volpack (Mipsy)", "volpack", "fig7",
            # the two shared-cache designs are close to each other
            # relative to their distance from the baseline
            holds(abs(rel_time(_SL1) - rel_time(_SL2)), "<", 0.45),
            holds(cache(_SM, "L2I misses"), ">", 0),
        ),
        _figure(
            "fig08_ear", "Figure 8 - Ear (Mipsy)", "ear", "fig8",
            holds(rel_time(_SL1), "<", 0.7),
            # invalidations are a substantial part of the private L1s'
            # misses (the suite's highest L1I)
            holds(cache(_SM, "L1I misses"), ">",
                  0.3 * cache(_SM, "L1R misses")),
        ),
        _figure(
            "fig09_fft", "Figure 9 - FFT (Mipsy)", "fft", "fig9",
            holds(rel_time(_SL1), "<=", 1.05),
            holds(rel_time(_SL2), "<=", 1.1),
            holds(cache(_SL1, "L1R rate"), "<", 0.12),
        ),
        _figure(
            "fig10_multiprog", "Figure 10 - Multiprogramming + OS (Mipsy)",
            "multiprog", "fig10",
            within(rel_time(_SL1), 0.7, 1.05),
            holds(rel_time(_SL2), ">", 0.95),
            holds(time_share(_SL2, "istall"), ">", 0.05),
            # the paper's surprise: the pooled L1 pays no extra L1R
            holds(cache(_SL1, "L1R rate"), "<",
                  1.3 * cache(_SM, "L1R rate")),
        ),
        _figure11(
            "multiprog",
            _ADVANTAGE_SHRINKS,
            # with no sharing to exploit, shared-L2 no longer beats
            # the shared-memory baseline
            at("mxs", holds(ipc(_SL2), "<=", 1.1 * ipc(_SM))),
        ),
        _figure11(
            "eqntott",
            # "the three architectures stay in the same order"
            at("mxs", holds(rel_time(_SL1), "<", rel_time(_SL2),
                            quantitative=False)),
            at("mxs", holds(rel_time(_SL2), "<", rel_time(_SM),
                            quantitative=False)),
            at("mxs", holds(rel_time(_SL1), "<", 1.0)),
        ),
        _figure11(
            "ear",
            _ADVANTAGE_SHRINKS,
            # shared-L2 gets the sharing without the hit time: the
            # best IPC overall
            at("mxs", holds(ipc(_SL2), ">=", ipc(_SL1))),
            at("mxs", holds(ipc(_SL2), ">", ipc(_SM))),
        ),
        Study(
            "ablation_linesize",
            "Ablation - cache line size (Section 4's false-sharing note)",
            _sweep(_bench("eqntott"), "line_size", (16, 32, 64)),
            tables=[Table([
                Column("line size", 10),
                _percent("sm L1I%", 9, _SM_L1I),
                _percent("sm L2I%", 9, cache(_SM, "L2I rate")),
                Column("shared-l1 time", 16, rel_time(_SL1), ".3f"),
            ])],
            checks=[
                # bigger lines -> more false sharing on private caches
                holds(_SM_L1I.at(64), ">", _SM_L1I.at(16)),
                # the machine with no coherence at all is immune
                *(
                    holds(rel_time(_SL1).at(size), "<", 1.0)
                    for size in (16, 32, 64)
                ),
            ],
            # The invalidations false sharing causes ride on spin
            # traffic whose length a trace freezes (docs/REPLAY.md).
            replayable=False,
        ),
        Study(
            "ablation_mp3d_l2assoc",
            "Ablation - MP3D L2 associativity (Section 4.1)",
            _sweep(_bench("mp3d"), "l2_assoc", (1, 2, 4)),
            tables=[Table([
                Column("assoc", 6),
                *(
                    _percent(f"{arch} L2%", 16, _L2_MISS[arch])
                    for arch in ARCHITECTURES
                ),
            ])],
            checks=[
                # direct-mapped -> 4-way collapses the shared-L1
                # machine's L2 miss rate toward the others'
                holds(_L2_MISS[_SL1].at(4), "<", 0.6 * _L2_MISS[_SL1].at(1)),
                holds(_L2_MISS[_SL1].at(4), "<", 2.5 * _L2_MISS[_SL2].at(4)),
                holds(_L2_MISS[_SL1].at(1), ">", 1.5 * _L2_MISS[_SL2].at(1)),
            ],
        ),
        Study(
            "ablation_eqntott_scaling",
            "Ablation - Eqntott data-set scaling (Section 4.1)",
            {
                # 192 words is the bench data set: Figure 4's jobs
                words: _compare(_bench(
                    "eqntott",
                    workload_args={} if words == 192 else {"vec_words": words},
                ))
                for words in (96, 192, 768)
            },
            tables=[Table([
                Column("vector words", 13), *_time_columns((_SL1, 12), (_SL2, 12)),
            ])],
            # replacement misses dilute the communication
            checks=[holds(rel_time(_SL1).at(768), ">", rel_time(_SL1).at(96))],
        ),
        Study(
            "ablation_multichip_l1",
            "Ablation - shared-L1 hit latency (Section 2.2, MXS, Ear)",
            {
                latency: {**row, "single-die": _bench("ear", "mxs")}
                for latency, row in _sweep(
                    _bench("ear", "mxs"), "shared_l1_latency", (3, 5, 7),
                    archs=(_SL1,),
                ).items()
            },
            tables=[Table([
                Column("L1 latency", 11),
                Column("cycles", 10, cycles(_SL1)),
                Column("IPC", 8, ipc(_SL1), ".3f"),
                Column("vs 3-cycle", 12,
                       cycles(_SL1) / cycles("single-die"), ".3f"),
            ])],
            # crossing chip boundaries hurts, monotonically, and by
            # several percent at 5 cycles ("a significant impact")
            checks=[
                holds(cycles(_SL1).at(5), ">", cycles(_SL1).at(3),
                      quantitative=False),
                holds(cycles(_SL1).at(7), ">", cycles(_SL1).at(5),
                      quantitative=False),
                holds(cycles(_SL1).at(5), ">", 1.03 * cycles(_SL1).at(3)),
            ],
            # MXS timing, as in Figure 11
            replayable=False,
        ),
        Study(
            "ablation_update_coherence",
            "Ablation - shared-L2 L1 coherence policy (Section 2.3)",
            {
                # every workload at the plain 1/8-scale caches, ocean
                # included (Figure 6 runs it at 1/4 scale)
                workload: {
                    policy: row[_SL2]
                    for policy, row in _sweep(
                        _bench(workload, overrides={}), "l1_coherence",
                        ("invalidate", "update"), archs=(_SL2,),
                    ).items()
                }
                for workload in ("ear", "eqntott", "ocean")
            },
            tables=[Table([
                Column("workload", 10, left=True),
                Column("invalidate", 12, cycles("invalidate")),
                Column("update", 10, cycles("update")),
                Column("speedup", 9,
                       cycles("invalidate") / cycles("update"), ".2f"),
                _percent("L1I% inv", 10,
                         cache("invalidate", "L1I rate")),
                Column("updates", 9,
                       cache("update", "L1 updates")),
            ])],
            checks=[
                # fine-grained sharing: update removes the
                # invalidation misses and wins outright
                *(
                    check
                    for workload in ("ear", "eqntott")
                    for check in (
                        holds(cache("update", "L1I misses")
                              .at(workload), "==", 0, quantitative=False),
                        holds(cycles("update").at(workload), "<",
                              cycles("invalidate").at(workload)),
                    )
                ),
                # mostly-private data: small either way
                within((cycles("invalidate") / cycles("update")).at("ocean"),
                       0.8, 1.3),
            ],
        ),
        Study(
            "ablation_writebuffer",
            "Ablation - write-buffer depth (multiprogramming workload)",
            _sweep(_bench("multiprog"), "write_buffer_depth", (1, 4, 8, 16)),
            tables=[Table([
                Column("depth", 6), *_time_columns((_SL1, 11), (_SL2, 11)),
                _percent("stbuf share", 13, time_share(_SL2, "storebuf"), 1),
            ])],
            checks=[
                # depth 1 stalls the shared-L2 CPU behind its own store
                # drains; beyond 8, drain bandwidth is the limit
                holds(rel_time(_SL2).at(1), ">", rel_time(_SL2).at(8)),
                holds(abs(rel_time(_SL2).at(16) - rel_time(_SL2).at(8)),
                      "<", 0.15),
            ],
        ),
        Study(
            "ablation_scalability",
            "Ablation - parallel speedup (1 -> 4 CPUs, Mipsy)",
            {
                (workload, arch): dict(zip(
                    (1, 2, 4), job_grid(_bench(workload), (arch,), (1, 2, 4))
                ))
                for workload, arch in _SCALING
            },
            tables=[
                Table(
                    [
                        Column("arch", 12, left=True),
                        Column("1 CPU", 8, _speedup(1), ".2f", "x"),
                        Column("2 CPUs", 8, _speedup(2), ".2f", "x"),
                        Column("4 CPUs", 8, _speedup(4), ".2f", "x"),
                    ],
                    rows=[row for row in _SCALING if row[0] == workload],
                    caption=f"{workload}:",
                )
                for workload in ("fft", "ear")
            ],
            checks=[
                # the coarse-grained kernel scales usefully everywhere
                *(
                    holds(_speedup(4).at(("fft", arch)), ">", 1.5)
                    for arch in ARCHITECTURES
                ),
                # the fine-grained one best where sharing is cheapest
                holds(_speedup(4).at(("ear", _SL1)), ">",
                      _speedup(4).at(("ear", _SM))),
            ],
        ),
        Study(
            "crossover_sharing",
            "Crossover study - sharing fraction vs architecture",
            {
                sharing: _compare(_bench("synthetic", workload_args={
                    "sharing": sharing, "grain": 384, "store_ratio": 0.35,
                    "private_bytes": 1536,
                }))
                for sharing in _SHARING
            },
            tables=[Table([
                Column("sharing", 8, fmt=".2f"),
                *_time_columns((_SL1, 11), (_SL2, 11), (_SM, 12)),
            ])],
            checks=[
                # the shared-L1 advantage grows with the sharing
                # fraction, and at zero sharing the designs are closest
                holds(rel_time(_SL1).at(0.0) - rel_time(_SL1).at(0.85),
                      ">", 0.05),
                holds(SPREAD.at(0.0), "<", SPREAD.at(0.85)),
            ],
        ),
    )
}
