"""The vocabulary the evaluation's claims are written in.

A claim (:data:`Check`) is a labelled question put to measurements —
one row of results (what ran -> its result) or a whole study's (row
label -> row) — answered with whether it holds and the numbers that
say so. Every claim — the paper's figure claims of
:mod:`repro.core.paper` and the studies' further ones alike — relates
named :class:`Quantity` values (:func:`holds`, :func:`within`): a
relative time, a miss counter, a share of time. The same quantities
fill the columns of the studies' tables.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from repro.core.report import normalized_times

#: One comparison: what ran (an architecture, a policy, a CPU count)
#: -> its result; a table study's row: cell name -> value.
Row = Mapping[Hashable, object]
#: A study's measurements: row label -> row.
Results = Mapping[Hashable, Row]
#: A claim: evaluated over a row (a figure's claims) or over a
#: study's results, it answers whether it holds and with what numbers.
Check = Callable[[Mapping], tuple[bool, str]]


def tagged(check: Check, label: str, quantitative: bool) -> Check:
    """``check`` carrying its ``label`` and its kind."""
    check.label = label
    #: quantitative claims hold at bench scale (the studies' tuned
    #: operating point); structural claims hold at any scale.
    check.quantitative = quantitative
    return check


def evaluate(
    checks: Iterable[Check], results: Mapping, structural_only: bool
) -> list[tuple[str, bool, str]]:
    """``checks`` put to ``results``: (label, ok, detail) rows.
    ``structural_only`` skips the quantitative claims, which are tuned
    for bench scale and not expected to hold at other scales."""
    return [
        (check.label, *check(results))
        for check in checks
        if not (structural_only and check.quantitative)
    ]


def format_check_report(report: list[tuple[str, bool, str]]) -> str:
    """Human-readable claim report (OK / DEV per claim)."""
    lines = []
    for label, ok, detail in report:
        status = " OK" if ok else "DEV"
        lines.append(f"[{status}] {label} ({detail})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Named quantities and the relations between them


@dataclass(frozen=True)
class Quantity:
    """A named number read off a row of results — or, once :meth:`at`
    names the row, off a study's results. Differences, ratios,
    multiples and magnitudes of quantities are quantities."""

    name: str
    read: Callable[[Mapping], float]

    def __call__(self, results: Mapping) -> float:
        return self.read(results)

    def at(self, label: Hashable) -> "Quantity":
        """This quantity of the row ``label`` names."""
        return Quantity(
            f"{self.name} at {_spell(label)}",
            lambda results: self(results[label]),
        )

    def _with(self, symbol: str, combine, other) -> "Quantity":
        other = _quantity(other)
        return Quantity(
            f"{self.name} {symbol} {other.name}",
            lambda results: combine(self(results), other(results)),
        )

    def __add__(self, other) -> "Quantity":
        return self._with("+", operator.add, other)

    def __sub__(self, other) -> "Quantity":
        return self._with("-", operator.sub, other)

    def __truediv__(self, other) -> "Quantity":
        return self._with("/", operator.truediv, other)

    def __rmul__(self, factor: float) -> "Quantity":
        return Quantity(
            f"{factor:g} x {self.name}", lambda results: factor * self(results)
        )

    def __abs__(self) -> "Quantity":
        return Quantity(f"|{self.name}|", lambda results: abs(self(results)))


def _quantity(value) -> Quantity:
    if isinstance(value, Quantity):
        return value
    return Quantity(f"{value:g}", lambda _results: value)


def _spell(value) -> str:
    """A row label or a measured number, as a claim prints it."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def cycles(point: Hashable) -> Quantity:
    """Execution time of the run at ``point`` of a row."""
    return Quantity(f"{point} cycles", lambda row: row[point].cycles)


def rel_time(arch: str) -> Quantity:
    """``arch``'s time relative to the row's shared-memory machine."""
    return Quantity(f"{arch} time", lambda row: normalized_times(row)[arch])


def ipc(arch: str) -> Quantity:
    """Mean per-CPU IPC of ``arch`` (Figure 11's axis)."""
    return Quantity(f"{arch} IPC", lambda row: row[arch].per_cpu_ipc)


#: What :func:`cache` reads, in the paper's notation (L1R/L1I/L2R/L2I:
#: replacement and invalidation misses): name -> (caches, reader).
_CACHE_COUNTERS = {
    "L1R rate": ("l1d", operator.attrgetter("miss_rate_repl")),
    "L1I rate": ("l1d", operator.attrgetter("miss_rate_inval")),
    "L1R misses": ("l1d", operator.attrgetter("misses_repl")),
    "L1I misses": ("l1d", operator.attrgetter("misses_inval")),
    "L1 updates": ("l1d", operator.attrgetter("updates_received")),
    "L2R rate": ("l2", operator.attrgetter("miss_rate_repl")),
    "L2I rate": ("l2", operator.attrgetter("miss_rate_inval")),
    "L2R misses": ("l2", operator.attrgetter("misses_repl")),
    "L2I misses": ("l2", operator.attrgetter("misses_inval")),
    "L2I share": ("l2", lambda l2: l2.misses_inval / max(l2.misses, 1)),
    "L2 miss rate": ("l2", operator.attrgetter("miss_rate")),
}


def cache(point: Hashable, what: str) -> Quantity:
    """A miss counter or rate of the run at ``point``, pooled over its
    data L1s or its L2s (``what`` is a :data:`_CACHE_COUNTERS` name)."""
    level, read = _CACHE_COUNTERS[what]
    return Quantity(
        f"{point} {what}",
        lambda row: read(row[point].stats.aggregate_caches("." + level)),
    )


def c2c_transfers(arch: str) -> Quantity:
    """How many cache-to-cache transfers ``arch``'s run made."""
    return Quantity(
        f"{arch} c2c transfers", lambda row: row[arch].stats.c2c_transfers
    )


def time_share(arch: str, bucket: str) -> Quantity:
    """The share of ``arch``'s time in one execution-time bucket."""

    def read(row):
        breakdown = row[arch].stats.aggregate_breakdown()
        return getattr(breakdown, bucket) / max(breakdown.total, 1)

    return Quantity(f"{arch} {bucket} share", read)


def cell(label: Hashable, key: str, name: str) -> Quantity:
    """One measured cell of a table study, under a readable name."""
    return Quantity(name, lambda results: results[label][key])


def _spread(row: Mapping) -> float:
    times = normalized_times(row).values()
    return max(times) - min(times)


#: A row's spread: slowest minus fastest relative time.
SPREAD = Quantity("spread of times", _spread)

_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


def holds(
    left: Quantity, relation: str, right, quantitative: bool = True
) -> Check:
    """Claim: ``left`` stands in ``relation`` to ``right`` (a quantity
    or a number)."""
    right = _quantity(right)
    related = _RELATIONS[relation]

    def check(results):
        a, b = left(results), right(results)
        return related(a, b), f"{_spell(a)} {relation} {_spell(b)}"

    return tagged(check, f"{left.name} {relation} {right.name}", quantitative)


def within(
    quantity: Quantity, low: float, high: float, quantitative: bool = True
) -> Check:
    """Claim: ``quantity`` falls inside ``[low, high]``."""

    def check(results):
        value = quantity(results)
        return low <= value <= high, f"{_spell(value)} in [{low}, {high}]"

    return tagged(
        check, f"{quantity.name} within [{low}, {high}]", quantitative
    )


def at(label: Hashable, check: Check, named: str | None = None) -> Check:
    """``check`` — a claim about one row — as a claim about the row
    ``label`` of a study's results."""
    return tagged(
        lambda results: check(results[label]),
        named or f"{check.label} at {_spell(label)}",
        check.quantitative,
    )
