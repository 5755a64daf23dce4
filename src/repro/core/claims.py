"""The vocabulary the evaluation's claims are written in.

A claim (:data:`Check`) is a labelled question put to measurements —
one row of results (what ran -> its result) or a whole study's (row
label -> row) — answered with whether it holds and the numbers that
say so. The figure claims of :mod:`repro.core.paper` are built from
the named builders below (:func:`faster_than`,
:func:`normalized_within`, ...); the studies' further claims relate
named :class:`Quantity` values (:func:`holds`, :func:`within`), which
also fill the columns of their tables.
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
#: A claim: evaluated over a row (the figure claims below) or over a
#: study's results, it answers whether it holds and with what numbers.
Check = Callable[[Mapping], tuple[bool, str]]


def _times(results):
    return normalized_times(results)


def tagged(check: Check, label: str, quantitative: bool) -> Check:
    """``check`` carrying its ``label`` and its kind."""
    check.label = label
    #: quantitative claims hold at bench scale (the studies' tuned
    #: operating point); structural claims hold at any scale.
    check.quantitative = quantitative
    return check


def faster_than(arch: str, other: str) -> Check:
    """Claim: ``arch`` finishes in less time than ``other``."""

    def check(results):
        times = _times(results)
        ok = times[arch] < times[other]
        return ok, f"{arch}={times[arch]:.3f} vs {other}={times[other]:.3f}"

    return tagged(check, f"{arch} faster than {other}", quantitative=False)


def normalized_within(arch: str, low: float, high: float) -> Check:
    """Claim: ``arch``'s normalized time falls inside ``[low, high]``."""

    def check(results):
        value = _times(results)[arch]
        return low <= value <= high, f"{arch}={value:.3f} in [{low},{high}]"

    return tagged(
        check,
        f"{arch} normalized time within [{low}, {high}]",
        quantitative=True,
    )


def no_invalidation_misses(arch: str) -> Check:
    """Claim: ``arch`` takes no invalidation misses at all."""

    def check(results):
        l1 = results[arch].stats.aggregate_caches(".l1d")
        l2 = results[arch].stats.aggregate_caches(".l2")
        total = l1.misses_inval + l2.misses_inval
        return total == 0, f"{arch} invalidation misses = {total}"

    return tagged(
        check, f"{arch} has no invalidation misses", quantitative=False
    )


def l2_invalidation_dominated(arch: str) -> Check:
    """Claim: invalidations outnumber replacements in ``arch``'s L2."""

    def check(results):
        l2 = results[arch].stats.aggregate_caches(".l2")
        ok = l2.misses_inval > l2.misses_repl
        return ok, (
            f"{arch} L2I={l2.misses_inval} vs L2R={l2.misses_repl}"
        )

    return tagged(
        check,
        f"{arch} L2 misses dominated by invalidations",
        quantitative=True,
    )


def l2_invalidation_share_at_least(arch: str, floor: float) -> Check:
    """Claim: at least ``floor`` of ``arch``'s L2 misses are invalidations."""

    def check(results):
        l2 = results[arch].stats.aggregate_caches(".l2")
        misses = max(l2.misses, 1)
        share = l2.misses_inval / misses
        return share >= floor, (
            f"{arch} L2I share {share:.2f} >= {floor}"
        )

    return tagged(
        check,
        f"{arch} L2 invalidation share at least {100 * floor:.0f}%",
        quantitative=True,
    )


def l1_replacement_dominated(arch: str) -> Check:
    """Claim: replacements outnumber invalidations in ``arch``'s L1."""

    def check(results):
        l1 = results[arch].stats.aggregate_caches(".l1d")
        ok = l1.misses_repl > l1.misses_inval
        return ok, f"{arch} L1R={l1.misses_repl} vs L1I={l1.misses_inval}"

    return tagged(
        check,
        f"{arch} L1 misses dominated by replacements",
        quantitative=False,
    )


def l1_replacement_rate_at_most(arch: str, limit: float) -> Check:
    """Claim: ``arch``'s L1 replacement miss rate is at most ``limit``."""

    def check(results):
        rate = results[arch].stats.aggregate_caches(".l1d").miss_rate_repl
        return rate <= limit, f"{arch} L1R={100 * rate:.2f}% <= {100 * limit}%"

    return tagged(
        check, f"{arch} L1R at most {100 * limit:.0f}%", quantitative=True
    )


def l1_replacement_rate_at_least(arch: str, floor: float) -> Check:
    """Claim: ``arch``'s L1 replacement miss rate is at least ``floor``."""

    def check(results):
        rate = results[arch].stats.aggregate_caches(".l1d").miss_rate_repl
        return rate >= floor, f"{arch} L1R={100 * rate:.2f}% >= {100 * floor}%"

    return tagged(
        check, f"{arch} L1R at least {100 * floor:.0f}%", quantitative=True
    )


def memory_stall_share_below(arch: str, limit: float) -> Check:
    """Claim: ``arch`` spends under ``limit`` of its time in memory stalls."""

    def check(results):
        breakdown = results[arch].stats.aggregate_breakdown()
        share = breakdown.memory_stall / max(breakdown.total, 1)
        return share <= limit, f"{arch} stall share {share:.2f} <= {limit}"

    return tagged(
        check,
        f"{arch} memory stalls below {100 * limit:.0f}% of time",
        quantitative=True,
    )


def uses_cache_to_cache(arch: str) -> Check:
    """Claim: ``arch`` performed cache-to-cache transfers (bus sharing)."""

    def check(results):
        transfers = results[arch].stats.c2c_transfers
        return transfers > 0, f"{arch} c2c transfers = {transfers}"

    return tagged(
        check, f"{arch} communicates cache-to-cache", quantitative=False
    )


def istall_share_at_least(arch: str, floor: float) -> Check:
    """Claim: instruction stalls take at least ``floor`` of ``arch``'s time."""

    def check(results):
        breakdown = results[arch].stats.aggregate_breakdown()
        share = breakdown.istall / max(breakdown.total, 1)
        return share >= floor, f"{arch} istall share {share:.2f} >= {floor}"

    return tagged(
        check,
        f"{arch} instruction stalls at least {100 * floor:.0f}%",
        quantitative=True,
    )


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
    return Quantity(f"{arch} time", cycles(arch) / cycles("shared-mem"))


def ipc(arch: str) -> Quantity:
    """Mean per-CPU IPC of ``arch`` (Figure 11's axis)."""
    return Quantity(f"{arch} IPC", lambda row: row[arch].per_cpu_ipc)


#: What :func:`cache` reads, in the paper's notation (L1R/L1I/L2R/L2I:
#: replacement and invalidation misses): name -> (caches, counter).
_CACHE_COUNTERS = {
    "L1R rate": ("l1d", "miss_rate_repl"),
    "L1I rate": ("l1d", "miss_rate_inval"),
    "L1R misses": ("l1d", "misses_repl"),
    "L1I misses": ("l1d", "misses_inval"),
    "L1 updates": ("l1d", "updates_received"),
    "L2R rate": ("l2", "miss_rate_repl"),
    "L2I rate": ("l2", "miss_rate_inval"),
    "L2I misses": ("l2", "misses_inval"),
    "L2 miss rate": ("l2", "miss_rate"),
}


def cache(point: Hashable, what: str) -> Quantity:
    """A miss counter or rate of the run at ``point``, pooled over its
    data L1s or its L2s (``what`` is a :data:`_CACHE_COUNTERS` name)."""
    level, counter = _CACHE_COUNTERS[what]
    return Quantity(
        f"{point} {what}",
        lambda row: getattr(
            row[point].stats.aggregate_caches("." + level), counter
        ),
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
