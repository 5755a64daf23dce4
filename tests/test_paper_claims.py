"""Tests for the paper-claims module (and the claims themselves, at
test scale where the structural ones are expected to hold)."""

import pytest

from repro.core.paper import (
    PAPER_EXPECTATIONS,
    check_figure,
    format_check_report,
)
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison
from repro.errors import ReproError
from repro.workloads import WORKLOADS


@pytest.fixture(scope="module")
def results_cache():
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = run_architecture_comparison(Job(
                "shared-mem", WORKLOADS[workload], cpu_model="mipsy",
                scale="test", max_cycles=3_000_000,
            ))
        return cache[workload]

    return get


def test_every_figure_has_expectations():
    assert set(PAPER_EXPECTATIONS) == {
        "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"
    }
    for expectation in PAPER_EXPECTATIONS.values():
        assert expectation.checks
        assert expectation.workload in WORKLOADS


def test_unknown_figure_rejected(results_cache):
    with pytest.raises(ReproError):
        check_figure(results_cache("ear"), "fig99")


def test_check_report_format(results_cache):
    report = check_figure(results_cache("ear"), "fig8")
    text = format_check_report(report)
    assert "shared-l1" in text
    assert "[ OK]" in text or "[DEV]" in text


@pytest.mark.parametrize("figure", ["fig4", "fig8"])
def test_structural_claims_hold_at_test_scale(figure, results_cache):
    workload = PAPER_EXPECTATIONS[figure].workload
    report = check_figure(
        results_cache(workload), figure, structural_only=True
    )
    failures = [row for row in report if not row[1]]
    assert not failures, format_check_report(report)


def test_all_structural_claims_hold_at_test_scale(results_cache):
    """Structural claims (orderings, invariant shapes) are
    scale-independent and must hold everywhere; quantitative bounds
    are bench-scale claims ``repro reproduce`` checks."""
    for figure, expectation in PAPER_EXPECTATIONS.items():
        report = check_figure(
            results_cache(expectation.workload), figure,
            structural_only=True,
        )
        failures = [row for row in report if not row[1]]
        assert not failures, (figure, format_check_report(report))


def test_quantitative_flag_present_on_every_check():
    for expectation in PAPER_EXPECTATIONS.values():
        for check in expectation.checks:
            assert hasattr(check, "quantitative")
            assert hasattr(check, "label")


#: Each figure claim's (verdict, quantitative) at test scale, in
#: order: a rewording of a claim must not move any of them. The eight
#: that do not hold are all quantitative (tuned for bench scale).
CLAIM_VERDICTS_AT_TEST_SCALE = {
    "fig4": [(True, False), (True, False), (True, True), (True, True),
             (True, False), (True, False)],
    "fig5": [(True, True), (True, False), (True, False), (False, True)],
    "fig6": [(True, True), (True, True), (True, False), (False, True),
             (False, True)],
    "fig7": [(True, True), (True, True), (True, True)],
    "fig8": [(True, False), (True, False), (False, True), (True, False)],
    "fig9": [(False, True), (False, True)],
    "fig10": [(False, True), (False, True), (True, True), (True, True)],
}


@pytest.mark.parametrize("figure", sorted(CLAIM_VERDICTS_AT_TEST_SCALE))
def test_each_figure_claim_keeps_its_verdict_at_test_scale(
    figure, results_cache
):
    expectation = PAPER_EXPECTATIONS[figure]
    report = check_figure(results_cache(expectation.workload), figure)
    assert [
        (ok, check.quantitative)
        for (_label, ok, _detail), check in zip(report, expectation.checks)
    ] == CLAIM_VERDICTS_AT_TEST_SCALE[figure], format_check_report(report)
