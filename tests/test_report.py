"""Tests for the report formatters and resource accounting."""

import pytest

from conftest import LoopWorkload, build_system

from repro.core.experiment import ExperimentResult
from repro.core.report import (
    format_bar_chart,
    format_resource_table,
)
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison
from repro.errors import ReproError
from repro.sim.stats import SystemStats


def _loop_factory(n_cpus, functional, scale):
    return LoopWorkload(n_cpus, functional, iterations=4)


def _fake_result(arch, cycles, resources=None):
    stats = SystemStats.for_cpus(4)
    stats.cycles = cycles
    return ExperimentResult(
        arch=arch, workload="w", cpu_model="mipsy", scale="test",
        stats=stats, extras={"resources": resources or {}},
    )


# ----------------------------------------------------------------------
# bar chart


def test_bar_chart_scales_to_peak():
    chart = format_bar_chart({"a": 1.0, "b": 0.5}, width=40)
    lines = chart.splitlines()
    assert lines[0].count("#") == 40
    assert lines[1].count("#") == 20


def test_bar_chart_minimum_one_char():
    chart = format_bar_chart({"a": 1.0, "tiny": 0.001})
    assert "tiny" in chart
    for line in chart.splitlines():
        assert "#" in line


def test_bar_chart_title():
    chart = format_bar_chart({"a": 1.0}, title="hello")
    assert chart.splitlines()[0] == "hello"


def test_bar_chart_rejects_empty_and_nonpositive():
    with pytest.raises(ReproError):
        format_bar_chart({})
    with pytest.raises(ReproError):
        format_bar_chart({"a": 0.0})


# ----------------------------------------------------------------------
# resource table


def test_resource_table_shows_busy_resources():
    results = {
        "shared-mem": _fake_result("shared-mem", 100, {"bus": 0.42}),
    }
    table = format_resource_table(results)
    assert "bus=42%" in table


def test_resource_table_elides_idle_resources():
    results = {
        "shared-l1": _fake_result(
            "shared-l1", 100, {"l2.port": 0.001, "memory": 0.5}
        ),
    }
    table = format_resource_table(results, threshold=0.05)
    assert "l2.port" not in table
    assert "memory=50%" in table


def test_resource_table_handles_missing_data():
    results = {"shared-l1": _fake_result("shared-l1", 100, {})}
    table = format_resource_table(results)
    assert "shared-l1" in table


# ----------------------------------------------------------------------
# resource_report plumbing end-to-end


def test_experiment_results_carry_resource_reports():
    results = run_architecture_comparison(
        Job("shared-mem", _loop_factory, scale="test")
    )
    for arch, result in results.items():
        report = result.extras["resources"]
        assert isinstance(report, dict)
        assert report, arch
        for name, value in report.items():
            assert 0.0 <= value <= 1.5, (arch, name, value)
        assert result.extras["truncated"] is False


def test_shared_mem_reports_bus_utilization():
    system = build_system("shared-mem", LoopWorkload, iterations=5)
    stats = system.run()
    report = system.memory.resource_report(stats.cycles)
    assert "bus" in report
    assert report["bus"] > 0


def test_shared_l2_reports_ports_and_banks():
    system = build_system("shared-l2", LoopWorkload, iterations=5)
    stats = system.run()
    report = system.memory.resource_report(stats.cycles)
    assert any(name.startswith("l2.port") for name in report)
    assert any(name.startswith("l2.bank") for name in report)


def test_shared_l1_reports_banks_and_l2_port():
    system = build_system("shared-l1", LoopWorkload, iterations=5)
    stats = system.run()
    report = system.memory.resource_report(stats.cycles)
    assert "l2.port" in report
    assert any(name.startswith("l1.bank") for name in report)
