"""Tests for the SVG figure renderers."""

import xml.etree.ElementTree as ET

import pytest

from conftest import LoopWorkload

from repro.core.figures import (
    render_breakdown_svg,
    render_comparison_figure,
    render_ipc_svg,
)
from repro.core.runner import Job
from repro.core.sweeps import run_architecture_comparison
from repro.errors import ReproError

_SVG = "{http://www.w3.org/2000/svg}"


def _loop_factory(n_cpus, functional, scale):
    return LoopWorkload(n_cpus, functional, iterations=4)


@pytest.fixture(scope="module")
def mipsy_results():
    return run_architecture_comparison(
        Job("shared-mem", _loop_factory, scale="test")
    )


@pytest.fixture(scope="module")
def mxs_results():
    return run_architecture_comparison(
        Job("shared-mem", _loop_factory, cpu_model="mxs", scale="test")
    )


def test_breakdown_svg_is_valid_xml(mipsy_results):
    svg = render_breakdown_svg(mipsy_results, "Figure X")
    root = ET.fromstring(svg)
    assert root.tag == f"{_SVG}svg"


def test_breakdown_svg_has_bar_per_architecture(mipsy_results):
    svg = render_breakdown_svg(mipsy_results, "t")
    root = ET.fromstring(svg)
    labels = [el.text for el in root.iter(f"{_SVG}text")]
    for arch in ("shared-l1", "shared-l2", "shared-mem"):
        assert arch in labels


def test_breakdown_svg_segments_scale_with_time(mipsy_results):
    svg = render_breakdown_svg(mipsy_results, "t")
    root = ET.fromstring(svg)
    rects = [
        el for el in root.iter(f"{_SVG}rect")
        if el.get("height") == "26"
    ]
    assert len(rects) >= 6  # several segments across three bars
    widths = [float(r.get("width")) for r in rects]
    assert all(w > 0 for w in widths)


def test_breakdown_svg_writes_file(mipsy_results, tmp_path):
    path = tmp_path / "fig.svg"
    render_breakdown_svg(mipsy_results, "t", path=path)
    assert path.read_text().startswith("<svg")


def test_breakdown_svg_title_rendered(mipsy_results):
    svg = render_breakdown_svg(mipsy_results, "My Title")
    assert "My Title" in svg


def test_ipc_svg_renders_for_mxs(mxs_results):
    svg = render_ipc_svg(mxs_results, "Figure 11")
    root = ET.fromstring(svg)
    assert root.tag == f"{_SVG}svg"
    assert "Achieved IPC" in svg


def test_ipc_svg_rejects_mipsy_results(mipsy_results):
    with pytest.raises(ReproError):
        render_ipc_svg(mipsy_results, "t")


def test_comparison_figure_dispatches(mipsy_results, mxs_results):
    assert "CPU" in render_comparison_figure(mipsy_results, "t")
    assert "Achieved IPC" in render_comparison_figure(mxs_results, "t")


def test_empty_results_rejected():
    with pytest.raises(ReproError):
        render_breakdown_svg({}, "t")
