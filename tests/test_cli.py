"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "eqntott" in out
    assert "shared-l1" in out
    assert "mipsy" in out


def test_run_command(capsys):
    code = main([
        "run", "-w", "ear", "-a", "shared-l2", "-s", "test",
        "--max-cycles", "3000000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "L1 data" in out
    assert "machine IPC" in out


def test_run_with_override(capsys):
    code = main([
        "run", "-w", "ear", "-a", "shared-l1", "-s", "test",
        "--set", "l2_assoc=4", "--max-cycles", "3000000",
    ])
    assert code == 0


def test_run_with_bad_override_field(capsys):
    code = main([
        "run", "-w", "ear", "-a", "shared-l1", "-s", "test",
        "--set", "bogus=4",
    ])
    assert code == 2
    assert "unknown MemConfig field" in capsys.readouterr().err


def test_run_with_malformed_override():
    with pytest.raises(SystemExit):
        main(["run", "-w", "ear", "-a", "shared-l1", "--set", "nonsense"])


def test_compare_command(capsys):
    code = main([
        "compare", "-w", "ear", "-s", "test", "--max-cycles", "3000000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "normalized execution time" in out
    assert "L1R%" in out
    assert out.count("#") > 10  # bars rendered


def test_compare_mxs_prints_ipc(capsys):
    code = main([
        "compare", "-w", "ear", "-s", "test", "-c", "mxs",
        "--max-cycles", "3000000",
    ])
    assert code == 0
    assert "IPC" in capsys.readouterr().out


def test_sweep_command(capsys):
    code = main([
        "sweep", "-w", "ear", "-s", "test", "--field", "l2_assoc",
        "--max-cycles", "3000000", "1", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "l2_assoc" in out
    assert "shared-mem" in out


def test_sweep_bad_field_reports_error(capsys):
    code = main([
        "sweep", "-w", "ear", "-s", "test", "--field", "nope",
        "--max-cycles", "3000000", "1",
    ])
    assert code == 2  # the one error contract: stderr, exit status 2
    assert "error: unknown MemConfig field" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_validates_choices():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "-w", "quake", "-a", "shared-l1"])


def test_selfcheck_command(monkeypatch, capsys):
    """The verb's wiring and exit status, over stub checks (the full
    battery runs once, in ``test_misc_paths.test_selfcheck_passes``)."""
    import repro.core.selfcheck as sc

    def passing():
        return "stub holds"

    def failing():
        raise sc.SelfCheckFailure("stub broke")

    monkeypatch.setattr(sc, "CHECKS", (("stub-ok", passing),))
    assert main(["selfcheck"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("[  ok] stub-ok") and "stub holds" in line

    monkeypatch.setattr(
        sc, "CHECKS", (("stub-ok", passing), ("stub-bad", failing))
    )
    assert main(["selfcheck"]) == 1
    ok, bad = capsys.readouterr().out.splitlines()
    assert ok.startswith("[  ok] stub-ok") and "stub holds" in ok
    assert bad.startswith("[FAIL] stub-bad") and "stub broke" in bad


def test_trace_command(capsys):
    assert main(["trace", "-w", "eqntott", "--limit", "20"]) == 0
    out = capsys.readouterr().out
    assert "IALU" in out or "LOAD" in out
    assert "0x40" in out


def test_trace_command_honours_cpu(capsys):
    assert main(["trace", "-w", "eqntott", "--cpu", "2", "--limit", "10"]) == 0
    assert "cpu 2" in capsys.readouterr().out


def test_compare_claims_flag(capsys):
    code = main([
        "compare", "-w", "ear", "-s", "test", "--claims",
        "--max-cycles", "3000000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "paper claims" in out


def test_compare_claims_flag_without_encoded_figure(capsys):
    code = main([
        "compare", "-w", "synthetic", "-s", "test", "--claims",
        "--max-cycles", "3000000",
    ])
    assert code == 0
    assert "no encoded paper claims" in capsys.readouterr().out


def test_list_shows_topology_presets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "topologies:" in out
    assert "cluster-l1" in out and "shared-l3" in out
    assert "16 cpus" in out  # the cluster's natural core count


def test_run_accepts_topology_alias(capsys):
    code = main([
        "run", "-w", "fft", "--topology", "shared-l3", "-s", "test",
        "--no-cache", "--max-cycles", "3000000",
    ])
    assert code == 0
    assert "fft on shared-l3" in capsys.readouterr().out


def test_run_defaults_cpus_to_preset(capsys):
    code = main([
        "run", "-w", "fft", "-a", "cluster-l1", "-s", "test",
        "--no-cache", "--max-cycles", "3000000",
    ])
    assert code == 0
    assert "cluster-l1" in capsys.readouterr().out


def test_run_rejects_unknown_topology():
    with pytest.raises(SystemExit):
        main(["run", "-w", "fft", "-a", "shared-l9"])


def test_compare_accepts_topology_selection(capsys):
    code = main([
        "compare", "-w", "fft", "-s", "test", "--no-cache",
        "--archs", "cluster-l1", "shared-l3",
        "--max-cycles", "3000000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cluster-l1" in out and "shared-l3" in out
    assert "shared-mem" not in out  # only the requested topologies ran


def test_scaling_command(capsys, tmp_path):
    svg = tmp_path / "scaling.svg"
    code = main([
        "scaling", "-w", "fft", "-s", "test", "--no-cache",
        "--archs", "cluster-l1", "--counts", "2", "4",
        "--svg", str(svg), "--max-cycles", "3000000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cores" in out and "speedup" in out
    assert svg.exists() and "polyline" in svg.read_text()


def test_trace_command_honours_cpu_count(capsys):
    assert main([
        "trace", "-w", "ocean", "-n", "8", "--cpu", "5", "--limit", "5",
    ]) == 0
    assert "cpu 5 of 8" in capsys.readouterr().out


def test_trace_rejects_cpu_out_of_range(capsys):
    assert main(["trace", "-w", "ocean", "-n", "4", "--cpu", "7"]) == 2
    assert "out of range" in capsys.readouterr().err
