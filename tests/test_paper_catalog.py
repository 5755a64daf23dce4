"""The study catalog behind ``repro reproduce``: every table, figure
and ablation as by-value jobs, declared columns and claims."""

import dataclasses
import pathlib
import pickle

import pytest

from repro.command import main, reproduce
from repro.core.claims import Quantity, holds
from repro.core.paper import CLAIMS_ARTEFACT, STUDIES, batch_of
from repro.core.runner import Job, Runner
from repro.mem.functional import FunctionalMemory
from repro.serve.wire import job_from_payload, job_to_payload
from repro.workloads.eqntott import EqntottWorkload

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def test_every_job_is_plain_data_at_every_door():
    for job in batch_of(STUDIES.values()).values():
        assert job.cacheable
        assert pickle.loads(pickle.dumps(job)) == job
        assert job_from_payload(job_to_payload(job)) == job


def test_distinct_parameterisations_have_distinct_addresses():
    slots = [job for study in STUDIES.values() for job in study.jobs]
    batch = batch_of(STUDIES.values())
    # 141 simulations in the per-figure harnesses this catalog replaced
    assert (len(slots), len(batch)) == (123, 90)
    assert len({job.key() for job in batch.values()}) == 90
    crossover = STUDIES["crossover_sharing"].rows
    assert len({row["shared-l1"].key() for row in crossover.values()}) == 5
    private, shared = (
        Job("shared-l1", "synthetic", workload_args={"sharing": sharing})
        for sharing in (0.0, 0.85)
    )
    assert private.key() != shared.key()
    assert private.key() != Job("shared-l1", "synthetic").key()
    assert "sharing=0.85" in shared.label()


def test_a_sweep_row_at_the_bench_default_is_the_figures_own_jobs():
    figure4 = STUDIES["fig04_eqntott"].rows["mipsy"]
    assert STUDIES["ablation_linesize"].rows[32] == figure4
    assert STUDIES["ablation_eqntott_scaling"].rows[192] == figure4
    # ... which is what the swept workload builds at that length
    bench, swept = (
        EqntottWorkload(4, FunctionalMemory(), "bench", vec_words=words)
        for words in (None, 192)
    )
    assert (bench.vec_words, bench.comparisons) == (192, 60)
    assert swept.schedule == bench.schedule
    long = EqntottWorkload(4, FunctionalMemory(), "bench", vec_words=768)
    assert (long.vec_words, long.comparisons) == (768, 15)
    figure10 = STUDIES["fig10_multiprog"].rows["mipsy"]
    assert STUDIES["ablation_writebuffer"].rows[8] == figure10
    ear_mxs = STUDIES["fig11_ear_mxs"].rows["mxs"]["shared-l1"]
    assert STUDIES["ablation_multichip_l1"].rows[3]["shared-l1"] == ear_mxs
    # the update-coherence study runs ocean at the plain 1/8-scale
    # caches, Figure 6 at 1/4 scale: two different machines
    ocean = STUDIES["ablation_update_coherence"].rows["ocean"]["invalidate"]
    assert ocean.overrides == {}
    assert ocean != STUDIES["fig06_ocean"].rows["mipsy"]["shared-l2"]


@pytest.fixture(scope="module")
def catalog_at_test_scale(tmp_path_factory):
    """The whole catalog, rescaled, as the one batch it is."""
    studies = [study.stamped(scale="test") for study in STUDIES.values()]
    batch = batch_of(studies)
    report = Runner(jobs=2).run(list(batch.values()))
    assert not report.failures
    landed = dict(zip(batch, report.outcomes))
    out = tmp_path_factory.mktemp("catalog")
    results = {}
    for study in studies:
        results[study.name] = study.results(
            lambda job: landed[job.key()].result
        )
        study.write(results[study.name], out)
    return studies, report, results, out


def test_catalog_runs_through_two_workers_and_renders(catalog_at_test_scale):
    studies, report, results, out = catalog_at_test_scale
    assert (report.workers, len(report.outcomes)) == (2, 90)
    for study in studies:
        for artefact in study.artefacts:
            assert (out / artefact).stat().st_size, artefact
        text = (out / f"{study.name}.txt").read_text()
        assert text.startswith(f"{study.title}\n{'=' * len(study.title)}\n")
        if study.tables:
            # the committed artefact has the same shape: the same
            # lines at the same widths, whatever the scale did to the
            # digits
            committed = (RESULTS_DIR / f"{study.name}.txt").read_text()
            assert [len(line) for line in text.splitlines()] == [
                len(line) for line in committed.splitlines()
            ], study.name


def test_structural_claims_hold_at_test_scale(catalog_at_test_scale):
    studies, _report, results, _out = catalog_at_test_scale
    held = 0
    for study in studies:
        report = study.report(results[study.name], structural_only=True)
        assert all(ok for _label, ok, _detail in report), (study.name, report)
        held += len(report)
        everything = study.report(results[study.name])
        assert len(everything) >= len(report)
    assert held >= 30


def test_tables_measure_what_the_paper_tabulates(catalog_at_test_scale):
    _studies, _report, results, out = catalog_at_test_scale
    # scale-free studies: the committed bytes, at any scale
    for name in ("table1_fu_latencies", "table2_latencies"):
        assert (out / f"{name}.txt").read_bytes() == (
            RESULTS_DIR / f"{name}.txt"
        ).read_bytes()
    table2 = results["table2_latencies"]
    assert table2[("shared-l1", "l1")]["measured"] == 3
    assert ("shared-l2", "c2c") not in table2


def test_declared_artefacts_are_the_committed_listing():
    declared = {CLAIMS_ARTEFACT} | {
        artefact
        for study in STUDIES.values()
        for artefact in study.artefacts
    }
    committed = {path.name for path in RESULTS_DIR.iterdir()}
    assert declared == committed - {"index.html"}


def test_a_job_two_studies_share_is_simulated_once():
    studies = [
        STUDIES[name].stamped(scale="test")
        for name in ("fig04_eqntott", "ablation_linesize")
    ]
    batch = batch_of(studies)
    report = Runner(jobs=1).run(list(batch.values()))
    assert sum(len(study.jobs) for study in studies) == 12
    assert len(report.outcomes) == len(batch) == 9
    assert report.cache_hits == 0 and not report.failures


def test_a_claim_that_does_not_hold_fails_reproduce(
    tmp_path, monkeypatch, capsys
):
    table2 = STUDIES["table2_latencies"]
    argv = ["reproduce", str(tmp_path), "--no-cache", "--jobs", "1"]
    monkeypatch.setattr(reproduce, "STUDIES", {table2.name: table2})
    assert main(argv) == 0
    assert "[DEV]" not in capsys.readouterr().out

    never = holds(Quantity("one", lambda results: 1), "<", 0)
    monkeypatch.setattr(reproduce, "STUDIES", {
        table2.name: dataclasses.replace(
            table2, checks=[*table2.checks, never]
        ),
    })
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "[DEV] one < 0 (1 < 0)" in out
    assert "claim does not hold: table2_latencies: one < 0" in out
    # the artefacts are written all the same
    assert (tmp_path / "table2_latencies.txt").read_bytes() == (
        RESULTS_DIR / "table2_latencies.txt"
    ).read_bytes()


def test_what_a_trace_freezes_is_not_replayable():
    assert {
        name for name, study in STUDIES.items() if not study.replayable
    } == {
        "fig11_multiprog_mxs", "fig11_eqntott_mxs", "fig11_ear_mxs",
        "ablation_linesize", "ablation_multichip_l1",
    }
    stamped = STUDIES["ablation_linesize"].stamped(replay=True)
    assert stamped.jobs and not any(job.replay for job in stamped.jobs)
    assert all(job.replay for job in STUDIES["fig04_eqntott"].stamped(
        replay=True
    ).jobs)


def test_reproduce_replay_runs_a_study_that_is_not_replayable_generated(
    tmp_path, monkeypatch, capsys
):
    names = ("fig04_eqntott", "ablation_linesize")
    monkeypatch.setattr(reproduce, "STUDIES", {
        name: STUDIES[name].stamped(scale="test") for name in names
    })
    main([
        "reproduce", str(tmp_path / "out"), "--replay",
        "--trace-dir", str(tmp_path / "traces"), "--no-cache",
        "--jobs", "1",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Not replayable, run generated: ablation_linesize"
    jobs = [line for line in lines if "eqntott/" in line]
    assert sum("(replay)" in line for line in jobs) == 3
    assert [line for line in jobs if "line_size=" in line]
    assert not [
        line for line in jobs if "line_size=" in line and "(replay)" in line
    ]
