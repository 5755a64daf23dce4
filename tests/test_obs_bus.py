"""Batch telemetry: the event bus, span traces, rollups, live view.

The load-bearing contracts:

* **off means off** — without a bus, runs emit zero events and produce
  bit-identical ``SystemStats`` to bus-on runs;
* the JSONL event log is schema-valid (``validate_events``) with the
  collector's ``seq`` as a strict total order;
* the batch Perfetto trace has one span track per worker and passes
  ``validate_trace`` (which now accepts instant and counter phases);
* the stores (`ResultCache`, `CheckpointStore`, `TraceStore`) count
  their traffic with or without a bus, and emit onto one when current.

The killed-worker / pool-rebuild durability tests live with the other
fault-injection tests in ``test_runner_faults.py``.
"""

from __future__ import annotations

import io
import json
import tracemalloc

import pytest

from conftest import RecordingHandle

from repro.cli import main
from repro.core.runner import Job, ResultCache, Runner
from repro.core.sweeps import sweep_mem_field
from repro.obs import (
    EVENT_KINDS,
    BusEvent,
    EventBus,
    LiveView,
    build_batch_trace,
    prometheus_text,
    read_events,
    rollup_events,
    validate_events,
    validate_trace,
    write_batch_trace,
)
from repro.obs import bus as obs_bus
from repro.trace.store import TraceStore

CAP = 2_000_000


@pytest.fixture(autouse=True)
def _clean_current_handle():
    """Never leak a process-current bus handle between tests."""
    yield
    obs_bus.set_current(None)


def quick_job(arch: str = "shared-l1", workload: str = "fft") -> Job:
    return Job(
        arch=arch, workload=workload, scale="test", n_cpus=2,
        max_cycles=CAP,
    )


# ----------------------------------------------------------------------
# event schema


def test_bus_event_roundtrip():
    event = BusEvent(
        kind="job.start", ts=12.5, pid=42, seq=7,
        fields={"job": "fft/shared-l1/mipsy", "attempt": 2},
    )
    line = event.to_json_line()
    back = BusEvent.from_dict(json.loads(line))
    assert back.kind == "job.start"
    assert back.ts == 12.5
    assert back.pid == 42
    assert back.seq == 7
    assert back.fields == {"job": "fft/shared-l1/mipsy", "attempt": 2}


def test_validate_events_catches_schema_violations(tmp_path):
    log = tmp_path / "events.jsonl"
    lines = [
        json.dumps({"seq": 1, "ts": 1.0, "pid": 10, "kind": "batch.start"}),
        json.dumps({"seq": 2, "ts": 1.1, "pid": 10, "kind": "nonsense"}),
        json.dumps({"seq": 1, "ts": 1.2, "pid": 10, "kind": "batch.end"}),
        json.dumps({"seq": 4, "ts": 1.3, "pid": 10, "kind": "job.start"}),
        "{torn line",
    ]
    log.write_text("\n".join(lines) + "\n")
    errors = validate_events(log)
    assert any("unknown kind" in e for e in errors)
    assert any("seq ordering" in e for e in errors)
    assert any("missing its job" in e for e in errors)
    assert any("not valid JSON" in e for e in errors)


def test_validate_events_accepts_a_real_log(tmp_path):
    bus = EventBus(log_path=tmp_path / "events.jsonl").start()
    handle = bus.handle()
    handle.emit("batch.start", jobs=1)
    handle.emit("job.start", job="x/y/z", attempt=1)
    handle.emit("job.finish", job="x/y/z", attempt=1, wall_seconds=0.1)
    handle.emit("batch.end", jobs=1)
    bus.stop()
    assert validate_events(tmp_path / "events.jsonl") == []
    events = read_events(tmp_path / "events.jsonl")
    assert [e.kind for e in events] == [
        "batch.start", "job.start", "job.finish", "batch.end",
    ]
    assert [e.seq for e in events] == [1, 2, 3, 4]


def test_flush_is_a_collection_barrier():
    collected = []
    bus = EventBus(on_event=collected.append).start()
    try:
        handle = bus.handle()
        for index in range(20):
            handle.emit("batch.start", jobs=index)
        assert bus.flush(timeout=10.0)
        assert len(collected) == 20
        assert bus.rollup()["events"] == 20
    finally:
        bus.stop()


def test_the_bus_keeps_counts_not_events():
    """A long-lived bus (the daemon's) holds running counters, so what
    it keeps does not grow with the events it has collected."""
    bus = EventBus().start()
    try:
        bus.emit("batch.start", jobs=0)  # warm the manager connection
        assert bus.flush()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for attempt in range(20_000):
                bus.emit("job.retry", job="fft/shared-l2/mipsy",
                         attempt=attempt)
            assert bus.flush(timeout=120.0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert bus.rollup()["by_kind"] == {
            "batch.start": 1, "job.retry": 20_000,
        }
    finally:
        bus.stop()
    assert grown < 512 * 1024


def test_unknown_event_kinds_are_rejected_by_validator():
    # Every kind the runner and stores emit must be declared.
    for kind in (
        "job.start", "job.finish", "job.retry", "job.cached",
        "job.quarantined", "cache.hit", "cache.store", "ckpt.save",
        "trace.replay", "worker.spawn", "pool.rebuild",
    ):
        assert kind in EVENT_KINDS


# ----------------------------------------------------------------------
# runner integration (serial; parallel + faults in test_runner_faults)


def test_serial_batch_emits_lifecycle_and_cache_events(tmp_path):
    batch = [quick_job("shared-l1"), quick_job("shared-l2")]
    cache = ResultCache(tmp_path / "cache")
    bus = EventBus(log_path=tmp_path / "events.jsonl").start()
    report = Runner(jobs=1, cache=cache, bus=bus).run(batch)
    rollup = bus.stop()

    assert not report.failures
    assert rollup["by_kind"]["job.start"] == 2
    assert rollup["by_kind"]["job.finish"] == 2
    assert rollup["by_kind"]["cache.miss"] == 2
    assert rollup["by_kind"]["cache.store"] == 2
    assert rollup["by_kind"]["batch.start"] == 1
    assert rollup["by_kind"]["batch.end"] == 1
    assert validate_events(tmp_path / "events.jsonl") == []
    # the report carries both rollup flavors
    assert report.telemetry["events"] == rollup["events"]
    assert report.cache_stats["misses"] == 2
    assert report.cache_stats["stores"] == 2
    report_dict = report.to_dict()
    assert report_dict["result_cache"]["stores"] == 2
    assert report_dict["telemetry"]["by_kind"]["job.finish"] == 2
    # second run over the same cache: hits, no simulation
    bus2 = EventBus().start()
    second = Runner(
        jobs=1, cache=ResultCache(tmp_path / "cache"), bus=bus2
    ).run(batch)
    rollup2 = bus2.stop()
    assert rollup2["by_kind"]["cache.hit"] == 2
    assert rollup2["by_kind"]["job.cached"] == 2
    assert "job.start" not in rollup2["by_kind"]
    assert second.cache_hits == 2


def test_bus_off_emits_zero_events_and_identical_stats(tmp_path):
    job = quick_job()
    # No bus anywhere: the process-current handle stays None and the
    # only cost on every hook is that None check.
    assert obs_bus.current() is None
    plain = Runner(jobs=1).run([job]).outcomes[0].result

    collected = []
    bus = EventBus(
        log_path=tmp_path / "events.jsonl", on_event=collected.append
    ).start()
    observed = Runner(jobs=1, bus=bus).run([job]).outcomes[0].result
    assert obs_bus.current() is None  # restored after the batch

    assert plain.stats.to_dict() == observed.stats.to_dict()
    assert len(collected) > 0
    # and a bus-off run after a bus-on one emits nothing new, even
    # with that bus still collecting
    before = len(collected)
    Runner(jobs=1).run([job])
    assert bus.flush()
    bus.stop()
    assert len(collected) == before


def test_a_sweeps_telemetry_is_its_runners_last_report(tmp_path):
    runner = Runner(jobs=1, cache=ResultCache(tmp_path / "cache"))
    result = sweep_mem_field(
        Job("shared-l1", "fft", max_cycles=CAP), "l1d_size", [4096, 8192],
        archs=("shared-l1",), n_cpus=2, runner=runner,
    )
    report = runner.last_report.to_dict()
    assert report is not None
    assert report["jobs"] == 2
    assert report["result_cache"]["misses"] == 2
    assert len(report["per_job"]) == 2
    # the sweep's own summary is its table, not a copy of the batch's
    assert "run_report" not in result.to_dict()


# ----------------------------------------------------------------------
# span model / batch trace


def _stream(*items):
    out = []
    for seq, (kind, ts, pid, fields) in enumerate(items, start=1):
        out.append(
            {"seq": seq, "ts": ts, "pid": pid, "kind": kind, **fields}
        )
    return out


def test_batch_trace_tracks_spans_retries_and_kills():
    events = _stream(
        ("batch.start", 0.0, 1, {"jobs": 3}),
        ("worker.spawn", 0.01, 10, {}),
        ("worker.spawn", 0.01, 11, {}),
        ("job.start", 0.02, 10, {"job": "a", "attempt": 1}),
        ("job.start", 0.02, 11, {"job": "b", "attempt": 1}),
        ("job.finish", 0.50, 10, {"job": "a", "attempt": 1,
                                  "wall_seconds": 0.48}),
        # worker 11 is SIGKILLed mid-job: no closer ever arrives
        ("job.retry", 0.60, 1, {"job": "b", "attempt": 1}),
        ("pool.rebuild", 0.61, 1, {"requeued": 1}),
        ("job.start", 0.70, 12, {"job": "b", "attempt": 2}),
        ("job.finish", 1.20, 12, {"job": "b", "attempt": 2,
                                  "wall_seconds": 0.5}),
        ("batch.end", 1.25, 1, {"jobs": 3}),
    )
    trace = build_batch_trace(events, label="faulty batch")
    assert validate_trace(trace) == []

    names = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    assert names == {"runner", "worker 10", "worker 11", "worker 12"}

    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    statuses = sorted(
        (s["name"], s["args"]["status"]) for s in spans
    )
    assert statuses == [("a", "ok"), ("b", "killed"), ("b", "ok")]
    # the killed attempt is drawn, closed at batch end, marked killed
    killed = next(s for s in spans if s["args"]["status"] == "killed")
    assert killed["args"]["killed"] is True
    # the successful retry is categorized as a retry span
    retry = [s for s in spans if s["cat"] == "retry"]
    assert len(retry) == 1 and retry[0]["args"]["attempt"] == 2
    # instants and counters made it through
    instants = {e["name"] for e in trace["traceEvents"]
                if e.get("ph") == "i"}
    assert {"job.retry", "pool.rebuild"} <= instants
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert counters and counters[-1]["args"]["done"] == 2


def test_validate_trace_accepts_instants_and_counters_strictly():
    def trace_with(extra):
        return {"traceEvents": [extra]}

    good_i = {"name": "x", "ph": "i", "s": "t", "pid": 1, "tid": 1,
              "ts": 5}
    good_c = {"name": "x", "ph": "C", "pid": 1, "tid": 1, "ts": 5,
              "args": {"v": 1}}
    assert validate_trace(trace_with(good_i)) == []
    assert validate_trace(trace_with(good_c)) == []
    bad_scope = dict(good_i, s="z")
    assert any("instant scope" in e
               for e in validate_trace(trace_with(bad_scope)))
    bad_counter = {k: v for k, v in good_c.items() if k != "args"}
    assert any("args" in e
               for e in validate_trace(trace_with(bad_counter)))
    unknown = dict(good_i, ph="b")
    assert any("unsupported phase" in e
               for e in validate_trace(trace_with(unknown)))


# ----------------------------------------------------------------------
# rollups + Prometheus exposition


def test_rollup_and_prometheus_text():
    events = _stream(
        ("batch.start", 0.0, 1, {"jobs": 2}),
        ("cache.miss", 0.01, 1, {}),
        ("cache.hit", 0.02, 1, {}),
        ("job.cached", 0.02, 1, {"job": "a"}),
        ("job.start", 0.03, 10, {"job": "b", "attempt": 1}),
        ("ckpt.save", 0.2, 10, {"digest": "d", "bytes": 10}),
        ("job.finish", 0.5, 10, {"job": "b", "attempt": 1,
                                 "wall_seconds": 0.47}),
        ("cache.store", 0.51, 1, {}),
        ("batch.end", 0.6, 1, {"jobs": 2}),
    )
    rollup = rollup_events(events)
    assert rollup["jobs"] == {"cached": 1, "ok": 1}
    assert rollup["cache_ops"] == {"hit": 1, "miss": 1, "store": 1}
    assert rollup["store_ops"] == {"ckpt.save": 1}
    assert rollup["workers"] == 1
    assert rollup["job_wall_seconds_count"] == 1
    assert rollup["batch_wall_seconds"] == pytest.approx(0.6)

    text = prometheus_text(rollup)
    assert 'repro_jobs_total{status="ok"} 1' in text
    assert 'repro_jobs_total{status="cached"} 1' in text
    assert 'repro_cache_ops_total{op="miss"} 1' in text
    assert 'repro_store_ops_total{op="save",store="ckpt"} 1' in text
    assert "# TYPE repro_jobs_total counter" in text
    assert "repro_job_wall_seconds_count 1" in text
    # custom prefix
    assert prometheus_text(rollup, prefix="isca").startswith(
        "# HELP isca_jobs_total"
    )


# ----------------------------------------------------------------------
# live view


def test_live_view_tracks_progress_and_eta():
    clock = iter(range(100))
    stream = io.StringIO()
    view = LiveView(
        total=4, stream=stream, interval=0.0,
        clock=lambda: float(next(clock)),
    )
    view.on_event(BusEvent("job.start", 1.0, 10,
                           fields={"job": "a/b/c"}))
    assert view.busy == {10: "a/b/c"}
    view.on_event(BusEvent("cache.miss", 1.0, 1))
    view.on_event(BusEvent("job.finish", 3.0, 10,
                           fields={"job": "a/b/c",
                                   "wall_seconds": 2.0}))
    view.on_event(BusEvent("cache.hit", 3.1, 1))
    view.on_event(BusEvent("job.cached", 3.1, 1,
                           fields={"job": "d/e/f"}))
    line = view.render()
    assert "2/4 done" in line
    assert "1 cached" in line
    assert "cache 50% hit" in line
    assert view.done == 2 and view.cached == 1 and view.failed == 0
    # ETA: 2 remaining x 2.0s mean / 1 lane... no lanes busy -> uses 1
    assert view.eta_seconds() == pytest.approx(4.0)
    view.finish()
    assert "2/4 done" in stream.getvalue()


def test_live_view_never_breaks_collection():
    class ExplodingStream(io.StringIO):
        def write(self, *_):
            raise OSError("tty gone")

    bus = EventBus(
        on_event=LiveView(
            total=1, stream=ExplodingStream(), interval=0.0
        ).on_event,
    ).start()
    try:
        bus.handle().emit("job.start", job="a")
        assert bus.flush()
        assert bus.rollup()["events"] == 1  # collection survived the OSError
    finally:
        bus.stop()


# ----------------------------------------------------------------------
# store instrumentation


def test_result_cache_counts_without_a_bus(tmp_path):
    cache = ResultCache(tmp_path)
    job = quick_job()
    assert cache.get(job) is None
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 0)
    result = job.run()
    cache.put(job, result)
    assert cache.stores == 1
    assert cache.get(job) is not None
    assert cache.hits == 1
    # corrupt entry: dropped, counted as an eviction + miss
    cache.path_for(job).write_text("{torn")
    assert cache.get(job) is None
    assert cache.evictions == 1
    assert cache.misses == 2
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["bytes_written"] > 0


def test_runner_summary_includes_cache_counters(tmp_path):
    cache = ResultCache(tmp_path)
    runner = Runner(jobs=1, cache=cache)
    assert runner.summary() == "no batch has run"
    runner.run([quick_job()])
    text = runner.summary()
    assert "1 miss(es)" in text
    assert "1 store(s)" in text
    runner.run([quick_job()])
    assert "1 hit(s)" in runner.summary()


def test_ckpt_store_metrics_and_events(tmp_path):
    from repro.ckpt import CheckpointStore

    handle = RecordingHandle()
    obs_bus.set_current(handle)
    store = CheckpointStore(tmp_path)
    digest = store.save({"meta": {"cycle": 5}, "x": 1}, key="k")
    store.save({"meta": {"cycle": 5}, "x": 1})  # identical: dedup
    store.load(digest)
    assert store.saves == 2
    assert store.loads == 1
    assert store.stats()["dedups"] == 1
    assert store.stats()["bytes_read"] > 0
    kinds = handle.kinds()
    assert kinds.count("ckpt.save") == 2
    assert kinds.count("ckpt.load") == 1
    saved = [f for k, f in handle.events if k == "ckpt.save"]
    assert saved[0]["deduped"] is False
    assert saved[1]["deduped"] is True


def test_trace_store_metrics_and_replay_event(tmp_path):
    handle = RecordingHandle()
    obs_bus.set_current(handle)
    store = TraceStore(tmp_path)
    first = store.get_or_record("fft", "test", 2)
    again = store.get_or_record("fft", "test", 2)
    assert first == again
    assert store.records == 1
    assert store.hits == 1
    assert store.stats()["misses"] == 1
    kinds = handle.kinds()
    assert kinds.count("trace.record") == 1
    assert kinds.count("trace.hit") == 1

    replayed = Job(
        arch="shared-l2", workload="fft", scale="test", n_cpus=2,
        max_cycles=CAP, replay=True, trace_dir=str(tmp_path),
    ).run()
    assert replayed.extras["backend"] == "replay"
    replay_events = [f for k, f in handle.events if k == "trace.replay"]
    assert len(replay_events) == 1
    assert replay_events[0]["workload"] == "fft"
    assert replay_events[0]["trace"] == first.name
    assert "engine" not in replay_events[0]


# ----------------------------------------------------------------------
# CLI


def run_small_batch(tmp_path):
    bus = EventBus(log_path=tmp_path / "events.jsonl").start()
    Runner(
        jobs=1, cache=ResultCache(tmp_path / "cache"), bus=bus
    ).run([quick_job()])
    bus.stop()
    write_batch_trace(
        read_events(tmp_path / "events.jsonl"),
        tmp_path / "batch_trace.json",
    )
    return tmp_path / "events.jsonl", tmp_path / "batch_trace.json"


def test_cli_validate_sniffs_both_formats(tmp_path, capsys):
    log, trace = run_small_batch(tmp_path)
    assert main(["obs", "validate", str(log)]) == 0
    assert "valid event log" in capsys.readouterr().out
    assert main(["obs", "validate", str(trace)]) == 0
    assert "valid trace" in capsys.readouterr().out
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seq": 1, "ts": 1.0, "pid": 3, "kind": "wat"}\n')
    assert main(["obs", "validate", str(bad)]) == 1


def test_cli_tail_prints_events(tmp_path, capsys):
    log, _ = run_small_batch(tmp_path)
    assert main(["obs", "tail", str(log)]) == 0
    out = capsys.readouterr().out
    assert "batch.start" in out
    assert "job.finish" in out
    assert "job=fft/shared-l1/mipsy" in out
    # --lines trims from the front
    assert main(["obs", "tail", str(log), "--lines", "1"]) == 0
    out = capsys.readouterr().out
    assert "batch.end" in out and "batch.start" not in out


def test_cli_tail_follow_prints_what_is_appended_between_polls(
    tmp_path, capsys, monkeypatch
):
    """``--follow`` picks up each poll's appended lines once, holds a
    line torn across two polls until it is whole, and stops at
    ``batch.end``."""
    from repro.command import obs as obs_command

    lines = [
        json.dumps({"seq": seq, "ts": 10.0 + seq, "pid": 7,
                    "kind": kind, **fields}) + "\n"
        for seq, (kind, fields) in enumerate((
            ("batch.start", {"jobs": 1}),
            ("job.start", {"job": "a/b/c", "attempt": 1}),
            ("job.finish", {"job": "a/b/c", "attempt": 1}),
            ("batch.end", {"jobs": 1}),
        ), start=1)
    ]
    log = tmp_path / "events.jsonl"
    log.write_text(lines[0])
    torn = lines[2]
    appends = iter([lines[1] + torn[:20], "", torn[20:], lines[3]])
    polls = []

    def poll(seconds):
        polls.append(seconds)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(next(appends))

    monkeypatch.setattr(obs_command.time, "sleep", poll)
    assert main(["obs", "tail", str(log), "--follow"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["#1", "#2", "#3", "#4"]
    assert "job.finish" in printed[2] and "attempt=1" in printed[2]
    assert "+   3.000s" in printed[3]  # timed from the first event
    assert len(polls) == 4  # ended by batch.end, not by running dry


def test_cli_export_prometheus_and_json(tmp_path, capsys):
    log, _ = run_small_batch(tmp_path)
    assert main(["obs", "export", str(log)]) == 0
    out = capsys.readouterr().out
    assert 'repro_jobs_total{status="ok"} 1' in out
    assert main([
        "obs", "export", str(log), "--format", "json",
    ]) == 0
    rollup = json.loads(capsys.readouterr().out)
    assert rollup["jobs"] == {"ok": 1}
    assert main([
        "obs", "export", str(log), "--prefix", "isca",
    ]) == 0
    assert "isca_jobs_total" in capsys.readouterr().out


def test_cli_batch_report(tmp_path, capsys):
    log, _ = run_small_batch(tmp_path)
    assert main(["obs", "report", "--batch", str(log)]) == 0
    out = capsys.readouterr().out
    assert "batch report" in out
    assert "1 ok" in out
    assert "result cache" in out


def test_cli_obs_report_still_requires_workload_without_batch(capsys):
    assert main(["obs", "report"]) == 2
    assert "--batch" in capsys.readouterr().err
