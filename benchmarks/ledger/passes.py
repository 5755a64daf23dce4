"""The seven ledger workloads: set-up, timed region, tear-down.

Every workload has two ways through its timed region. Untraced, it
calls exactly what a user calls (``Job.run()``, ``ServiceClient``).
Traced, it walks the same public steps those entry points take — one
span around each call into a layer — so per-layer time is measured
from outside, without a hook under ``src/``. Both ways produce
``SystemStats`` that the caller checks against the committed digests,
which is what keeps the walked path honest.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.configs import config_for_scale
from repro.core.experiment import ExperimentResult
from repro.core.runner import Job, ResultCache, Runner
from repro.core.system import System
from repro.mem.functional import FunctionalMemory
from repro.serve import ServiceClient, ServiceDaemon, TERMINAL_STATES
from repro.sim.stats import SystemStats
from repro.trace.kernel import load_packed, replay_kernel
from repro.trace.store import TraceStore

import matrix
from hostspeed import HostSpeed, factor
from spanrec import SpanRecorder

#: worker processes and client threads: never more than the 2 cores
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
#: ``ServiceClient.wait``'s default poll interval, mirrored when traced
POLL_SECONDS = 0.2
JOB_TIMEOUT_S = 600.0


@dataclass
class Context:
    """What one benchmark process was asked to do."""

    seed: int
    scale: str
    seconds: float
    run_dir: Path
    _dirs: int = 0

    def rng(self) -> random.Random:
        """A fresh generator: every pass of a run sees the same order."""
        return random.Random(self.seed)

    def fresh_dir(self, name: str) -> Path:
        """A new, empty, explicitly placed store directory."""
        self._dirs += 1
        path = self.run_dir / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """One attempted job (or service request) of a timed region."""

    job_id: str
    stats: SystemStats | None = None
    resources: dict = field(default_factory=dict)
    error: str | None = None
    #: hand-off to result-in-hand, seconds
    latency_s: float = 0.0
    #: host seconds inside the simulation itself
    run_s: float = 0.0
    #: service-only details (polls, status document, hit class, payload)
    info: dict = field(default_factory=dict)


def _failure(job_id: str, error: BaseException, started: float) -> Outcome:
    return Outcome(
        job_id,
        error=f"{type(error).__name__}: {error}",
        latency_s=time.perf_counter() - started,
    )


def _from_result(
    job_id: str, result: ExperimentResult, latency_s: float
) -> Outcome:
    return Outcome(
        job_id,
        stats=result.stats,
        resources=result.extras.get("resources", {}),
        error="truncated at max_cycles"
        if result.extras.get("truncated")
        else None,
        latency_s=latency_s,
        run_s=result.wall_seconds,
    )


def _job_config(job: Job):
    config = config_for_scale(job.scale, job.n_cpus)
    if job.overrides:
        config = config.with_overrides(**job.overrides)
    return config


# ----------------------------------------------------------------------
# in-process lanes


def run_job(job_id: str, job: Job) -> Outcome:
    """Untraced: the public entry point, ``Job.run()``."""
    started = time.perf_counter()
    try:
        result = job.run()
    except Exception as error:  # noqa: BLE001 — a failed job is a datum
        return _failure(job_id, error, started)
    return _from_result(job_id, result, time.perf_counter() - started)


def walk_generated(job_id: str, job: Job, spans: SpanRecorder) -> Outcome:
    """Traced: the steps ``run_one`` takes, one span per layer call."""
    started = time.perf_counter()
    try:
        with spans.span("job", job_id):
            config = _job_config(job)
            with spans.span("workloads.build"):
                functional = FunctionalMemory()
                workload = job.resolve_factory()(
                    job.n_cpus, functional, job.scale
                )
            with spans.span("core.system.build"):
                system = System(
                    job.arch,
                    workload,
                    cpu_model=job.cpu_model,
                    mem_config=config,
                    cpu_params=job.cpu_params,
                    max_cycles=job.max_cycles,
                )
            with spans.span("core.system.run") as run_span:
                stats = system.run()
            with spans.span("mem.resource_report"):
                resources = system.memory.resource_report(
                    max(stats.cycles, 1)
                )
            with spans.span("sim.stats.to_dict"):
                stats.to_dict()
    except Exception as error:  # noqa: BLE001
        return _failure(job_id, error, started)
    return Outcome(
        job_id,
        stats=stats,
        resources=resources,
        error="truncated at max_cycles" if system.truncated else None,
        latency_s=time.perf_counter() - started,
        run_s=run_span.end - run_span.start,
    )


def walk_replay(
    job_id: str,
    job: Job,
    store: TraceStore,
    counters: dict,
    spans: SpanRecorder,
) -> Outcome:
    """Traced: the steps ``run_replay`` takes for a Mipsy kernel job."""
    started = time.perf_counter()
    try:
        with spans.span("job", job_id):
            config = _job_config(job)
            with spans.span("trace.store.get"):
                path = store.get(job.workload, job.scale, job.n_cpus)
            if path is None:
                counters["misses"] += 1
                with spans.span("trace.record"):
                    path = store.record(job.workload, job.scale, job.n_cpus)
            else:
                counters["hits"] += 1
            with spans.span("trace.load_packed"):
                packed = load_packed(job.n_cpus, path)
            with spans.span("trace.kernel") as kernel_span:
                run = replay_kernel(
                    packed,
                    job.arch,
                    mem_config=config,
                    max_cycles=job.max_cycles,
                )
            with spans.span("sim.stats.to_dict"):
                run.stats.to_dict()
    except Exception as error:  # noqa: BLE001
        return _failure(job_id, error, started)
    counters["references"] += len(packed)
    return Outcome(
        job_id,
        stats=run.stats,
        resources=run.resources,
        error="truncated at max_cycles" if run.truncated else None,
        latency_s=time.perf_counter() - started,
        run_s=kernel_span.end - kernel_span.start,
    )


class Workload:
    """One named workload; subclasses fill in the phases."""

    name = ""
    #: how many times ``prepare`` is repeated for the ``setup_s`` median
    #: (once where it records traces, simulates the whole matrix or
    #: starts a daemon that then takes half a second to stop)
    setup_reps = 3
    #: True when the timed region is a plain loop over ``state["jobs"]``
    #: in this process, so a traced and an untraced copy can be
    #: interleaved job by job for the tracing-overhead A/B
    in_process = True

    def prepare(self, ctx: Context) -> dict:
        """Everything done before the timed region (counts in setup_s)."""
        return {}

    def step(
        self, state: dict, job_id: str, job: Job, spans: SpanRecorder | None
    ) -> Outcome:
        """One job of an in-process timed region."""
        raise NotImplementedError

    def timed(
        self,
        ctx: Context,
        state: dict,
        spans: SpanRecorder | None,
        speed: HostSpeed,
    ) -> list[Outcome]:
        """The timed region; ``spans`` is set in the traced pass.

        An in-process region samples the host-speed yardstick after
        every job (the caller takes that time back out of the wall).
        """
        outcomes = []
        for job_id, job in state["jobs"]:
            outcomes.append(self.step(state, job_id, job, spans))
            speed.sample()
        return outcomes

    def wall(
        self,
        state: dict,
        outcomes: list[Outcome],
        elapsed_s: float,
        speed: HostSpeed,
    ) -> tuple[float, float]:
        """The timed region's raw seconds and the host factor that puts
        them on the reference speed. ``elapsed_s`` is the region's
        ``perf_counter`` span less the yardstick samples taken in it."""
        return elapsed_s, speed.factor()

    def finish(self, ctx: Context, state: dict) -> None:
        """Tear-down after the timed region (not in wall_s)."""

    def problems(self, state: dict) -> list[str]:
        """What a finished pass shows went wrong beyond its outcomes."""
        return []


class GeneratedSweep(Workload):
    """A figure matrix through the generated lane, in process."""

    def __init__(self, name: str, cpu_model: str) -> None:
        self.name = name
        self.cpu_model = cpu_model

    def prepare(self, ctx):
        jobs = matrix.figure_jobs(ctx.scale, cpu_model=self.cpu_model)
        return {"jobs": matrix.shuffled(jobs, ctx.rng())}

    def step(self, state, job_id, job, spans):
        if spans is None:
            return run_job(job_id, job)
        return walk_generated(job_id, job, spans)


class CoherenceStorm(GeneratedSweep):
    """The synthetic sharing storm on all five presets."""

    def __init__(self) -> None:
        super().__init__("coherence_storm", "mipsy")

    def prepare(self, ctx):
        jobs = matrix.storm_jobs(ctx.scale, matrix.storm_rng_seed(ctx.seed))
        rounds = matrix.STORM_ROUNDS[ctx.scale]
        return {"jobs": matrix.shuffled(jobs, ctx.rng(), rounds)}


class ReplaySweep(Workload):
    """The Mipsy matrix down the replay lane against one trace store."""

    def _state(self, ctx, trace_dir, rounds) -> dict:
        jobs = matrix.figure_jobs(
            ctx.scale, replay=True, trace_dir=str(trace_dir)
        )
        return {
            "trace_dir": trace_dir,
            "jobs": matrix.shuffled(jobs, ctx.rng(), rounds),
            # the traced walk's own view of the store's traffic
            "store": TraceStore(trace_dir),
            "counters": {"hits": 0, "misses": 0, "references": 0},
        }

    def step(self, state, job_id, job, spans):
        if spans is None:
            return run_job(job_id, job)
        return walk_replay(
            job_id, job, state["store"], state["counters"], spans
        )


class ReplayCold(ReplaySweep):
    """21 replay jobs against an *empty* trace store: record, write,
    decode, pack, sidecar, kernel."""

    name = "replay_cold"

    def prepare(self, ctx):
        return self._state(ctx, ctx.fresh_dir("traces-cold"), rounds=1)


class ReplayWarm(ReplaySweep):
    """The same jobs against recorded traces with warm sidecars."""

    name = "replay_warm"
    setup_reps = 1

    def prepare(self, ctx):
        recorded = ctx.fresh_dir("traces-recorded")
        store = TraceStore(recorded)
        for app in matrix.APPS:
            path = store.record(app, ctx.scale, matrix.N_CPUS)
            load_packed(matrix.N_CPUS, path)  # writes the sidecar
        # The timed region must find warm sidecars but a cold
        # per-process decode memo, as a second `--replay` sweep in a
        # new process would. The memo is keyed by path, so a copy of
        # the store (mtimes preserved, which the sidecars check) is
        # warm on disk and unknown to this process.
        trace_dir = ctx.run_dir / f"traces-warm-{recorded.name}"
        shutil.copytree(recorded, trace_dir)
        rounds = matrix.rounds_for(
            matrix.REPLAY_WARM_ROUNDS, ctx.seconds, ctx.scale
        )
        return self._state(ctx, trace_dir, rounds)


# ----------------------------------------------------------------------
# service lanes


def _request(client, job_id, job, spans, parent) -> Outcome:
    """One closed-loop request: submit, wait, fetch the result."""
    started = time.perf_counter()
    info: dict = {"polls": 0}
    try:
        if spans is None:
            response = client.submit(job)
            status = client.wait(response["id"], timeout=JOB_TIMEOUT_S)
            payload = (
                client.result_payload(response["id"])
                if status["state"] in ("done", "cached")
                else None
            )
        else:
            with spans.span("request", job_id, parent=parent):
                with spans.span("serve.submit"):
                    response = client.submit(job)
                deadline = time.monotonic() + JOB_TIMEOUT_S
                while True:
                    with spans.span("serve.status"):
                        status = client.status(response["id"])
                    info["polls"] += 1
                    if status["state"] in TERMINAL_STATES:
                        break
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"{job_id} still {status['state']}")
                    with spans.span("serve.poll_sleep"):
                        time.sleep(POLL_SECONDS)
                payload = None
                if status["state"] in ("done", "cached"):
                    with spans.span("serve.result"):
                        payload = client.result_payload(response["id"])
    except Exception as error:  # noqa: BLE001
        return _failure(job_id, error, started)
    latency = time.perf_counter() - started
    info["status"] = status
    info["payload"] = payload
    # first sight of a key is served from the disk cache (or simulated);
    # a repeat attaches to the daemon's in-memory record
    info["reused"] = bool(response.get("reused"))
    error = None
    if payload is None:
        error = f"ended {status['state']}: {status.get('error')}"
    return Outcome(job_id, error=error, latency_s=latency, info=info)


def sample_host(speed: HostSpeed, spans: SpanRecorder | None) -> None:
    """One yardstick sample, under a span of its own when traced."""
    if spans is None:
        speed.sample()
    else:
        with spans.span("host.yardstick"):
            speed.sample()


def drive_service(server, requests, spans, think=None) -> list[Outcome]:
    """Closed loop: each client sends its next request only after the
    previous result is in hand — and, given a ``think`` host-speed
    recorder, after one yardstick sample as think time."""
    lock = threading.Lock()
    pending = iter(requests)
    outcomes: list[Outcome] = []

    def client_loop(parent):
        client = ServiceClient(server)
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            outcome = _request(client, item[0], item[1], spans, parent)
            with lock:
                outcomes.append(outcome)
            if think is not None:
                sample_host(think, spans)

    def client_thread(pass_span):
        if spans is None:
            client_loop(None)
            return
        with spans.span("serve.client", parent=pass_span) as root:
            client_loop(root)

    # the caller's open "pass" span adopts the client threads' spans
    pass_span = spans.current() if spans is not None else None
    threads = [
        threading.Thread(target=client_thread, args=(pass_span,))
        for _ in range(SERVICE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def decode_payloads(outcomes: list[Outcome]) -> None:
    """Turn fetched ``/result`` documents back into statistics.

    Done after the timed region. Going through
    ``ExperimentResult.from_dict`` makes the service-vs-local
    differential part of every run: the digest is taken over what a
    client would reconstruct, not over the wire bytes.
    """
    for outcome in outcomes:
        payload = outcome.info.pop("payload", None)
        if payload is None:
            continue
        outcome.info["result_bytes"] = len(json.dumps(payload))
        try:
            result = ExperimentResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError) as error:
            outcome.error = f"undecodable result: {error!r}"
            continue
        outcome.stats = result.stats
        outcome.resources = result.extras.get("resources", {})
        outcome.run_s = result.wall_seconds
        if result.extras.get("truncated"):
            outcome.error = "truncated at max_cycles"


class ServiceWorkload(Workload):
    """The Mipsy matrix through a ``ServiceDaemon`` over HTTP."""

    in_process = False
    rounds_nominal = 1

    def _start_daemon(self, ctx, cache_dir) -> dict:
        started = time.perf_counter()
        daemon = ServiceDaemon(
            port=0,
            jobs=SERVICE_WORKERS,
            cache=ResultCache(cache_dir),
            state_dir=ctx.fresh_dir("serve-state"),
        )
        daemon.start()
        return {
            "daemon": daemon,
            "daemon_start_s": time.perf_counter() - started,
        }

    def _requests(self, ctx):
        rounds = matrix.rounds_for(
            self.rounds_nominal, ctx.seconds, ctx.scale
        )
        return matrix.shuffled(
            matrix.figure_jobs(ctx.scale), ctx.rng(), rounds
        )

    def finish(self, ctx, state):
        daemon = state["daemon"]
        started = time.perf_counter()
        daemon.shutdown(grace=30.0)
        state["shutdown_s"] = time.perf_counter() - started
        state["executed"] = daemon.scheduler.executed
        state["cache_hits"] = daemon.cache.hits


class ServiceCold(ServiceWorkload):
    """Empty result cache: every request simulates in the warm pool."""

    name = "service_cold"
    setup_reps = 1

    def prepare(self, ctx):
        state = self._start_daemon(ctx, ctx.fresh_dir("results-cold"))
        state["requests"] = self._requests(ctx)
        return state

    def timed(self, ctx, state, spans, speed):
        # Each client samples the yardstick as think time between its
        # requests: its own worker is idle then and the other client's
        # is busy, so the sample sees the machine as a worker does and
        # nothing is oversubscribed.
        server = f"http://127.0.0.1:{state['daemon'].port}"
        return drive_service(server, state["requests"], spans, think=speed)

    def wall(self, state, outcomes, elapsed_s, speed):
        # The closed loop's wall without think time or ragged end:
        # what two clients wait for in total, halved, is the makespan
        # when both are busy throughout. The makespan itself also
        # moves by a twelfth with which job the seed's shuffle happens
        # to put last, alone on one worker.
        busy_s = sum(outcome.latency_s for outcome in outcomes)
        return busy_s / SERVICE_CLIENTS, speed.factor()

    def problems(self, state):
        if state["executed"] != len(state["requests"]):
            return [
                f"service_cold expected {len(state['requests'])} "
                f"simulations, the daemon ran {state['executed']}"
            ]
        return []


class ServiceHit(ServiceWorkload):
    """Published results: round 1 is disk-cache hits, later rounds
    in-memory dedup hits; no simulation at all."""

    name = "service_hit"
    setup_reps = 1
    rounds_nominal = matrix.SERVICE_HIT_ROUNDS

    def prepare(self, ctx):
        cache_dir = ctx.fresh_dir("results-hit")
        report = Runner(
            jobs=SERVICE_WORKERS, cache=ResultCache(cache_dir)
        ).run([job for _, job in matrix.figure_jobs(ctx.scale)])
        if report.failures:
            raise RuntimeError(
                f"cache population failed: {report.failures[0].error}"
            )
        state = self._start_daemon(ctx, cache_dir)
        state["requests"] = self._requests(ctx)
        return state

    def timed(self, ctx, state, spans, speed):
        # Served in chunks of a few rounds, the clients idle and the
        # yardstick sampled between chunks (it cannot run beside them:
        # clients and daemon threads share this process's GIL).
        server = f"http://127.0.0.1:{state['daemon'].port}"
        requests = state["requests"]
        size = matrix.SERVICE_HIT_CHUNK_ROUNDS * len(
            matrix.figure_jobs(ctx.scale)
        )
        outcomes = []
        state["chunks"] = []
        for at in range(0, len(requests), size):
            started = time.perf_counter()
            served = drive_service(server, requests[at:at + size], spans)
            state["chunks"].append(
                (time.perf_counter() - started, len(served))
            )
            outcomes += served
            sample_host(speed, spans)
        return outcomes

    def wall(self, state, outcomes, elapsed_s, speed):
        # Median chunk, not the total: every chunk is the same work, so
        # the median drops the chunks a scheduling stall landed on, and
        # each chunk is scaled by the two samples that bracket it (the
        # caller took the first just before the region).
        raw = [wall_s / served for wall_s, served in state["chunks"]]
        scaled = [
            per_request_s * factor(before, after)
            for per_request_s, before, after in zip(
                raw, speed.samples, speed.samples[1:]
            )
        ]
        raw_s = statistics.median(raw) * len(outcomes)
        return raw_s, statistics.median(scaled) * len(outcomes) / raw_s

    def problems(self, state):
        if state["executed"]:
            return [
                f"service_hit simulated {state['executed']} job(s); "
                "every request should have been a hit"
            ]
        return []


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        GeneratedSweep("fig_sweep_mipsy", "mipsy"),
        GeneratedSweep("fig_sweep_mxs", "mxs"),
        CoherenceStorm(),
        ReplayWarm(),
        ReplayCold(),
        ServiceCold(),
        ServiceHit(),
    )
}
