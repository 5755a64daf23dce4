"""The :class:`Observation` object — one run's worth of telemetry.

A ``System`` built with an :class:`~repro.obs.config.ObsConfig` owns
exactly one ``Observation`` and hands it to every instrumented
component (memory system, interconnects, CPUs). The components keep a
plain ``obs`` / ``_obs`` attribute that is ``None`` by default; every
hook is a single ``is not None`` check on an already-rare path, and
none of them chooses how the run proceeds: an observed run is the run
an unobserved one is.

What it aggregates:

* ``registry`` — counters/gauges/histograms
  (:mod:`repro.obs.registry`);
* ``sampler`` — interval utilization series
  (:mod:`repro.obs.sampler`), fed by probes the memory system and CPUs
  declare;
* ``timeline`` — Chrome/Perfetto events (:mod:`repro.obs.timeline`);
* ``run_log`` — structured start/end records for the run;
* ``waits`` — the open sync-wait episodes (:meth:`spin_read`).
"""

from __future__ import annotations

from pathlib import Path

from repro.mem.types import StallLevel
from repro.obs.config import ObsConfig
from repro.obs.registry import Registry
from repro.obs.sampler import UtilizationSampler
from repro.obs.timeline import EventTimeline

#: Timeline event name per serving level of a data-access stall.
STALL_EVENT = {
    StallLevel.NONE: "stall.other",
    StallLevel.L1: "stall.l1",
    StallLevel.L2: "miss.l2",
    StallLevel.MEM: "miss.mem",
    StallLevel.C2C: "miss.c2c",
    StallLevel.STOREBUF: "stall.storebuf",
}


class Observation:
    """Telemetry hub for one simulation run."""

    def __init__(self, config: ObsConfig) -> None:
        self.config = config
        self.registry = Registry()
        self.sampler = (
            UtilizationSampler(config.sample_interval)
            if config.sample_interval > 0
            else None
        )
        self.timeline = (
            EventTimeline(config.max_events) if config.events else None
        )
        self.run_log: list[dict] = []
        #: CPU → cycle its open sync-wait episode began
        self.waits: dict[int, int] = {}

    # ------------------------------------------------------------------
    # wiring

    def attach(self, system) -> None:
        """Hook this observation into every component of ``system``.

        Order matters: the memory system attaches first (it may build
        obs-only shadow resources), then declares its sampler probes;
        the CPUs follow and rebind the lanes it may have rebuilt.
        """
        system.memory.attach_obs(self)
        sampler = self.sampler
        if sampler is not None:
            for kind, name, fn in system.memory.obs_probes():
                if kind == "gauge":
                    sampler.add_gauge(name, fn)
                else:
                    sampler.add_rate(name, fn)
        for cpu in system.cpus:
            cpu.attach_obs(self)
            if sampler is not None:
                self._add_cpu_probes(cpu)
        self.log(
            "run.start",
            0,
            arch=system.arch,
            workload=system.workload.name,
            cpu_model=system.cpu_model,
            n_cpus=system.config.n_cpus,
        )

    def _add_cpu_probes(self, cpu) -> None:
        """Per-CPU sampler probes: instruction rate plus the stall mix
        (Mipsy breakdowns) or MSHR fill and graduation rate (MXS)."""
        sampler = self.sampler
        cid = cpu.cpu_id
        sampler.add_rate(
            f"cpu{cid}.instructions", lambda c=cpu: c.instructions
        )
        if hasattr(cpu, "mshrs"):
            sampler.add_gauge(
                f"cpu{cid}.mshr", lambda c=cpu: c.mshrs.outstanding
            )
            # Every graduation retires one instruction; ``mxs.graduated``
            # itself only folds at flush_stats() and would lag.
            sampler.add_rate(
                f"cpu{cid}.graduated", lambda c=cpu: c.instructions
            )
            return
        # The busy counter batches between stalls; busy_cycles() folds
        # the pending amount in so samples never lag.
        sampler.add_rate(
            f"cpu{cid}.busy", lambda c=cpu: c.busy_cycles()
        )
        breakdown = cpu.breakdown
        for field in breakdown._FIELDS[1:]:  # every stall bucket
            sampler.add_rate(
                f"cpu{cid}.stall.{field}",
                lambda b=breakdown, f=field: getattr(b, f),
            )

    # ------------------------------------------------------------------
    # event recording (callers guard with ``obs is not None``)

    def emit(
        self,
        track: str,
        name: str,
        cat: str,
        ts: int,
        dur: int = 1,
        args: dict | None = None,
    ) -> None:
        """Forward one event to the timeline (no-op when events are off)."""
        if self.timeline is not None:
            self.timeline.emit(track, name, cat, ts, dur, args)

    def record_stall(
        self, cpu: int, level: StallLevel, ts: int, dur: int
    ) -> None:
        """A data-access stall on ``cpu``: timeline event on the CPU's
        track plus a latency histogram per serving level."""
        name = STALL_EVENT.get(level, "stall.other")
        self.registry.histogram(name).observe(dur)
        if self.timeline is not None:
            self.timeline.emit(f"cpu{cpu}", name, "mem", ts, dur)

    def record_ifetch_miss(self, cpu: int, ts: int, dur: int) -> None:
        """An instruction-fetch miss on ``cpu``."""
        self.registry.histogram("miss.ifetch").observe(dur)
        if self.timeline is not None:
            self.timeline.emit(f"cpu{cpu}", "miss.ifetch", "mem", ts, dur)

    def record_coherence(
        self, cpu: int, name: str, ts: int, args: dict | None = None
    ) -> None:
        """A coherence action (invalidate/update/upgrade/rfo) affecting
        ``cpu``'s cache."""
        self.registry.counter(f"coherence.{name}").inc()
        if self.timeline is not None:
            self.timeline.emit(f"cpu{cpu}", name, "coherence", ts, 1, args)

    def spin_read(self, cpu: int, spin, value: object, at: int) -> None:
        """The declared spin ``spin`` on ``cpu`` read ``value`` at
        ``at``. A sync wait runs from the first iteration that reads
        a value other than ``spin.until`` to the one that reads it, and
        is recorded then, named after the spin's code region."""
        waits = self.waits
        if value != spin.until:
            if cpu not in waits:
                waits[cpu] = at
        elif cpu in waits:
            start = waits.pop(cpu)
            self.registry.histogram("sync.wait").observe(at - start)
            if self.timeline is not None:
                self.timeline.emit(
                    f"cpu{cpu}", spin.region, "sync", start, at - start
                )

    # ------------------------------------------------------------------
    # lifecycle

    def log(self, event: str, ts: int, **fields) -> None:
        """Append one structured record, stamped ``ts``, to the run
        log."""
        record = {"ts": ts, "event": event}
        record.update(fields)
        self.run_log.append(record)

    def finalize(self, end_cycle: int, instructions: int = 0) -> None:
        """Close out the run: top the sampler up to ``end_cycle`` so
        series lengths equal ``end_cycle // interval``, and log the end
        record."""
        if self.sampler is not None:
            self.sampler.finalize(end_cycle)
        self.log(
            "run.end", end_cycle, cycles=end_cycle, instructions=instructions
        )

    def rollup(self) -> dict:
        """JSON-serializable summary carried in result extras and the
        runner's per-job records (mean/max per sampled series, metric
        snapshot, event counts, run log)."""
        out = {
            "sample_interval": (
                self.sampler.interval if self.sampler is not None else 0
            ),
            "samples": (
                self.sampler.n_samples if self.sampler is not None else 0
            ),
            "utilization": (
                self.sampler.rollup() if self.sampler is not None else {}
            ),
            "metrics": self.registry.snapshot(),
            "log": list(self.run_log),
        }
        if self.timeline is not None:
            out["events"] = {
                "emitted": self.timeline.emitted,
                "dropped": self.timeline.dropped,
                "tracks": len(self.timeline._tracks),
            }
        return out

    def write_events(self, path: str | Path, label: str = "repro") -> int:
        """Write the timeline as Chrome trace JSON; returns the number
        of events written (0 when the timeline is off)."""
        if self.timeline is None:
            return 0
        return self.timeline.write(path, label)
