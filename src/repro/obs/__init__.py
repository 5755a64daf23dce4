"""Low-overhead, opt-in observability for the simulator.

The subsystem has three collectors behind one switch
(:class:`~repro.obs.config.ObsConfig`):

* a metric registry (counters, gauges, log2 histograms) —
  :mod:`repro.obs.registry`;
* an interval **sampler** that snapshots per-component utilization
  (crossbar grants/conflicts, bank occupancy, bus busy fraction,
  write-buffer and MSHR fill, per-CPU stall mix) into time series —
  :mod:`repro.obs.sampler`;
* an **event timeline** exported as Chrome/Perfetto trace JSON with
  one track per CPU/bank/bus — :mod:`repro.obs.timeline`.

Above the single-System scope sits the **batch telemetry layer**:

* a process-safe **event bus** (:mod:`repro.obs.bus`) — workers emit
  structured JSONL events over a manager queue to a collector in the
  parent;
* a **span model** (:mod:`repro.obs.spans`) folding the event stream
  into a per-batch Chrome/Perfetto trace with one track per worker;
* **rollups and Prometheus text exposition**
  (:mod:`repro.obs.export`) and a **live progress view**
  (:mod:`repro.obs.live`).

The contract: the observed run is the measured run. On or off, every
fast lane and hot loop runs and results are bit-identical; on, the
hooks record what a stepped run would and only wall time pays. The bus
honours the same contract at batch scope: off means zero events and
one ``None`` check per hook. See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.bus import (
    EVENT_KINDS,
    BusEvent,
    BusHandle,
    EventBus,
    read_events,
    validate_events,
)
from repro.obs.config import (
    DEFAULT_MAX_EVENTS,
    DEFAULT_SAMPLE_INTERVAL,
    ObsConfig,
)
from repro.obs.export import (
    prometheus_text,
    rollup_events,
)
from repro.obs.live import LiveView
from repro.obs.observe import STALL_EVENT, Observation
from repro.obs.registry import Counter, Gauge, Histogram, Registry
from repro.obs.report import (
    format_phase_table,
    format_rollup,
    phase_means,
)
from repro.obs.sampler import UtilizationSampler
from repro.obs.spans import build_batch_trace, write_batch_trace
from repro.obs.timeline import EventTimeline, validate_trace

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_SAMPLE_INTERVAL",
    "ObsConfig",
    "Observation",
    "STALL_EVENT",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "UtilizationSampler",
    "EventTimeline",
    "validate_trace",
    "format_phase_table",
    "format_rollup",
    "phase_means",
    "EVENT_KINDS",
    "BusEvent",
    "BusHandle",
    "EventBus",
    "read_events",
    "validate_events",
    "build_batch_trace",
    "write_batch_trace",
    "rollup_events",
    "prometheus_text",
    "LiveView",
]
