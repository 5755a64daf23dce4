"""Trace capture and replay (trace-driven simulation mode).

The simulator is execution-driven, but the classic methodology the
paper's generation of studies grew out of is *trace-driven*: capture a
reference stream once, replay it against many cache configurations.
This package provides both halves:

* :class:`~repro.trace.recorder.TraceRecorder` wraps any memory system
  and records every access (cpu, kind, address, issue cycle) while the
  simulation runs normally;
* :class:`~repro.trace.replay.TraceWorkload` makes a recorded trace a
  workload again, so the same reference stream can be replayed against
  a different architecture or configuration by the ordinary
  :class:`~repro.core.system.System` — under Mipsy each CPU is a
  :class:`~repro.trace.replay.TraceCpu` reading its packed columns,
  under MXS a thread program re-issues them;
* :mod:`~repro.trace.format` defines the compact text format
  (one record per line) used on disk;
* :class:`~repro.trace.store.TraceStore` keeps traces as
  content-addressed artifacts, recorded automatically on first use —
  the record-once half of a ``Job(replay=True)``, whose
  :meth:`~repro.core.runner.Job.resolve_factory` builds a
  :class:`~repro.trace.replay.TraceWorkload` over the trace;
* :class:`~repro.trace.kernel.PackedTrace` is a trace decoded into
  flat per-CPU ``array`` columns, which
  :func:`~repro.trace.kernel.load_packed` serves from a memo or a
  binary sidecar; :func:`~repro.trace.kernel.replay_kernel` names a
  plain Mipsy replay of one.

Replay loses value-dependent behaviour (synchronization spins replay
the *recorded* number of iterations rather than re-resolving), which is
exactly the classic limitation of trace-driven simulation; the
execution-driven mode exists because of it. Replay is still the right
tool for cache-geometry sweeps, where the reference stream is fixed by
construction. See ``docs/REPLAY.md`` for the validity boundary.
"""

from repro.trace.format import (
    TraceRecord,
    canonical_order,
    read_trace,
    write_trace,
)
from repro.trace.kernel import KernelRun, PackedTrace, replay_kernel
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import TraceCpu, TraceWorkload
from repro.trace.store import TraceStore, default_trace_dir

__all__ = [
    "KernelRun",
    "PackedTrace",
    "TraceCpu",
    "TraceRecord",
    "TraceRecorder",
    "TraceStore",
    "TraceWorkload",
    "canonical_order",
    "default_trace_dir",
    "read_trace",
    "replay_kernel",
    "write_trace",
]
