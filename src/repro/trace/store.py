"""Content-addressed store of recorded reference streams.

The record-once half of the replay lane: a trace is an *artifact*
keyed by what was recorded (workload name, scale, CPU count, the
reference machine, the trace format) plus the package source
fingerprint — deliberately **not** by the replay target's topology or
config overrides, because the whole point of trace-driven methodology
is that one recorded stream serves every point of a geometry/policy
sweep. First use records the trace automatically (one interpreter run
on the fixed reference machine); every subsequent replay job, whatever
its architecture or ``MemConfig``, reuses the file.

Layout mirrors :class:`~repro.core.runner.ResultCache`:
``<root>/<key[:2]>/<key>.trace`` plus a ``.json`` sidecar with the
spec, written atomically. The default root lives *beside* the result
cache (``<cache>/traces``), but it is a separate layer: clearing
results (``--no-cache``) does not discard recorded traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable

import repro
from repro.errors import ConfigError, ReproError
from repro.obs import bus as obs_bus
from repro.obs.registry import Registry

#: The fixed reference machine every trace is recorded on. The
#: baseline architecture keeps the recorded stream topology-neutral,
#: and Mipsy (in-order, blocking) interleaves references in the
#: canonical order the paper's trace-driven methodology assumes.
REFERENCE_ARCH = "shared-mem"
REFERENCE_CPU_MODEL = "mipsy"

#: bump when the on-disk trace format or recording rules change
TRACE_FORMAT_VERSION = 2


def default_trace_dir() -> Path:
    """The trace store's home beside the result cache: ``<cache>/traces``."""
    from repro.core.runner import default_cache_dir

    return default_cache_dir() / "traces"


class TraceStore:
    """On-disk, content-addressed trace artifacts.

    Each instance counts its traffic (``hits``/``misses``/``records``
    plus bytes written at record time, text and sidecar) in a
    :class:`~repro.obs.registry.Registry`; with a batch telemetry bus
    current in the process, lookups and recordings also land on it as
    ``trace.hit``/``trace.record`` events.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = (
            Path(root).expanduser() if root else default_trace_dir()
        )
        self.metrics = Registry()

    @property
    def hits(self) -> int:
        return self.metrics.counter("hits").value

    @property
    def records(self) -> int:
        return self.metrics.counter("records").value

    def stats(self) -> dict:
        """Counter snapshot for reports and rollups."""
        return {
            name: counter.value
            for name, counter in sorted(self.metrics.counters.items())
        }

    # ------------------------------------------------------------------
    # identity

    def spec(self, workload: str, scale: str, n_cpus: int) -> dict:
        """The canonical description of one recorded trace."""
        if not isinstance(workload, str):
            raise ConfigError(
                "trace recording needs a registry workload name; got "
                f"{workload!r}"
            )
        return {
            "kind": "trace",
            "format": TRACE_FORMAT_VERSION,
            "workload": workload,
            "scale": scale,
            "n_cpus": n_cpus,
            "recorded_with": {
                "arch": REFERENCE_ARCH,
                "cpu_model": REFERENCE_CPU_MODEL,
            },
        }

    def key(self, workload: str, scale: str, n_cpus: int) -> str:
        """SHA-256 content address of one trace artifact."""
        from repro.core.runner import _source_fingerprint

        payload = json.dumps(
            {
                "spec": self.spec(workload, scale, n_cpus),
                "version": repro.__version__,
                "source": _source_fingerprint(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        """Sharded on-disk location of the trace with this key."""
        return self.root / key[:2] / f"{key}.trace"

    # ------------------------------------------------------------------
    # lookup and recording

    def get(self, workload: str, scale: str, n_cpus: int) -> Path | None:
        """Path of the recorded trace, or ``None`` when absent."""
        path = self.path_for(self.key(workload, scale, n_cpus))
        return path if path.is_file() else None

    def get_or_record(
        self,
        workload: str,
        scale: str,
        n_cpus: int,
        progress: Callable[[str], None] | None = None,
    ) -> Path:
        """The recorded trace, recording it first on a miss."""
        key = self.key(workload, scale, n_cpus)
        path = self.path_for(key)
        if path.is_file():
            self.metrics.counter("hits").inc()
            obs_bus.emit("trace.hit", key=key, workload=workload)
        else:
            self.metrics.counter("misses").inc()
            if progress is not None:
                progress(
                    f"[record] {workload}/{scale}/{n_cpus}cpu "
                    f"on {REFERENCE_ARCH}"
                )
            path = self.record(workload, scale, n_cpus)
        return path

    def record(self, workload: str, scale: str, n_cpus: int) -> Path:
        """Record ``workload`` on the reference machine and store it.

        One ordinary interpreter run of the generated workload on
        :data:`REFERENCE_ARCH`, wrapped in the
        :class:`~repro.trace.recorder.TraceRecorder`; the recorder's
        per-CPU columns are written out as the canonical text trace
        (atomic rename, so concurrent recorders of the same key never
        tear the file) and, while they are still in memory, packed and
        published as the decode cache
        (:func:`~repro.trace.kernel.seed_packed`) — the first replay of
        a fresh recording, in this process or another, never parses
        the text.
        """
        from repro.core.configs import config_for_scale
        from repro.core.runner import Job
        from repro.core.system import System
        from repro.mem.functional import FunctionalMemory
        from repro.trace.kernel import PackedTrace, seed_packed
        from repro.trace.recorder import record_run

        key = self.key(workload, scale, n_cpus)
        factory = Job(
            arch=REFERENCE_ARCH, workload=workload
        ).resolve_factory()
        functional = FunctionalMemory()
        built = factory(n_cpus, functional, scale)
        config = config_for_scale(scale, n_cpus)
        system = System(
            REFERENCE_ARCH,
            built,
            cpu_model=REFERENCE_CPU_MODEL,
            mem_config=config,
        )
        started = time.perf_counter()
        recorder = record_run(system)
        wall = time.perf_counter() - started
        if system.truncated:
            raise ReproError(
                f"reference recording of {workload}/{scale} truncated; "
                "the trace would be partial"
            )

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        count = recorder.save(tmp)
        # The decode cache is keyed on the text file's size and mtime,
        # both of which the rename preserves. Taken from our own file,
        # not from ``path`` afterwards: a concurrent recorder of the
        # same key may replace the (byte-identical) text at any moment,
        # and then the worst a mismatched key costs is one re-parse.
        stat = tmp.stat()
        tmp.replace(path)
        packed = PackedTrace.from_columns(recorder.kinds, recorder.addrs)
        sidecar_bytes = seed_packed(path, stat, packed)
        meta = {
            "key": key,
            "spec": self.spec(workload, scale, n_cpus),
            "version": repro.__version__,
            "records": count,
            "reference_cycles": system.stats.cycles,
            "record_wall_seconds": wall,
        }
        meta_tmp = path.parent / f".{path.name}.meta.{os.getpid()}.tmp"
        meta_tmp.write_text(json.dumps(meta, sort_keys=True, indent=2))
        meta_tmp.replace(path.with_suffix(".json"))
        self.metrics.counter("records").inc()
        self.metrics.counter("bytes_written").inc(
            stat.st_size + sidecar_bytes
        )
        obs_bus.emit(
            "trace.record",
            key=key,
            workload=workload,
            records=count,
            record_wall_seconds=wall,
        )
        return path
