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

A facade over :class:`~repro.core.store.ArtifactStore`:
``<key>.trace``, the hidden ``.packed`` decode sidecar replay
loads, and — published last, so its presence says the others
are complete — a ``.json`` meta with the text's byte count and
SHA-256, which :meth:`TraceStore.get` and :func:`check_text` hold the
text to, so a damaged trace is recorded again instead of replaying as
a different workload. The default root lives *beside* the result cache
(``<cache>/traces``): ``--no-cache`` does not discard recorded traces.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import repro
from repro.core.store import (
    ArtifactStore,
    address,
    counted,
    default_cache_dir,
    read_verified,
)
from repro.errors import ArtifactMiss, ConfigError, ReproError
from repro.obs import bus as obs_bus

if TYPE_CHECKING:
    from repro.trace.kernel import PackedTrace

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
    return default_cache_dir() / "traces"


def _files(path: Path) -> Iterator[Path]:
    """Everything filed for the trace at ``path``: text, meta, and a
    decode sidecar per CPU count it was packed for. Evicted together
    (lazily: the directory is only scanned if it comes to that)."""
    yield path
    yield path.with_suffix(".json")
    yield from path.parent.glob(f".{path.name}.*.packed")


def _sha256_of(path: Path) -> str:
    """Digest of a file too big to want in memory whole."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_text(path: Path) -> None:
    """Hold the trace text at ``path`` to the SHA-256 in its meta.

    For whoever is about to parse it. A trace without a meta is no
    store's and has nothing to be held to; one that fails is evicted
    and raised as a corrupt :class:`~repro.errors.ArtifactMiss` — the
    next ``get_or_record`` records it afresh.
    """
    meta = path.with_suffix(".json")
    if not meta.is_file():
        return

    def check(text: bytes) -> None:
        claimed = json.loads(meta.read_bytes())["sha256"]
        if hashlib.sha256(text).hexdigest() != claimed:
            raise ValueError("text fails the content hash in its meta")

    read_verified(path, check, "trace", also=_files(path))


class TraceStore(ArtifactStore):
    """On-disk, content-addressed trace artifacts.

    Counted as ``hits``/``misses``/``records`` plus bytes written at
    record time (text and sidecar) and, with a batch bus current,
    emitted as ``trace.*`` events.
    """

    kind = "trace"
    suffix = ".trace"
    default_root = staticmethod(default_trace_dir)

    hits = counted("hits")
    records = counted("records")

    # ------------------------------------------------------------------
    # identity

    def spec(
        self, workload: str, scale: str, n_cpus: int, workload_args=None
    ) -> dict:
        """The canonical description of one recorded trace
        (``workload_args``: a parameterised workload's
        :attr:`~repro.core.runner.Job.workload_args`)."""
        if not isinstance(workload, str):
            raise ConfigError(
                "a trace is keyed by its workload's registry name; got "
                f"{workload!r}"
            )
        return {
            "kind": "trace",
            "format": TRACE_FORMAT_VERSION,
            "workload": workload,
            "workload_args": dict(sorted((workload_args or {}).items())),
            "scale": scale,
            "n_cpus": n_cpus,
            "recorded_with": {
                "arch": REFERENCE_ARCH,
                "cpu_model": REFERENCE_CPU_MODEL,
            },
        }

    def key(
        self, workload: str, scale: str, n_cpus: int, workload_args=None
    ) -> str:
        """SHA-256 content address of one trace artifact."""
        return address(self.spec(workload, scale, n_cpus, workload_args))

    # ------------------------------------------------------------------
    # lookup and recording

    def get(
        self, workload: str, scale: str, n_cpus: int, workload_args=None
    ) -> Path | None:
        """Path of the recorded trace, or ``None`` when there is none.

        Recorded means: the meta is there, claims this address, and the
        text is the size it says. Anything less is evicted — except a
        text whose meta is not there *yet* (its recorder is mid-way).
        """
        key = self.key(workload, scale, n_cpus, workload_args)
        path = self.path(key)

        def check(data: bytes) -> None:
            meta = json.loads(data)
            if (meta["key"], meta["bytes"]) != (key, path.stat().st_size):
                raise ValueError("text is not what its meta recorded")

        try:
            self.read(path.with_suffix(".json"), check, _files(path))
        except ArtifactMiss:
            return None
        return path

    def resolve(
        self, workload: str, scale: str, n_cpus: int, workload_args=None
    ) -> tuple[Path, PackedTrace]:
        """The recorded trace and its packed columns, recording it
        first on a miss. The trace is keyed by the workload (and its
        arguments), scale and CPU count only, so every point of a sweep
        shares one recording."""
        from repro.trace.kernel import load_packed

        try:
            path = self.get_or_record(workload, scale, n_cpus, workload_args)
            return path, load_packed(n_cpus, path)
        except ArtifactMiss:
            # The text failed its digest where load_packed went to
            # parse it and is evicted already: record it afresh, once.
            path = self.get_or_record(workload, scale, n_cpus, workload_args)
            return path, load_packed(n_cpus, path)

    def get_or_record(
        self, workload: str, scale: str, n_cpus: int, workload_args=None
    ) -> Path:
        """The recorded trace, recording it first on a miss."""
        path = self.get(workload, scale, n_cpus, workload_args)
        if path is None:
            self.count("misses")
            return self.record(workload, scale, n_cpus, workload_args)
        self.count("hits")
        obs_bus.emit("trace.hit", key=path.stem, workload=workload)
        return path

    def record(
        self, workload: str, scale: str, n_cpus: int, workload_args=None
    ) -> Path:
        """Record ``workload`` on the reference machine and store it.

        One ordinary interpreter run of the generated workload on
        :data:`REFERENCE_ARCH` under a
        :class:`~repro.trace.recorder.TraceRecorder`, whose per-CPU
        columns are published as the canonical text and, while still
        in memory, packed and published as the decode cache
        (:func:`~repro.trace.kernel.seed_packed`): the first replay of
        a fresh recording never parses the text. The meta goes last.
        """
        from repro.core.runner import Job
        from repro.core.system import System
        from repro.mem.functional import FunctionalMemory
        from repro.trace.kernel import PackedTrace, seed_packed
        from repro.trace.recorder import record_run

        spec = self.spec(workload, scale, n_cpus, workload_args)
        key = address(spec)
        job = Job(
            REFERENCE_ARCH, workload, scale=scale, n_cpus=n_cpus,
            workload_args=workload_args or {},
        )
        system = System(
            REFERENCE_ARCH,
            job.resolve_factory()(n_cpus, FunctionalMemory(), scale),
            cpu_model=REFERENCE_CPU_MODEL,
            mem_config=job.mem_config(),
        )
        started = time.perf_counter()
        recorder = record_run(system)
        wall = time.perf_counter() - started
        if system.truncated:
            raise ReproError(
                f"reference recording of {workload}/{scale} truncated; "
                "the trace would be partial"
            )

        path = self.path(key)
        # The decode cache is keyed on the size and mtime of the text
        # *we* wrote: a concurrent recorder of the same key may replace
        # the (byte-identical) text at any moment, and then the worst a
        # mismatched key costs is one re-parse.
        stat = self.publish(path, recorder.save)
        packed = PackedTrace.from_columns(recorder.kinds, recorder.addrs)
        sidecar_bytes = seed_packed(path, stat, packed)
        meta = {
            "key": key,
            "spec": spec,
            "version": repro.__version__,
            "records": len(recorder),
            "bytes": stat.st_size,
            "sha256": _sha256_of(path),
            "reference_cycles": system.stats.cycles,
            "record_wall_seconds": wall,
        }
        self.publish(
            path.with_suffix(".json"),
            json.dumps(meta, sort_keys=True, indent=2),
        )
        self.count("records")
        self.count("bytes_written", stat.st_size + sidecar_bytes)
        obs_bus.emit(
            "trace.record",
            key=key,
            workload=workload,
            records=len(recorder),
            record_wall_seconds=wall,
        )
        return path

