"""Content-addressed on-disk storage for checkpoints.

A checkpoint is a JSON document (see :mod:`repro.ckpt.snapshot`). The
store writes it as canonical JSON, gzip-compressed with a zeroed
timestamp so identical state always produces identical bytes, and names
the blob by the SHA-256 of the *uncompressed* JSON:

.. code-block:: none

    <root>/ab/abcdef1234....json.gz     # the blob
    <root>/latest/<key>.json            # per-job "latest" pointer

The digest doubles as this facade's integrity check over
:class:`~repro.core.store.ArtifactStore`: every read re-hashes the
decompressed bytes, so a damaged blob is evicted and surfaces as a
:class:`~repro.errors.CheckpointError`, never as a wrong resume — and
a job resuming *on its own* restarts from cycle 0 instead
(:meth:`CheckpointStore.latest`).
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import re
from pathlib import Path

from repro.core.store import ArtifactStore, counted
from repro.errors import ArtifactMiss, CheckpointError
from repro.obs import bus as obs_bus

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_KEY_SANITIZE_RE = re.compile(r"[^A-Za-z0-9._=-]+")


def _canonical_bytes(state: dict) -> bytes:
    """Compact JSON encoding; the digest is computed over these bytes."""
    return json.dumps(state, separators=(",", ":")).encode("utf-8")


def sanitize_key(key: str) -> str:
    """A job key reduced to a safe filename component."""
    return _KEY_SANITIZE_RE.sub("_", key)


class CheckpointStore(ArtifactStore):
    """Directory of content-addressed checkpoint blobs.

    Counted as ``saves``/``loads``/``dedups`` plus bytes in both
    directions and, with a batch bus current, emitted as ``ckpt.*``
    events — including from pool workers, where periodic mid-run
    checkpoints actually happen.
    """

    kind = "ckpt"
    suffix = ".json.gz"

    saves = counted("saves")
    loads = counted("loads")

    # ------------------------------------------------------------------
    # blobs

    def _verified(self, digest: str) -> bytes:
        """The canonical JSON of blob ``digest``, held to its name."""

        def check(blob: bytes) -> bytes:
            raw = gzip.decompress(blob)
            actual = hashlib.sha256(raw).hexdigest()
            if actual != digest:
                raise ValueError(f"fails its content hash (got {actual})")
            return raw

        return self.read(self.path(digest), check)

    def save(self, state: dict, key: str | None = None) -> str:
        """Write ``state``; returns its digest.

        A blob already there is kept only if it still verifies (a
        damaged one is evicted and rewritten). With ``key`` given, the
        per-key "latest" pointer moves to the blob after the blob is
        published, so a resume never sees a pointer ahead of its blob.
        """
        raw = _canonical_bytes(state)
        digest = hashlib.sha256(raw).hexdigest()
        try:
            self._verified(digest)
            deduped = True
        except ArtifactMiss:
            deduped = False
            buffer = io.BytesIO()
            # mtime=0 keeps the compressed bytes deterministic too.
            with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as zf:
                zf.write(raw)
            self.publish(self.path(digest), buffer.getvalue())
            self.count("bytes_written", len(raw))
        self.count("saves")
        if deduped:
            self.count("dedups")
        obs_bus.emit(
            "ckpt.save", digest=digest, bytes=len(raw), deduped=deduped
        )
        if key is not None:
            pointer = {
                "key": key,
                "digest": digest,
                "cycle": state.get("meta", {}).get("cycle", 0),
            }
            self.publish(
                self._latest_path(key), json.dumps(pointer, indent=2)
            )
        return digest

    def load(self, digest: str) -> dict:
        """Read and verify the blob named ``digest``."""
        if not _DIGEST_RE.match(digest):
            raise CheckpointError(f"malformed checkpoint digest {digest!r}")
        try:
            raw = self._verified(digest)
        except ArtifactMiss as miss:
            raise CheckpointError(
                str(miss) if miss.corrupt else f"no checkpoint blob {digest}"
            ) from miss
        self.count("loads")
        self.count("bytes_read", len(raw))
        obs_bus.emit("ckpt.load", digest=digest, bytes=len(raw))
        return json.loads(raw)

    def inspect(self, digest: str) -> dict:
        """The ``meta`` block of a blob (cycle, arch, versions, ...)."""
        state = self.load(digest)
        meta = state.get("meta")
        if not isinstance(meta, dict):
            raise CheckpointError(f"checkpoint {digest} has no meta block")
        return meta

    # ------------------------------------------------------------------
    # latest pointers

    def _latest_path(self, key: str) -> Path:
        return self.root / "latest" / f"{sanitize_key(key)}.json"

    def latest(self, key: str) -> str | None:
        """Digest of the newest *loadable* checkpoint saved under ``key``.

        What a job resuming on its own asks. A pointer is as good as
        its blob: damaged, dangling, or naming a blob that no longer
        verifies, it is dropped and reads as "no checkpoint" — one
        restart from cycle 0, not the same failure at every attempt.
        """
        pointer = self._latest_path(key)

        def check(data: bytes) -> str:
            digest = json.loads(data)["digest"]
            if not (isinstance(digest, str) and _DIGEST_RE.match(digest)):
                raise ValueError("pointer names no digest")
            return digest

        try:
            digest = self.read(pointer, check)
            self._verified(digest)
        except ArtifactMiss:
            self.clear_latest(key)
            return None
        return digest

    def clear_latest(self, key: str) -> None:
        """Drop the latest pointer for ``key`` (job completed)."""
        self._latest_path(key).unlink(missing_ok=True)
