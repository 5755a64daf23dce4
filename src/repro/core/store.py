"""The one artifact store under the result cache, checkpoints and traces.

All three are files named by a content address; what they share lives
here and nowhere else in the package (failure-mode table: ``DESIGN.md``,
"Platform shell"):

* :func:`address` — SHA-256 over spec + package version + source
  fingerprint — and the ``<root>/<key[:2]>/<key><suffix>`` layout;
* :func:`publish` — a uniquely named tmp renamed into place under the
  shard directory's advisory lock: readers never see a torn file, a
  killed publisher leaves only its tmp. Durability is the rename's
  atomicity; nothing here calls ``fsync``, so a power loss may cost
  the newest artifacts (all re-derivable), never tear one;
* :func:`read_verified` — a read held to its store's own check; what
  fails is evicted, counted, emitted as ``<kind>.evict`` and raised as
  a typed :class:`~repro.errors.ArtifactMiss`: corruption costs one
  re-derivation instead of wedging whatever keeps reading it;
* :class:`ArtifactStore` — root, counters, ``stats()``, ``disk_stats()``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import zlib
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterable

import repro
from repro.errors import ArtifactMiss
from repro.obs import bus as obs_bus
from repro.obs.registry import Registry

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX hosts
    fcntl = None


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR``, else XDG cache dir."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-isca96"


@functools.cache
def source_fingerprint() -> str:
    """Digest of the installed package source (path, size, mtime).

    Part of every address: editing any module under ``repro``
    invalidates every store, so a stale artifact can never shadow a
    code change — without requiring a version bump per edit.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        stat = path.stat()
        digest.update(
            f"{path.relative_to(root)}:{stat.st_size}:"
            f"{stat.st_mtime_ns}\n".encode("utf-8")
        )
    return digest.hexdigest()


def address(spec: dict) -> str:
    """Content address of the artifact ``spec`` describes."""
    document = {
        "spec": spec,
        "version": repro.__version__,
        "source": source_fingerprint(),
    }
    payload = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: tmp names are unique per call: two threads never share one
_SERIAL = itertools.count()


@contextmanager
def _publishing(path: Path):
    """Hold the advisory lock of ``path``'s publishers: ``flock`` on
    the directory it lives in. One lock per shard, so publishers of
    one key always contend for the same one, and no lock file to
    create, race on or leave behind — not even by a killed publisher.
    Where a directory cannot be locked (no ``fcntl``, some network
    filesystems) publishing relies on the rename's atomicity alone."""
    if fcntl is None:
        yield
        return
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        with suppress(OSError):
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # drops the flock


def publish(
    path: Path, data: bytes | str | Callable[[Path], object]
) -> os.stat_result:
    """Atomically make ``data`` the content of ``path``.

    ``data`` is bytes, text (stored as UTF-8), or a callable that
    writes the tmp file it is handed (and must not publish itself: the
    directory is locked). Returns the ``stat`` of what was written,
    taken before the rename preserves it — ``path`` itself may be
    another publisher's by the time one looks. Raises ``OSError`` (full
    disk, read-only root) with nothing published and the tmp removed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_SERIAL)}.tmp")
    with _publishing(path):
        try:
            if callable(data):
                data(tmp)
            else:
                tmp.write_bytes(
                    data.encode("utf-8") if isinstance(data, str) else data
                )
            stat = tmp.stat()
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise
    return stat


def read_document(path: Path) -> dict:
    """The JSON object at ``path``, or ``{}`` when it cannot be read:
    a lost manifest costs re-done work, never a failed batch."""
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


#: what a failed check raises: gzip (``OSError``, ``EOFError``,
#: ``zlib.error``), JSON or a mismatch (``ValueError``), shape (the rest)
_UNUSABLE = (OSError, EOFError, zlib.error, ValueError, KeyError, TypeError)


def read_verified(
    path: Path,
    check: Callable[[bytes], object],
    kind: str,
    metrics: Registry | None = None,
    also: Iterable[Path] = (),
):
    """``check(path's bytes)``, or a typed miss.

    ``check`` decodes and verifies, raising when the bytes are not what
    its store published there. A file that fails it (or cannot be
    read) is evicted with the ``also`` files worthless without it,
    counted, emitted as ``<kind>.evict`` and raised as an
    :class:`~repro.errors.ArtifactMiss` with a ``reason``; an absent
    file is one without.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ArtifactMiss(f"no {kind} artifact {path.name}") from None
    except OSError as error:
        failure: Exception = error
    else:
        try:
            return check(data)
        except _UNUSABLE as error:
            failure = error
    reason = f"{type(failure).__name__}: {failure}"
    if metrics is not None:
        metrics.counter("evictions").inc()
    obs_bus.emit(f"{kind}.evict", file=path.name, reason=reason)
    for victim in (path, *also):
        with suppress(OSError):
            victim.unlink()
    raise ArtifactMiss(
        f"{kind} artifact {path.name} is unusable ({reason}); evicted",
        reason=reason,
    ) from failure


def counted(name: str) -> property:
    """A read-only view of a store instance's counter ``name``."""
    return property(lambda store: store.metrics.counter(name).value)


class ArtifactStore:
    """A directory of content-addressed files plus traffic counters.

    A facade names its bus-event prefix (``kind``) and its artifact's
    ``suffix`` and builds typed operations on :meth:`publish` and
    :meth:`read`. Every instance counts its own traffic, bus or not:
    ``evictions`` and ``publish_errors`` here, operations in the facade.
    """

    kind: str
    suffix: str
    default_root: Callable[[], Path]  # the root when none is given

    evictions = counted("evictions")
    publish_errors = counted("publish_errors")

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root else self.default_root()
        self.metrics = Registry()

    def path(self, key: str) -> Path:
        """Sharded location of the artifact addressed ``key``."""
        return self.root / key[:2] / f"{key}{self.suffix}"

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to this instance's counter ``name``."""
        self.metrics.counter(name).inc(amount)

    def publish(self, path: Path, data) -> os.stat_result:
        """:func:`publish`, with a failure counted before it is raised."""
        try:
            return publish(path, data)
        except OSError:
            self.count("publish_errors")
            raise

    def read(self, path: Path, check, also: Iterable[Path] = ()):
        """:func:`read_verified` on this store's counters and bus kind."""
        return read_verified(path, check, self.kind, self.metrics, also)

    def stats(self) -> dict:
        """Counter snapshot for reports, rollups and ``/v1/metrics``."""
        return {
            name: counter.value
            for name, counter in sorted(self.metrics.counters.items())
        }

    def disk_stats(self) -> dict:
        """Scan the on-disk store: entry count, bytes, age span.

        Unlike :meth:`stats` (this instance's traffic) this inspects
        the shared directory — what ``repro cache stats`` shows. Only
        published artifacts count: a dead publisher's tmp is no entry.
        """
        found = []
        for entry in self.root.glob(f"??/[!.]*{self.suffix}"):
            with suppress(OSError):  # racing eviction
                found.append(entry.stat())
        mtimes = [stat.st_mtime for stat in found]
        return {
            "root": str(self.root),
            "entries": len(found),
            "bytes": sum(stat.st_size for stat in found),
            "oldest_mtime": min(mtimes, default=None),
            "newest_mtime": max(mtimes, default=None),
        }
