"""Exception hierarchy for the repro simulator.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at the public-API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The simulator reached an impossible or unsupported state."""


class DeadlockError(SimulationError):
    """No CPU made forward progress for an implausibly long time.

    Raised by the run loop when every processor has been stalled (or
    spinning on synchronization variables that can never be released)
    for more than the configured deadlock horizon.
    """

    def __init__(self, cycle: int, detail: str = "") -> None:
        message = f"no forward progress by cycle {cycle}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.cycle = cycle
        self.detail = detail


class WorkloadError(ReproError):
    """A workload definition or its parameters are invalid."""


class CheckpointError(SimulationError):
    """A checkpoint could not be taken, stored, or restored.

    Raised when a snapshot meets state the protocol cannot serialize
    (an unknown component type, a non-empty event queue), when a blob
    fails its content-hash check, or when a restore target does not
    match the checkpoint's recorded configuration.
    """


class ArtifactMiss(ReproError):
    """A store holds no usable artifact under an address.

    ``reason`` is ``None`` when nothing is filed there; otherwise
    (``corrupt``) it says which integrity check what was there failed —
    and that file is already evicted, so the next publish starts clean.
    """

    def __init__(self, message: str, reason: str | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.corrupt = reason is not None


class JobTimeoutError(ReproError):
    """A batch job exceeded its configured wall-clock budget.

    Raised inside the worker (via ``SIGALRM``) so it crosses the
    process boundary as an ordinary exception; the runner records the
    job as timed out instead of retrying it.
    """


class ProtocolError(SimulationError):
    """A cache-coherence invariant was violated."""
