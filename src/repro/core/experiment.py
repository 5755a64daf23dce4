"""The record of one simulation: what a run returns and the cache keeps.

One workload on one architecture under one CPU model is described and
run by :class:`repro.core.runner.Job`; the paper's matrix of such runs
(Figures 4-10 against the shared-memory baseline, Figure 11 in
absolute IPC) is :mod:`repro.core.sweeps` and :mod:`repro.core.paper`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.mem.functional import FunctionalMemory
from repro.sim.stats import SystemStats
from repro.workloads.base import Workload

#: A workload factory: builds a fresh workload bound to a functional
#: memory, at a given scale.
WorkloadFactory = Callable[[int, FunctionalMemory, str], Workload]


@dataclass
class ExperimentResult:
    """One (architecture, workload, CPU model) simulation outcome."""

    arch: str
    workload: str
    cpu_model: str
    scale: str
    stats: SystemStats
    wall_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def machine_ipc(self) -> float:
        """Aggregate graduated instructions per machine cycle."""
        return self.stats.ipc

    @property
    def per_cpu_ipc(self) -> float:
        """Mean IPC per CPU (the paper's Figure 11 axis, ideal = 2)."""
        mxs_list = [m for m in self.stats.mxs if m.cycles]
        if not mxs_list:
            return 0.0
        return sum(m.ipc for m in mxs_list) / len(mxs_list)

    def to_dict(self) -> dict:
        """A JSON-serializable dump of this run.

        The top-level keys are the human-facing summary (aggregate
        breakdown, pooled miss rates, IPC) that tooling has always
        consumed; the ``stats`` key carries the complete
        :meth:`SystemStats.to_dict` state so :meth:`from_dict` can
        reconstruct an equivalent result — the round-trip the runner's
        on-disk cache and cross-process transport rely on.
        """
        breakdown = self.stats.aggregate_breakdown()
        l1 = self.stats.aggregate_caches(".l1d")
        l2 = self.stats.aggregate_caches(".l2")
        summary = {
            "arch": self.arch,
            "workload": self.workload,
            "cpu_model": self.cpu_model,
            "scale": self.scale,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "machine_ipc": self.machine_ipc,
            "breakdown": breakdown.as_dict(),
            "l1d": {
                "accesses": l1.accesses,
                "miss_rate_repl": l1.miss_rate_repl,
                "miss_rate_inval": l1.miss_rate_inval,
            },
            "l2": {
                "accesses": l2.accesses,
                "miss_rate_repl": l2.miss_rate_repl,
                "miss_rate_inval": l2.miss_rate_inval,
            },
            "wall_seconds": self.wall_seconds,
            "extras": {
                key: value
                for key, value in self.extras.items()
                if key
                in ("resources", "truncated", "sync", "obs", "backend", "replay")
            },
            "stats": self.stats.to_dict(),
        }
        if self.cpu_model == "mxs":
            summary["per_cpu_ipc"] = self.per_cpu_ipc
            summary["mxs"] = [
                {
                    "ipc": m.ipc,
                    "branches": m.branches,
                    "mispredicts": m.mispredicts,
                    "ipc_loss": m.ipc_loss(),
                }
                for m in self.stats.mxs
                if m.cycles
            ]
        return summary

    def to_json(self, **kwargs) -> str:
        """The :meth:`to_dict` summary, JSON-encoded."""
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from a :meth:`to_dict` payload.

        Only the identity fields and the full ``stats`` state are read;
        the summary keys are derived and recomputed on demand, so a
        round-tripped result reports byte-identical numbers.
        """
        return cls(
            arch=data["arch"],
            workload=data["workload"],
            cpu_model=data["cpu_model"],
            scale=data["scale"],
            stats=SystemStats.from_dict(data["stats"]),
            wall_seconds=data.get("wall_seconds", 0.0),
            extras=dict(data.get("extras", {})),
        )
