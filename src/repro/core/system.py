"""System assembly and the global run loop.

A :class:`System` is one architecture + one CPU model + one workload.
The run loop advances simulated time cycle by cycle, ticking every CPU
whose ``resume`` time has arrived, in a rotating order so that no CPU
systematically wins ties for shared resources. When every CPU is
stalled, the loop fast-forwards to the earliest resume time — long
memory stalls cost no host time beyond the instructions actually
executed, and neither does a declared spin loop whose next iterations
are already decided: its CPU *parks* (:class:`repro.cpu.base.BaseCpu`,
either model) and the loop here only has to notice when another CPU's
tick changes that.
"""

from __future__ import annotations

import dataclasses

from repro.core.configs import CpuParams, build_memory
from repro.mem.topology import resolve_topology
from repro.cpu.mipsy import MipsyCpu
from repro.cpu.mxs import MxsCpu
from repro.errors import ConfigError, DeadlockError
from repro.mem.cache import EVICT_EPOCH
from repro.mem.functional import NEVER, FunctionalMemory
from repro.mem.hierarchy import MemConfig
from repro.obs import ObsConfig, Observation
from repro.sim.stats import SystemStats
from repro.workloads.base import Workload

#: If no CPU retires an instruction for this many cycles, the workload
#: is livelocked (a synchronization bug) and the run aborts.
DEFAULT_DEADLOCK_HORIZON = 2_000_000


class System:
    """One complete simulated machine bound to a workload."""

    def __init__(
        self,
        arch,
        workload: Workload,
        cpu_model: str = "mipsy",
        mem_config: MemConfig | None = None,
        cpu_params: CpuParams | None = None,
        max_cycles: int | None = None,
        deadlock_horizon: int = DEFAULT_DEADLOCK_HORIZON,
        obs: "ObsConfig | None" = None,
        checkpointing: bool = False,
    ) -> None:
        self.workload = workload
        self.cpu_model = cpu_model
        # A private copy: the model-specific fields set below are this
        # system's, never the caller's.
        config = dataclasses.replace(
            mem_config if mem_config is not None else MemConfig()
        )
        if config.n_cpus != workload.n_cpus:
            raise ConfigError(
                f"memory config has {config.n_cpus} CPUs but the workload "
                f"was built for {workload.n_cpus}"
            )
        # ``arch`` is a topology preset name or an explicit Topology;
        # the resolved spec is the system's architectural identity
        # (reports, cache keys, snapshot metadata).
        self.topology = resolve_topology(arch, config)
        self.arch = self.topology.name
        if cpu_model == "mipsy":
            # Section 4: Mipsy deliberately models the shared L1
            # optimistically (1-cycle hit, no bank contention).
            config.shared_l1_optimistic = True
        elif cpu_model == "mxs":
            config.shared_l1_optimistic = False
        else:
            raise ConfigError(
                f"unknown CPU model {cpu_model!r}; expected 'mipsy' or 'mxs'"
            )
        self.config = config
        self.stats = SystemStats.for_cpus(config.n_cpus)
        self.functional = workload.functional
        self.memory = build_memory(self.topology, config, self.stats)
        self.max_cycles = max_cycles
        self.deadlock_horizon = deadlock_horizon
        #: set when the run stopped at max_cycles instead of completing
        self.truncated = False
        #: True when checkpoint support (thread-program replay
        #: recording) is enabled; required to snapshot or restore
        self.checkpointing = checkpointing
        #: set when run(pause_at=...) stopped at the pause point with
        #: the workload still in flight; the system may be snapshot or
        #: run() again to continue
        self.paused = False
        # Cycle the next run() call starts from (nonzero after a pause
        # or a restore).
        self._cycle = 0

        # CPUs parked on a declared spin loop, and the write count /
        # eviction epoch last looked at while any were.
        self._parked: list = []
        self._spin_seq = 0
        self._spin_epoch = 0
        self._spin_wakes = {"disturbed": 0, "deadline": 0}
        # Whether the current run() has neither a cycle cap nor a pause
        # (only such a run can hang on parked CPUs).
        self._open_ended = False

        # (imported here: the trace package imports the core)
        from repro.trace.replay import TraceCpu, TraceWorkload

        self.cpus = []
        for cpu_id in range(config.n_cpus):
            args = (cpu_id, self.memory, self.functional, self.stats)
            if cpu_model == "mxs":
                cpu = MxsCpu(
                    *args,
                    workload.program(cpu_id),
                    params=cpu_params or CpuParams(),
                )
            elif isinstance(workload, TraceWorkload):
                # A trace is a program source: the CPU reads its
                # columns, no generator in between.
                cpu = TraceCpu(*args, workload.packed)
            else:
                cpu = MipsyCpu(*args, workload.program(cpu_id))
            cpu._spin_parked = self._parked
            self.cpus.append(cpu)
        if checkpointing:
            for cpu in self.cpus:
                cpu.enable_ckpt_recording()

        #: attached Observation, or None when observability is off
        self.obs = Observation(obs) if obs is not None else None
        if self.obs is not None:
            self.obs.attach(self)

    # ------------------------------------------------------------------

    def run(self, pause_at: int | None = None) -> SystemStats:
        """Run the workload to completion; returns the statistics.

        ``pause_at`` stops the loop at the first iteration whose cycle
        is >= that value (checkpoint support): the system sets
        :attr:`paused`, folds the batched counters, and returns the
        (partial) statistics without finalizing the run. Calling
        :meth:`run` again continues exactly where the loop stopped — the
        resumed iteration re-derives the same rotation, sampling and
        fast-forward decisions an uninterrupted run would have made, so
        a paused-and-resumed run is cycle-for-cycle identical.
        """
        cycle = self._cycle
        self.paused = False
        active = [cpu for cpu in self.cpus if not cpu.done]
        n_cpus = len(self.cpus)
        # Watchdog baselines re-derive from the stats (they never touch
        # simulated state, so a pause/resume boundary cannot perturb
        # the simulation through them).
        last_progress_cycle = cycle
        last_instruction_count = sum(cpu.instructions for cpu in self.cpus)
        pause = pause_at if pause_at is not None else 1 << 62
        self._open_ended = pause_at is None and self.max_cycles is None
        # The watchdog needs no per-cycle precision; checking it every
        # so often keeps sums out of the hot loop.
        watchdog_stride = 4096
        next_watchdog = cycle + watchdog_stride
        huge = 1 << 62
        max_cycles = self.max_cycles if self.max_cycles is not None else huge
        parked = self._parked
        obs = self.obs
        sampler = obs.sampler if obs is not None else None
        next_sample = sampler.next_boundary if sampler is not None else huge
        # Batching models may retire instructions ahead of the loop but
        # never at or past a truncation, pause or sample boundary — the
        # batched and unbatched instruction streams must be identical up
        # to each.
        horizon = self._set_horizon(min(pause, max_cycles, next_sample))

        # Precompute the per-rotation tick orders: the inner loop then
        # walks a ready-made list instead of doing modular index
        # arithmetic per CPU per cycle. Rebuilt whenever ``active``
        # changes (rare — only when a CPU finishes).
        n_active = len(active)
        orders = [
            [active[(index + r) % n_active] for index in range(n_active)]
            for r in range(n_cpus)
        ] if active else []

        while active:
            # Truncation is checked before any work so a max_cycles
            # landing inside a fast-forward window stops the run before
            # any CPU ticks past the limit (and before the watchdog can
            # mistake the jump for a deadlock).
            if cycle >= max_cycles:
                if self.max_cycles is None:
                    # Only parked CPUs with nothing pending sleep this
                    # long: every live CPU waits on a word nobody will
                    # write. (Stepped, they would retire instructions
                    # forever and the watchdog would call it progress.)
                    raise self._spin_deadlock()
                self._spin_release(horizon)
                self.truncated = True
                break

            # Pause before this cycle does any work: the resumed loop
            # re-runs the whole iteration (obs sampling, CPU ticks)
            # exactly as an uninterrupted run would.
            if cycle >= pause:
                self._spin_release(horizon)
                self.paused = True
                break

            if cycle >= next_sample:
                # A sample boundary is a horizon like the pause: parked
                # CPUs settle to it, so every sampled counter reads what
                # a stepped run shows there. Unless it is the only thing
                # they wait for: then the run hangs as it would with no
                # boundary (their settled iterations are no progress).
                if self._spin_hung():
                    raise self._spin_deadlock()
                self._spin_release(horizon)
                next_sample = sampler.sample_until(cycle)
                horizon = self._set_horizon(
                    min(pause, max_cycles, next_sample)
                )

            if cycle >= next_watchdog:
                next_watchdog = cycle + watchdog_stride
                # Deadlock watchdog: progress means retired instructions.
                total_instructions = sum(
                    cpu.instructions for cpu in self.cpus
                )
                if total_instructions > last_instruction_count:
                    last_instruction_count = total_instructions
                    last_progress_cycle = cycle
                elif cycle - last_progress_cycle > self.deadlock_horizon:
                    raise DeadlockError(
                        cycle,
                        detail=(
                            f"{len(active)} CPUs spinning, "
                            f"{total_instructions} instructions retired"
                        ),
                    )

            # Inner hot loop: run straight cycles up to the nearest
            # boundary (truncation, pause, watchdog, sample), which the
            # outer iteration re-checks — each boundary still lands
            # before its cycle does any work, exactly as when every
            # check sat in the per-cycle path.
            bound = max_cycles
            if pause < bound:
                bound = pause
            if next_watchdog < bound:
                bound = next_watchdog
            if next_sample < bound:
                bound = next_sample
            while cycle < bound:
                finished = False
                # Tick every ready CPU; collect the earliest resume of
                # the still-running ones in the same pass (the values
                # are final once each CPU has ticked).
                earliest = huge
                order = orders[cycle % n_cpus]
                for cpu in order:
                    # (A CPU leaves ``orders`` in the cycle it finishes.)
                    if cpu.resume <= cycle:
                        if parked:
                            woken = self._spin_tick(cpu, cycle, order)
                            if woken < earliest:
                                earliest = woken
                        else:
                            cpu.tick(cycle)
                        if cpu.done:
                            finished = True
                            continue
                    resume = cpu.resume
                    if resume < earliest:
                        earliest = resume
                if finished:
                    active = [cpu for cpu in active if not cpu.done]
                    if not active:
                        break
                    n_active = len(active)
                    orders = [
                        [
                            active[(index + r) % n_active]
                            for index in range(n_active)
                        ]
                        for r in range(n_cpus)
                    ]

                # Fast-forward to the next cycle anyone can progress.
                next_cycle = cycle + 1
                if earliest > next_cycle:
                    next_cycle = earliest
                cycle = next_cycle
            if not active:
                break

        # Fold the CPUs' batched hot-loop counters into the stats
        # before anything reads them (truncated runs skip finish()).
        self._cycle = cycle
        for cpu in self.cpus:
            cpu.flush_stats()
        if self.paused:
            # Mid-run stop: leave everything in flight (no finish(),
            # no end-cycle accounting, no validation) so the run can
            # be snapshot and/or continued.
            return self.stats
        end_cycle = max((cpu.resume for cpu in self.cpus), default=cycle)
        end_cycle = max(end_cycle, self.memory.drain(cycle))
        if not self.truncated:
            # In-flight-state invariants only hold for completed runs.
            for cpu in self.cpus:
                cpu.finish(end_cycle)
        self.stats.cycles = end_cycle
        self.stats.instructions = sum(cpu.instructions for cpu in self.cpus)
        if obs is not None:
            obs.finalize(end_cycle, self.stats.instructions)
        if not self.truncated:
            self.workload.validate()
        return self.stats

    def _set_horizon(self, horizon: int) -> int:
        """Point every CPU's batch horizon at ``horizon``; returns it."""
        for cpu in self.cpus:
            cpu._batch_horizon = horizon
        return horizon

    # ------------------------------------------------------------------
    # parked spin loops (see repro.cpu.base)

    def _spin_tick(self, cpu, cycle: int, order: list) -> int:
        """Tick ``cpu`` at ``cycle`` while some CPU is parked.

        A parked ``cpu`` has reached its deadline: it is settled up to
        ``cycle`` and issues this iteration for real. After the tick,
        if a write was recorded or a line evicted, every parked CPU
        whose line left its L1D or whose word was written is settled
        up to this tick's place in the cycle's rotation ``order`` —
        its iteration at ``cycle`` itself counts only if its slot came
        first — and woken. Returns the earliest resume among woken
        CPUs the rotation already passed (the caller's running minimum
        missed them), else ``NEVER``.
        """
        parked = self._parked
        if cpu._spin_base >= 0:
            cpu.spin_wake(cycle)
            parked.remove(cpu)
            self._spin_wakes["deadline"] += 1
        cpu.tick(cycle)
        if cpu._spin_base >= 0 and self._spin_hung():
            # The last live CPU just parked: a sample boundary need not
            # find them all asleep (one may be handing the value that
            # straddles it to its program), so look now.
            raise self._spin_deadlock()
        woken = NEVER
        seq = self.functional._seq
        epoch = EVICT_EPOCH[0]
        if seq == self._spin_seq and epoch == self._spin_epoch:
            return woken
        wrote = seq != self._spin_seq
        self._spin_seq = seq
        self._spin_epoch = epoch
        for other in parked[:]:
            if other is cpu or not other.spin_disturbed(wrote):
                continue
            passed = order.index(other) < order.index(cpu)
            other.spin_wake(cycle + 1 if passed else cycle)
            parked.remove(other)
            self._spin_wakes["disturbed"] += 1
            if passed and other.resume < woken:
                woken = other.resume
        return woken

    def _spin_release(self, horizon: int) -> None:
        """Wake every parked CPU at a truncation, pause or sample
        boundary, settled to the run's ``horizon`` and never past it.
        (No sleep outlasts the horizon, so with anyone parked the run
        stopped exactly there and the loop reaches each woken CPU's next
        iteration on time.)"""
        for cpu in self._parked:
            cpu.spin_wake(horizon)
        self._parked.clear()

    def _spin_hung(self) -> bool:
        """Every live CPU is parked on a word nothing recorded will
        change, and the run has no cap or pause to stop at: stepped,
        it would retire instructions forever."""
        parked = self._parked
        return (
            self._open_ended
            and len(parked) == sum(not cpu.done for cpu in self.cpus)
            and all(cpu._spin_until == NEVER for cpu in parked)
        )

    def _spin_deadlock(self) -> DeadlockError:
        """Every live CPU is parked with no write pending anywhere."""
        waits = ", ".join(
            f"cpu{cpu.cpu_id} on {cpu._spin_load.addr:#x}"
            for cpu in sorted(self._parked, key=lambda cpu: cpu.cpu_id)
        )
        return DeadlockError(
            max(cpu._spin_base for cpu in self._parked),
            detail=f"every running CPU spins on a word no one will "
                   f"write: {waits}",
        )

    def spin_report(self) -> dict[str, int]:
        """What spin-wait elision did on this run (host-side only;
        never part of ``SystemStats`` or a result payload).

        ``parks``: times a CPU went to sleep on a declared spin;
        ``settled_iterations``: spin iterations accounted for
        arithmetically instead of issued; ``disturbed_wakes`` /
        ``deadline_wakes``: sleeps ended by another CPU's eviction or
        write, against those that ran to the cycle the sleeper chose.
        """
        return {
            "parks": sum(cpu.spin_parks for cpu in self.cpus),
            "settled_iterations": sum(cpu.spin_settled for cpu in self.cpus),
            "disturbed_wakes": self._spin_wakes["disturbed"],
            "deadline_wakes": self._spin_wakes["deadline"],
        }
