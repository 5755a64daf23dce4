"""Versioned snapshot/restore of a paused :class:`~repro.core.system.System`.

A checkpoint captures everything a resumed process needs to continue a
run cycle-for-cycle identically: engine clock and sequence counter,
statistics, the timed functional memory, every memory-system component
(cache arrays with exact LRU order, coherence directory state, busy
timelines, write buffers, in-flight crossbar/bus state), per-CPU
architectural state for both models, synchronization-primitive
counters, and — when observability is attached — the full telemetry
state (registry, sampler series, event timeline, run log).

Thread programs are live generators and cannot be serialized. They are
captured as a *replay log* instead (see
:meth:`repro.cpu.base.BaseCpu.enable_ckpt_recording`): the number of
instructions pulled so far plus every value the harness sent back in.
``restore_system`` re-advances a fresh workload's generators through
the same sequence; because thread programs are deterministic functions
of the values they receive, the replayed generators land in the
identical suspended state — including all workload-side Python state
(task cursors, result arrays, barrier senses) that lives in the
generator frames.

The hard contract, enforced by ``tests/test_ckpt.py`` for every
architecture × CPU model: *run-to-end* and *pause → snapshot → restore
in a fresh process → run-to-end* produce bit-identical
:class:`~repro.sim.stats.SystemStats`.
"""

from __future__ import annotations

from repro.errors import CheckpointError
from repro.cpu.mxs.funits import UNITS
from repro.isa.instructions import FU_KINDS, Instruction, OpClass
from repro.mem.bank import BankedResource, Resource
from repro.mem.bus import SnoopyBus
from repro.mem.cache import CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import Crossbar, MultistageCrossbar
from repro.mem.mainmem import MainMemory
from repro.mem.writebuffer import WriteBuffer
from repro.sim.stats import CycleBreakdown, MxsStats

#: Snapshot wire-format identifier; bumped on any incompatible change.
SNAPSHOT_FORMAT = "repro.ckpt/1"

_MXS_STATS_FIELDS = (
    "cycles",
    "graduated",
    "slots_lost_icache",
    "slots_lost_dcache",
    "slots_lost_pipeline",
    "fetched",
    "branches",
    "mispredicts",
    "squashed",
    "issued",
    "window_occupancy_sum",
    "fetch_stall_cycles",
)

_CACHE_STATS_FIELDS = (
    "reads",
    "writes",
    "read_misses_repl",
    "read_misses_inval",
    "write_misses_repl",
    "write_misses_inval",
    "writebacks",
    "evictions",
    "invalidations_received",
    "updates_received",
    "write_throughs",
)


# ---------------------------------------------------------------------------
# instructions


def _encode_inst(inst: Instruction) -> list:
    return [
        int(inst.op),
        inst.pc,
        inst.addr,
        inst.taken,
        inst.target,
        inst.want_value,
        inst.value,
        inst.src1,
        inst.src2,
    ]


def _decode_inst(data: list) -> Instruction:
    return Instruction(
        OpClass(data[0]),
        pc=data[1],
        addr=data[2],
        taken=data[3],
        target=data[4],
        want_value=data[5],
        value=data[6],
        src1=data[7],
        src2=data[8],
    )


# ---------------------------------------------------------------------------
# memory-system components (what MemorySystem.components() declares)


def _encode_resource(res: Resource) -> list:
    return [res.next_free, res.busy_cycles, res.requests, res.wait_cycles]


def _restore_resource(res: Resource, data: list) -> None:
    res.next_free, res.busy_cycles, res.requests, res.wait_cycles = data


def _encode_component(value):
    """Serialize one declared memory component (type-dispatched)."""
    if value is None:
        return None
    if isinstance(value, list):
        return [_encode_component(item) for item in value]
    if isinstance(value, CacheArray):
        # export_sets() emits each set's lines in LRU order — the same
        # order the historical dict-of-lines representation serialized —
        # so the repro.ckpt/1 wire format is unchanged.
        return {
            "sets": value.export_sets(),
            "invalidated": sorted(value.tracker._invalidated),
        }
    if isinstance(value, (Crossbar, MultistageCrossbar)):
        state = {
            "banks": _encode_component(value.banks),
            "ports": [_encode_resource(port) for port in value.ports],
        }
        if value.switches:
            state["switches"] = [
                [_encode_resource(switch) for switch in column]
                for column in value.switches
            ]
        state["wait_cycles"] = value.wait_cycles
        return state
    if isinstance(value, BankedResource):
        return [_encode_resource(bank) for bank in value.banks]
    if isinstance(value, Resource):
        return _encode_resource(value)
    if isinstance(value, WriteBuffer):
        return {
            "pending": list(value._pending),
            "last_visible": value.last_visible,
            "full_stalls": value.full_stalls,
            "stores": value.stores,
        }
    if isinstance(value, MainMemory):
        return {
            "banks": _encode_component(value.banks),
            "reads": value.reads,
            "writes": value.writes,
        }
    if isinstance(value, Directory):
        return {
            "holders": sorted(
                [line, mask] for line, mask in value._holders.items()
            ),
            "invalidations_sent": value.invalidations_sent,
        }
    if isinstance(value, SnoopyBus):
        return {
            "resource": _encode_resource(value.resource),
            "mem_reads": value.mem_reads,
            "c2c_transfers": value.c2c_transfers,
            "upgrades": value.upgrades,
            "writebacks": value.writebacks,
        }
    if isinstance(value, int):
        # Immutable config-derived constants (latencies, occupancies):
        # recorded so a restore can verify the target's geometry.
        return value
    raise CheckpointError(
        f"cannot checkpoint memory component of type {type(value).__name__}"
    )


def _restore_component(value, data) -> None:
    """Restore one component in place (mirror of :func:`_encode_component`)."""
    if value is None:
        if data is not None:
            raise CheckpointError(
                "checkpoint carries state for a component the restore "
                "target does not have (obs configuration mismatch?)"
            )
        return
    if data is None:
        raise CheckpointError(
            f"checkpoint has no state for a live {type(value).__name__}"
        )
    if isinstance(value, list):
        if len(value) != len(data):
            raise CheckpointError(
                f"component list length mismatch: {len(value)} live vs "
                f"{len(data)} checkpointed"
            )
        for item, item_data in zip(value, data):
            _restore_component(item, item_data)
        return
    if isinstance(value, CacheArray):
        sets = data["sets"]
        if len(sets) != value.n_sets:
            raise CheckpointError(
                f"cache {value.name!r} geometry mismatch: "
                f"{value.n_sets} sets live vs {len(sets)} checkpointed"
            )
        # In place: fast-lane probe closures capture the cache's
        # columns by reference; import_sets re-stamps the stored (LRU)
        # order, preserving every future replacement decision.
        value.import_sets(sets)
        # In place too: built paths capture the tracker's set, the
        # write buffer's deque and the directory's dict below.
        invalidated = value.tracker._invalidated
        invalidated.clear()
        invalidated.update(data["invalidated"])
        return
    if isinstance(value, (Crossbar, MultistageCrossbar)):
        _restore_component(value.banks, data["banks"])
        for port, port_data in zip(value.ports, data["ports"]):
            _restore_resource(port, port_data)
        columns = data.get("switches", [])
        if len(columns) != len(value.switches):
            raise CheckpointError(
                f"interconnect stage mismatch: {len(value.switches)} live "
                f"vs {len(columns)} checkpointed"
            )
        for column, column_data in zip(value.switches, columns):
            for switch, switch_data in zip(column, column_data):
                _restore_resource(switch, switch_data)
        value.wait_cycles = data["wait_cycles"]
        return
    if isinstance(value, BankedResource):
        for bank, bank_data in zip(value.banks, data):
            _restore_resource(bank, bank_data)
        return
    if isinstance(value, Resource):
        _restore_resource(value, data)
        return
    if isinstance(value, WriteBuffer):
        value._pending.clear()
        value._pending.extend(data["pending"])
        value.last_visible = data["last_visible"]
        value.full_stalls = data["full_stalls"]
        value.stores = data["stores"]
        return
    if isinstance(value, MainMemory):
        _restore_component(value.banks, data["banks"])
        value.reads = data["reads"]
        value.writes = data["writes"]
        return
    if isinstance(value, Directory):
        value._holders.clear()
        value._holders.update((line, mask) for line, mask in data["holders"])
        value.invalidations_sent = data["invalidations_sent"]
        return
    if isinstance(value, SnoopyBus):
        _restore_resource(value.resource, data["resource"])
        value.mem_reads = data["mem_reads"]
        value.c2c_transfers = data["c2c_transfers"]
        value.upgrades = data["upgrades"]
        value.writebacks = data["writebacks"]
        return
    if isinstance(value, int):
        if value != data:
            raise CheckpointError(
                f"memory constant mismatch: {value} live vs "
                f"{data} checkpointed"
            )
        return
    raise CheckpointError(
        f"cannot restore memory component of type {type(value).__name__}"
    )


def _memory_state(memory) -> dict:
    return {
        name: _encode_component(component)
        for name, component in sorted(memory.components().items())
    }


def _restore_memory(memory, state: dict) -> None:
    for name, component in sorted(memory.components().items()):
        if name not in state:
            raise CheckpointError(
                f"checkpoint has no state for memory component {name!r}"
            )
        _restore_component(component, state[name])


# ---------------------------------------------------------------------------
# statistics


def _stats_restore_in_place(stats, data: dict) -> None:
    """Overwrite ``stats`` field-by-field.

    CPUs and memory systems hold direct references into the stats
    object (``cpu.breakdown`` *is* ``stats.breakdowns[i]``), so the
    containers must be mutated, never replaced.
    """
    if stats.n_cpus != data["n_cpus"]:
        raise CheckpointError(
            f"stats n_cpus mismatch: {stats.n_cpus} live vs "
            f"{data['n_cpus']} checkpointed"
        )
    stats.cycles = data["cycles"]
    stats.instructions = data["instructions"]
    for breakdown, recorded in zip(stats.breakdowns, data["breakdowns"]):
        for name in CycleBreakdown._FIELDS:
            setattr(breakdown, name, recorded[name])
    for mxs, recorded in zip(stats.mxs, data["mxs"]):
        for name in _MXS_STATS_FIELDS:
            setattr(mxs, name, recorded[name])
    live_names = set(stats.caches)
    recorded_names = set(data["caches"])
    if live_names != recorded_names:
        raise CheckpointError(
            "cache-stats name mismatch between checkpoint and restore "
            f"target: only-live={sorted(live_names - recorded_names)} "
            f"only-checkpoint={sorted(recorded_names - live_names)}"
        )
    for name, recorded in data["caches"].items():
        cache_stats = stats.caches[name]
        for field in _CACHE_STATS_FIELDS:
            setattr(cache_stats, field, recorded[field])
    stats.bus_busy_cycles = data["bus_busy_cycles"]
    stats.c2c_transfers = data["c2c_transfers"]


# ---------------------------------------------------------------------------
# functional memory


def _functional_state(functional) -> dict:
    return {
        "history": [
            [addr, [list(entry) for entry in entries]]
            for addr, entries in sorted(functional._history.items())
        ],
        "reservations": [
            [cpu, list(reservation)]
            for cpu, reservation in sorted(functional._reservations.items())
        ],
        "own": [
            [cpu, addr, value, visible_at]
            for (cpu, addr), (value, visible_at) in sorted(
                functional._own.items()
            )
        ],
        "seq": functional._seq,
    }


def _restore_functional(functional, state: dict) -> None:
    # History entries must be tuples: they are compared against tuple
    # probes in bisect calls, and list-vs-tuple ordering is a TypeError.
    functional._history = {
        addr: [tuple(entry) for entry in entries]
        for addr, entries in state["history"]
    }
    functional._reservations = {
        cpu: tuple(reservation) for cpu, reservation in state["reservations"]
    }
    functional._own = {
        (cpu, addr): (value, visible_at)
        for cpu, addr, value, visible_at in state["own"]
    }
    functional._seq = state["seq"]


# ---------------------------------------------------------------------------
# CPUs


def _cpu_state(cpu) -> dict:
    from repro.cpu.mxs import MxsCpu

    if cpu._ckpt_log is None:
        raise CheckpointError(
            "CPU was not built with checkpoint recording; construct the "
            "System with checkpointing=True"
        )
    state = {
        "done": cpu.done,
        "instructions": cpu.instructions,
        "resume": cpu.resume,
        "has_value": cpu._has_value,
        "send_value": cpu._send_value,
        "started": cpu._started,
        "ifetch_pending": cpu._ifetch_pending,
        "busy_pending": cpu._busy_pending,
        "replay": {
            "advances": cpu._ckpt_advances,
            "log": list(cpu._ckpt_log),
        },
    }
    if isinstance(cpu, MxsCpu):
        state["program_done"] = cpu._program_done
        state["mxs"] = _mxs_state(cpu)
    else:
        state["program_done"] = cpu.done
        state["fetch_line"] = cpu._fetch_line
    return state


def _mxs_state(cpu) -> dict:
    rob = list(cpu.rob)
    blocked_index = None
    if cpu._blocked_record is not None:
        for index, record in enumerate(rob):
            if record is cpu._blocked_record:
                blocked_index = index
                break
        if blocked_index is None:
            raise CheckpointError(
                f"cpu {cpu.cpu_id}: blocked record is not in the ROB"
            )
    btb = cpu.btb
    return {
        "rob": [
            [
                record.seq,
                _encode_inst(record.inst),
                record.issued,
                record.done,
                record.dcache_miss,
                record.extra_hit_latency,
                record.mispredicted,
            ]
            for record in rob
        ],
        "blocked_index": blocked_index,
        "seq": cpu._seq,
        "fetch_line": cpu._fetch_line,
        "fetch_unblock": cpu._fetch_unblock,
        "fetch_reason": cpu._fetch_reason,
        "pending_inst": (
            _encode_inst(cpu._pending_inst)
            if cpu._pending_inst is not None
            else None
        ),
        "btb": {
            "entries": [
                [index, entry.tag, entry.target, entry.counter]
                for index, entry in enumerate(btb._table)
                if entry.tag != -1
            ],
            "lookups": btb.lookups,
            "hits": btb.hits,
        },
        "fus": {
            "used": {
                kind: units - free
                for kind, units, free in zip(FU_KINDS, UNITS, cpu.fus.free)
                if free != units
            },
            "cycle": cpu.fus.cycle,
            "structural_stalls": cpu.fus.structural_stalls,
        },
        "mshrs": {
            "entries": sorted(
                [line, done] for line, done in cpu.mshrs._entries.items()
            ),
            "merges": cpu.mshrs.merges,
            "allocations": cpu.mshrs.allocations,
            "full_stalls": cpu.mshrs.full_stalls,
        },
    }


def _replay_program(cpu, advances: int, log: list, finished: bool) -> None:
    """Re-advance a fresh thread program to its checkpointed position.

    Every pull after an instruction that produced a value
    (``want_value`` loads, LL, SC — the emitters set ``want_value`` on
    all of them) is a ``send`` of the next logged value; every other
    pull is a plain ``next``. For a finished program one extra terminal
    pull runs the generator's trailing code (result computation that
    ``Workload.validate`` checks) to ``StopIteration``.
    """
    program = cpu.program
    cursor = 0
    previous = None
    try:
        for _ in range(advances):
            if previous is not None and previous.want_value:
                if cursor >= len(log):
                    raise CheckpointError(
                        f"cpu {cpu.cpu_id}: replay log exhausted at "
                        f"pull needing a value (cursor {cursor})"
                    )
                value = log[cursor]
                cursor += 1
                previous = program.send(value)
            else:
                previous = next(program)
    except StopIteration:
        raise CheckpointError(
            f"cpu {cpu.cpu_id}: thread program ended early during "
            "replay; the workload does not match the checkpoint"
        ) from None
    if finished:
        try:
            if previous is not None and previous.want_value:
                if cursor >= len(log):
                    raise CheckpointError(
                        f"cpu {cpu.cpu_id}: replay log exhausted at the "
                        "terminal pull"
                    )
                value = log[cursor]
                cursor += 1
                program.send(value)
            else:
                next(program)
        except StopIteration:
            pass
        else:
            raise CheckpointError(
                f"cpu {cpu.cpu_id}: thread program kept producing "
                "instructions past its checkpointed end"
            )
    if cursor != len(log):
        raise CheckpointError(
            f"cpu {cpu.cpu_id}: replay consumed {cursor} of "
            f"{len(log)} logged values; the workload does not match "
            "the checkpoint"
        )


def _restore_cpu(cpu, state: dict) -> None:
    from repro.cpu.mxs import MxsCpu
    from repro.cpu.mxs.core import _Record

    replay = state["replay"]
    _replay_program(
        cpu, replay["advances"], replay["log"], state["program_done"]
    )
    cpu.done = state["done"]
    cpu.instructions = state["instructions"]
    cpu.resume = state["resume"]
    cpu._has_value = state["has_value"]
    cpu._send_value = state["send_value"]
    cpu._started = state["started"]
    cpu._ifetch_pending = state["ifetch_pending"]
    cpu._busy_pending = state["busy_pending"]
    if hasattr(cpu, "_flushed_instructions"):
        # Delta-folding models (Mipsy) derive busy/ifetch counts from
        # the instruction counter; the restored stats already hold
        # everything up to the snapshot, so the fold baseline must
        # match the restored count (any unflushed remainder rides the
        # pending fields above).
        cpu._flushed_instructions = cpu.instructions
    # Chained checkpoints need the full history from cycle zero.
    cpu._ckpt_log = list(replay["log"])
    cpu._ckpt_advances = replay["advances"]
    if isinstance(cpu, MxsCpu):
        mxs = state["mxs"]
        cpu._program_done = state["program_done"]
        # The wire format carries the ROB rows only; producer links
        # and the unissued list are derived state, rebuilt here the
        # way fetch builds them (a producer that already graduated is
        # ready by construction, so a missing row is no link).
        rob = cpu.rob
        rob.clear()
        cpu._unissued.clear()
        for seq, inst, issued, done, dmiss, extra, mispred in mxs["rob"]:
            record = _Record(seq, _decode_inst(inst))
            record.done = done
            record.dcache_miss = dmiss
            record.extra_hit_latency = extra
            record.mispredicted = mispred
            if not issued:
                src1, src2 = record.inst.src1, record.inst.src2
                if 0 < src1 <= len(rob):
                    record.dep1 = rob[-src1]
                if 0 < src2 <= len(rob):
                    record.dep2 = rob[-src2]
                cpu._unissued.append(record)
            rob.append(record)
        blocked = mxs["blocked_index"]
        cpu._blocked_record = (
            cpu.rob[blocked] if blocked is not None else None
        )
        cpu._seq = cpu._flushed_seq = mxs["seq"]
        cpu._fetch_line = mxs["fetch_line"]
        cpu._fetch_unblock = mxs["fetch_unblock"]
        cpu._fetch_reason = mxs["fetch_reason"]
        cpu._pending_inst = (
            _decode_inst(mxs["pending_inst"])
            if mxs["pending_inst"] is not None
            else None
        )
        btb = cpu.btb
        for index, tag, target, counter in mxs["btb"]["entries"]:
            entry = btb._table[index]
            entry.tag = tag
            entry.target = target
            entry.counter = counter
        btb.lookups = mxs["btb"]["lookups"]
        btb.hits = mxs["btb"]["hits"]
        used = mxs["fus"]["used"]
        cpu.fus.free = [
            units - used.get(kind, 0) for kind, units in zip(FU_KINDS, UNITS)
        ]
        cpu.fus.cycle = mxs["fus"]["cycle"]
        cpu.fus.structural_stalls = mxs["fus"]["structural_stalls"]
        cpu.mshrs.load(
            {line: done for line, done in mxs["mshrs"]["entries"]}
        )
        cpu.mshrs.merges = mxs["mshrs"]["merges"]
        cpu.mshrs.allocations = mxs["mshrs"]["allocations"]
        cpu.mshrs.full_stalls = mxs["mshrs"]["full_stalls"]
    else:
        cpu._fetch_line = state["fetch_line"]


# ---------------------------------------------------------------------------
# synchronization primitives


def _sync_objects(workload) -> dict[str, object]:
    """Name → primitive, via the same two-level traversal as
    ``Workload.sync_report`` (and ``Observation._attach_sync``)."""
    from repro.sync import AtomicCounter, Barrier, SpinLock, TaskQueue

    found: dict[str, object] = {}
    seen: set[int] = set()

    def visit(obj, depth: int) -> None:
        if id(obj) in seen or depth > 2:
            return
        seen.add(id(obj))
        if isinstance(obj, (SpinLock, TaskQueue, AtomicCounter)):
            found[obj.name] = obj
        elif isinstance(obj, Barrier):
            found[obj.name] = obj
            visit(obj.lock, depth)
        elif hasattr(obj, "__dict__") and depth < 2:
            for value in vars(obj).values():
                if isinstance(value, (list, tuple)):
                    for item in value:
                        visit(item, depth + 1)
                else:
                    visit(value, depth + 1)

    for value in vars(workload).values():
        if isinstance(value, (list, tuple)):
            for item in value:
                visit(item, 1)
        else:
            visit(value, 1)
    return found


def _sync_state(workload) -> dict:
    from repro.sync import AtomicCounter, Barrier, SpinLock, TaskQueue

    out: dict[str, dict] = {}
    for name, obj in sorted(_sync_objects(workload).items()):
        if isinstance(obj, SpinLock):
            out[name] = {
                "kind": "lock",
                "acquires": obj.acquires,
                "contended_retries": obj.contended_retries,
            }
        elif isinstance(obj, Barrier):
            out[name] = {"kind": "barrier", "episodes": obj.episodes}
        elif isinstance(obj, TaskQueue):
            out[name] = {
                "kind": "taskqueue",
                "steals": obj.steals,
                "pops": obj.pops,
            }
        elif isinstance(obj, AtomicCounter):
            out[name] = {"kind": "counter", "sc_failures": obj.sc_failures}
    return out


def _restore_sync(workload, state: dict) -> None:
    objects = _sync_objects(workload)
    if set(objects) != set(state):
        raise CheckpointError(
            "sync-primitive name mismatch between checkpoint and restore "
            f"target: only-live={sorted(set(objects) - set(state))} "
            f"only-checkpoint={sorted(set(state) - set(objects))}"
        )
    for name, recorded in state.items():
        obj = objects[name]
        kind = recorded["kind"]
        if kind == "lock":
            obj.acquires = recorded["acquires"]
            obj.contended_retries = recorded["contended_retries"]
        elif kind == "barrier":
            obj.episodes = recorded["episodes"]
        elif kind == "taskqueue":
            obj.steals = recorded["steals"]
            obj.pops = recorded["pops"]
        elif kind == "counter":
            obj.sc_failures = recorded["sc_failures"]
        else:
            raise CheckpointError(f"unknown sync primitive kind {kind!r}")


# ---------------------------------------------------------------------------
# observability


def _obs_state(obs) -> dict:
    registry = obs.registry
    state = {
        "now": obs.now,
        "run_log": [dict(record) for record in obs.run_log],
        "registry": {
            "counters": {
                name: counter.value
                for name, counter in sorted(registry.counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(registry.gauges.items())
            },
            "histograms": {
                name: [list(hist.buckets), hist.count, hist.total]
                for name, hist in sorted(registry.histograms.items())
            },
        },
    }
    sampler = obs.sampler
    if sampler is not None:
        state["sampler"] = {
            "interval": sampler.interval,
            "next_boundary": sampler.next_boundary,
            "boundaries": list(sampler.boundaries),
            "series": {
                name: list(values) for name, values in sampler.series.items()
            },
            "last": dict(sampler._last),
        }
    timeline = obs.timeline
    if timeline is not None:
        state["timeline"] = {
            "max_events": timeline.max_events,
            # Track registration order determines thread ids — keep it.
            "tracks": list(timeline._tracks.items()),
            "events": [list(event) for event in timeline._events],
            "emitted": timeline.emitted,
            "dropped": timeline.dropped,
        }
    return state


def _restore_obs(obs, state: dict) -> None:
    from repro.obs.registry import Counter, Gauge, Histogram

    obs.now = state["now"]
    obs.run_log = [dict(record) for record in state["run_log"]]
    registry = obs.registry
    registry.counters = {}
    for name, value in state["registry"]["counters"].items():
        counter = Counter(name)
        counter.value = value
        registry.counters[name] = counter
    registry.gauges = {}
    for name, value in state["registry"]["gauges"].items():
        gauge = Gauge(name)
        gauge.value = value
        registry.gauges[name] = gauge
    registry.histograms = {}
    for name, (buckets, count, total) in state["registry"][
        "histograms"
    ].items():
        hist = Histogram(name)
        hist.buckets = list(buckets)
        hist.count = count
        hist.total = total
        registry.histograms[name] = hist

    sampler = obs.sampler
    recorded = state.get("sampler")
    if (sampler is None) != (recorded is None):
        raise CheckpointError(
            "sampler configuration mismatch between checkpoint and "
            "restore target"
        )
    if sampler is not None:
        if sampler.interval != recorded["interval"]:
            raise CheckpointError(
                f"sampler interval mismatch: {sampler.interval} live vs "
                f"{recorded['interval']} checkpointed"
            )
        if set(sampler.series) != set(recorded["series"]):
            raise CheckpointError(
                "sampler probe mismatch between checkpoint and restore "
                "target"
            )
        sampler.next_boundary = recorded["next_boundary"]
        sampler.boundaries = list(recorded["boundaries"])
        sampler.series = {
            name: list(values)
            for name, values in recorded["series"].items()
        }
        # The probe callables re-registered on the fresh system captured
        # post-replay baselines in _last; overwrite them with the
        # checkpointed cumulative values so the next snapshot's deltas
        # match an uninterrupted run.
        sampler._last = dict(recorded["last"])

    timeline = obs.timeline
    recorded = state.get("timeline")
    if (timeline is None) != (recorded is None):
        raise CheckpointError(
            "timeline configuration mismatch between checkpoint and "
            "restore target"
        )
    if timeline is not None:
        timeline.max_events = recorded["max_events"]
        timeline._tracks = {name: tid for name, tid in recorded["tracks"]}
        timeline._events = [
            (tid, name, cat, ts, dur, args)
            for tid, name, cat, ts, dur, args in recorded["events"]
        ]
        timeline.emitted = recorded["emitted"]
        timeline.dropped = recorded["dropped"]


# ---------------------------------------------------------------------------
# public protocol


def snapshot_system(system, extra_meta: dict | None = None) -> dict:
    """Serialize a paused system to a JSON-compatible dict."""
    from repro import __version__

    if not system.checkpointing:
        raise CheckpointError(
            "system was not built with checkpointing=True; thread-program "
            "replay logs were not recorded"
        )
    if not system.paused:
        raise CheckpointError(
            "system is not paused at a cycle boundary; run with "
            "pause_at=... before snapshotting"
        )
    obs = system.obs
    meta = {
        "format": SNAPSHOT_FORMAT,
        "version": __version__,
        "cycle": system._cycle,
        "arch": system.arch,
        "cpu_model": system.cpu_model,
        "n_cpus": system.config.n_cpus,
        "workload": system.workload.name,
        "obs": (
            {
                "sample_interval": (
                    obs.sampler.interval if obs.sampler is not None else 0
                ),
                "events": obs.timeline is not None,
            }
            if obs is not None
            else None
        ),
    }
    if extra_meta:
        meta.update(extra_meta)
    state = {
        "meta": meta,
        "engine": system.engine.ckpt_state(),
        "stats": system.stats.to_dict(),
        "functional": _functional_state(system.functional),
        "memory": _memory_state(system.memory),
        "cpus": [_cpu_state(cpu) for cpu in system.cpus],
        "sync": _sync_state(system.workload),
    }
    if obs is not None:
        state["obs"] = _obs_state(obs)
    return state


def restore_system(system, state: dict) -> None:
    """Load a snapshot into a freshly built, never-run system.

    ``system`` must have been constructed with the same architecture,
    CPU model, configuration, workload and observability settings as
    the checkpointed one, with ``checkpointing=True``, and must not
    have executed any cycles. After the restore, ``system.run()``
    continues from the checkpoint cycle.
    """
    meta = state.get("meta", {})
    if meta.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {meta.get('format')!r}; "
            f"this build reads {SNAPSHOT_FORMAT}"
        )
    if not system.checkpointing:
        raise CheckpointError(
            "restore target must be built with checkpointing=True"
        )
    for key, actual in (
        ("arch", system.arch),
        ("cpu_model", system.cpu_model),
        ("n_cpus", system.config.n_cpus),
        ("workload", system.workload.name),
    ):
        if meta.get(key) != actual:
            raise CheckpointError(
                f"checkpoint/restore mismatch on {key}: checkpoint has "
                f"{meta.get(key)!r}, target has {actual!r}"
            )
    if (system.obs is None) != ("obs" not in state):
        raise CheckpointError(
            "observability configuration mismatch: checkpoint and restore "
            "target must both have obs enabled or both disabled"
        )
    for cpu in system.cpus:
        if cpu._started or cpu.instructions:
            raise CheckpointError(
                "restore target has already executed; build a fresh System"
            )

    cycle = meta["cycle"]
    if system.obs is not None:
        # In-flight lock/barrier generators capture ``obs.now`` as their
        # wait-episode start while being replayed; point it at the
        # checkpoint cycle so those timestamps are deterministic. All
        # registry/timeline state the replay touches is overwritten
        # from the snapshot below.
        system.obs.now = cycle
    for cpu, cpu_state in zip(system.cpus, state["cpus"]):
        _restore_cpu(cpu, cpu_state)
    system.engine.ckpt_restore(state["engine"])
    _stats_restore_in_place(system.stats, state["stats"])
    _restore_functional(system.functional, state["functional"])
    _restore_memory(system.memory, state["memory"])
    _restore_sync(system.workload, state["sync"])
    if system.obs is not None:
        _restore_obs(system.obs, state["obs"])
    system._cycle = cycle
    system.paused = True
    system.truncated = False
