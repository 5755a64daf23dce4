"""Versioned snapshot/restore of a paused :class:`~repro.core.system.System`.

A checkpoint captures everything a resumed process needs to continue a
run cycle-for-cycle identically: statistics, the timed functional
memory, every memory-system component (cache arrays with exact LRU
order, coherence directory state, busy timelines, write buffers,
in-flight crossbar/bus state), per-CPU architectural state for both
models, synchronization-primitive counters, and — when observability is
attached — the full telemetry state (registry, sampler series, event
timeline, run log).

Every stateful class says what travels **once**, as a row of
:data:`CODECS`: which attributes go under which wire names and in which
shape, in the vocabulary of :mod:`repro.ckpt.codec`, whose one walker
reads the table in both directions and states the generic refusals
once. The table *is* the ``repro.ckpt/1`` wire format;
``docs/CHECKPOINTING.md`` renders it
(``scripts/gen_ckpt_wire_table.py``). Only what is genuinely not a
field list is hand-written here: LRU-ordered cache sets, the ROB's
link rebuild, sparse BTB entries, the replay of thread programs and
the meta checks.

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

from repro.ckpt.codec import (
    Codec,
    Format,
    const,
    dataclass_row,
    fill,
    hook,
    part,
    plain,
    plains,
    sub,
)
from repro.cpu.mipsy import MipsyCpu
from repro.cpu.mxs.btb import BranchTargetBuffer
from repro.cpu.mxs.core import MxsCpu, _Record
from repro.cpu.mxs.funits import UNITS, FunctionalUnits
from repro.errors import CheckpointError
from repro.isa.instructions import FU_KINDS, Instruction, OpClass
from repro.mem.bank import BankedResource, Resource
from repro.mem.bus import SnoopyBus
from repro.mem.cache import CacheArray
from repro.mem.coherence.directory import Directory
from repro.mem.crossbar import Crossbar
from repro.mem.functional import FunctionalMemory
from repro.mem.mainmem import MainMemory
from repro.mem.mshr import MshrFile
from repro.mem.writebuffer import WriteBuffer
from repro.obs.observe import Observation
from repro.obs.registry import Counter, Gauge, Histogram, Registry
from repro.obs.sampler import UtilizationSampler
from repro.obs.timeline import EventTimeline
from repro.sim.stats import CacheStats, CycleBreakdown, MxsStats, SystemStats
from repro.sync import AtomicCounter, Barrier, SpinLock, TaskQueue
from repro.trace.replay import TraceCpu, TraceWorkload

#: Snapshot wire-format identifier; bumped on any incompatible change.
SNAPSHOT_FORMAT = "repro.ckpt/1"

#: No run schedules on an event engine, so the section every
#: ``repro.ckpt/1`` blob carries is this literal, and nothing else is
#: accepted in its place.
_ENGINE = {"now": 0, "seq": 0}


def _pairs(mapping: dict) -> list:
    return sorted([key, value] for key, value in mapping.items())


def _copies(records: list) -> list:
    return [dict(record) for record in records]


def _series(series: dict) -> dict:
    return {name: list(values) for name, values in series.items()}


# ---------------------------------------------------------------------------
# what is genuinely not a field list

_INST_FIELDS = (
    "pc", "addr", "taken", "target", "want_value", "value", "src1", "src2",
)


def _encode_inst(inst: Instruction | None) -> list | None:
    if inst is None:
        return None
    return [int(inst.op), *(getattr(inst, name) for name in _INST_FIELDS)]


def _decode_inst(data: list | None) -> Instruction | None:
    if data is None:
        return None
    return Instruction(OpClass(data[0]), **dict(zip(_INST_FIELDS, data[1:])))


def _import_sets(cache: CacheArray, sets: list) -> None:
    if len(sets) != cache.n_sets:
        raise CheckpointError(
            f"cache {cache.name!r} geometry mismatch: "
            f"{cache.n_sets} sets live vs {len(sets)} checkpointed"
        )
    # In place: fast-lane probe closures capture the cache's columns by
    # reference; import_sets re-stamps the stored (LRU) order,
    # preserving every future replacement decision.
    cache.import_sets(sets)


_ROB_COLUMNS = ("done", "dcache_miss", "extra_hit_latency", "mispredicted")


def _rob_rows(cpu: MxsCpu) -> list:
    return [
        [r.seq, _encode_inst(r.inst), r.issued,
         *(getattr(r, name) for name in _ROB_COLUMNS)]
        for r in cpu.rob
    ]


def _rebuild_rob(cpu: MxsCpu, rows: list) -> None:
    # The wire format carries the ROB rows only; producer links and the
    # unissued list are derived state, rebuilt here the way fetch
    # builds them (a producer that already graduated is ready by
    # construction, so a missing row is no link).
    rob = cpu.rob
    rob.clear()
    cpu._unissued.clear()
    for seq, inst, issued, *columns in rows:
        record = _Record(seq, _decode_inst(inst))
        for name, value in zip(_ROB_COLUMNS, columns):
            setattr(record, name, value)
        if not issued:
            src1, src2 = record.inst.src1, record.inst.src2
            if 0 < src1 <= len(rob):
                record.dep1 = rob[-src1]
            if 0 < src2 <= len(rob):
                record.dep2 = rob[-src2]
            cpu._unissued.append(record)
        rob.append(record)


def _blocked_index(cpu: MxsCpu) -> int | None:
    if cpu._blocked_record is None:
        return None
    for index, record in enumerate(cpu.rob):
        if record is cpu._blocked_record:
            return index
    raise CheckpointError(
        f"cpu {cpu.cpu_id}: blocked record is not in the ROB"
    )


def _set_blocked(cpu: MxsCpu, index: int | None) -> None:
    cpu._blocked_record = cpu.rob[index] if index is not None else None


def _btb_rows(btb: BranchTargetBuffer) -> list:
    return [
        [index, entry.tag, entry.target, entry.counter]
        for index, entry in enumerate(btb._table)
        if entry.tag != -1
    ]


def _load_btb(btb: BranchTargetBuffer, rows: list) -> None:
    for index, *row in rows:
        entry = btb._table[index]
        entry.tag, entry.target, entry.counter = row


def _fus_used(free: list) -> dict:
    # Keyed by unit-kind name whatever the pool counts with internally.
    return {
        kind: units - left
        for kind, units, left in zip(FU_KINDS, UNITS, free)
        if left != units
    }


def _fus_free(used: dict) -> list:
    return [units - used.get(kind, 0) for kind, units in zip(FU_KINDS, UNITS)]


# ---------------------------------------------------------------------------
# the table: one row per stateful class

_CPU = (
    plain("done"),
    # Delta-folding models derive busy/ifetch counts from the
    # instruction counter; the restored stats already hold everything
    # up to the snapshot, so the fold baseline must match the restored
    # count (any unflushed remainder rides the pending fields below).
    plain("instructions", also="_flushed_instructions"),
    plain("resume"),
    plain("has_value", "_has_value"),
    plain("send_value", "_send_value"),
    plain("started", "_started"),
    plain("ifetch_pending", "_ifetch_pending"),
    plain("busy_pending", "_busy_pending"),
    # Chained checkpoints need the full history from cycle zero.
    sub("replay", plain("advances", "_ckpt_advances"),
        plain("log", "_ckpt_log", list, list)),
)

_PIPELINE = (
    hook("rob", _rob_rows, _rebuild_rob),
    hook("blocked_index", _blocked_index, _set_blocked),
    plain("seq", "_seq", also="_flushed_seq"),
    plain("fetch_line", "_fetch_line"),
    plain("fetch_unblock", "_fetch_unblock"),
    plain("fetch_reason", "_fetch_reason"),
    plain("pending_inst", "_pending_inst", _encode_inst, _decode_inst),
    part("btb"), part("fus"), part("mshrs"),
)

#: The ``repro.ckpt/1`` wire format: one row per stateful class.
CODECS: dict[type, Codec] = {
    # memory-system components (what MemorySystem.components() declares)
    Resource: Codec(
        plains("next_free", "busy_cycles", "requests", "wait_cycles"),
        "positional",
    ),
    BankedResource: Codec((part("banks"),), "bare"),
    # a one-stage crossbar has no switch columns, and sends none
    Crossbar: Codec((
        part("banks"), part("ports"), part("switches", optional=True),
        plain("wait_cycles"),
    )),
    WriteBuffer: Codec((
        fill("pending", "_pending", list),
        *plains("last_visible", "full_stalls", "stores"),
    )),
    MainMemory: Codec((part("banks"), *plains("reads", "writes"))),
    Directory: Codec((
        fill("holders", "_holders", _pairs, dict), plain("invalidations_sent"),
    )),
    SnoopyBus: Codec((
        part("resource"),
        *plains("mem_reads", "c2c_transfers", "upgrades", "writebacks"),
    )),
    CacheArray: Codec((
        # export_sets() emits each set's lines in LRU order — the same
        # order the historical dict-of-lines representation serialized.
        hook("sets", CacheArray.export_sets, _import_sets),
        fill("invalidated", dump=sorted),
    )),
    # the timed value oracle
    FunctionalMemory: Codec((
        # History entries must be tuples: they are compared against
        # tuple probes in bisect calls, and list-vs-tuple ordering is a
        # TypeError.
        fill(
            "history", "_history",
            lambda held: [[addr, [list(entry) for entry in entries]]
                          for addr, entries in sorted(held.items())],
            lambda rows: {addr: [tuple(entry) for entry in entries]
                          for addr, entries in rows},
        ),
        fill(
            "reservations", "_reservations",
            lambda held: [[cpu, list(link)]
                          for cpu, link in sorted(held.items())],
            lambda rows: {cpu: tuple(link) for cpu, link in rows},
        ),
        fill(
            "own", "_own",
            lambda held: [[cpu, addr, value, visible_at]
                          for (cpu, addr), (value, visible_at)
                          in sorted(held.items())],
            lambda rows: {(cpu, addr): (value, visible_at)
                          for cpu, addr, value, visible_at in rows},
        ),
        # Words a successful SC holds until its write lands; the
        # snapshot drops the landed ones first, so it is mostly empty.
        fill(
            "held", "_held",
            lambda held: [[addr, cpu, until]
                          for addr, (cpu, until) in sorted(held.items())],
            lambda rows: {addr: (cpu, until) for addr, cpu, until in rows},
            optional=True,
        ),
        plain("seq", "_seq"),
    )),
    # CPUs: the shared base, then what each model adds
    MipsyCpu: Codec((
        *_CPU, plain("program_done", "done"),
        plain("fetch_line", "_fetch_line"),
    )),
    MxsCpu: Codec((
        *_CPU, plain("program_done", "_program_done"),
        sub("mxs", *_PIPELINE),
    )),
    # A trace CPU's program is its columns: the cursor into them,
    # ``instructions``, is all of its position.
    TraceCpu: Codec((
        plain("done"),
        plain("instructions", also="_flushed_instructions"),
        plain("resume"),
        plain("fetch_line", "_fetch_line"),
    )),
    BranchTargetBuffer: Codec((
        hook("entries", _btb_rows, _load_btb), *plains("lookups", "hits"),
    )),
    FunctionalUnits: Codec((
        plain("used", "free", _fus_used, _fus_free),
        *plains("cycle", "structural_stalls"),
    )),
    MshrFile: Codec((
        hook("entries", lambda file: _pairs(file._entries),
             lambda file, rows: file.load(dict(rows))),
        *plains("merges", "allocations", "full_stalls"),
    )),
    # synchronization primitives (what Workload.sync_objects() finds);
    # each row is that primitive's Workload.sync_report() entry
    SpinLock: Codec((
        const("kind", "lock"), *plains("acquires", "contended_retries"),
    )),
    Barrier: Codec((const("kind", "barrier"), plain("episodes"))),
    TaskQueue: Codec((const("kind", "taskqueue"), *plains("steals", "pops"))),
    AtomicCounter: Codec((const("kind", "counter"), plain("sc_failures"))),
    # statistics: CPUs and memory systems hold direct references into
    # these objects (``cpu.breakdown`` *is* ``stats.breakdowns[i]``),
    # so they are overwritten field by field, never replaced
    SystemStats: dataclass_row(
        SystemStats, parts=("n_cpus", "breakdowns", "mxs", "caches")
    ),
    CycleBreakdown: dataclass_row(CycleBreakdown),
    MxsStats: dataclass_row(MxsStats),
    CacheStats: dataclass_row(CacheStats),
    # observability
    Observation: Codec((
        plain("run_log", None, _copies, _copies),
        # Open sync-wait episodes; an absent field means none is open.
        fill("waits", None, _pairs, dict, optional=True),
        part("registry"), part("sampler", optional=True),
        part("timeline", optional=True),
    )),
    Registry: Codec((
        part("counters", make=Counter), part("gauges", make=Gauge),
        part("histograms", make=Histogram),
    )),
    Counter: Codec((plain("value"),), "bare"),
    Gauge: Codec((plain("value"),), "bare"),
    Histogram: Codec(
        (plain("buckets", None, list, list), *plains("count", "total")),
        "positional",
    ),
    UtilizationSampler: Codec((
        part("interval"), plain("next_boundary"),
        fill("boundaries", dump=list),
        fill("series", None, _series, _series, names=True),
        # The probe callables re-registered on the fresh system captured
        # post-replay baselines in _last; overwrite them with the
        # checkpointed cumulative values so the next snapshot's deltas
        # match an uninterrupted run.
        fill("last", "_last", dict),
    )),
    EventTimeline: Codec((
        plain("max_events"),
        # Track registration order determines thread ids — keep it.
        fill("tracks", "_tracks", lambda held: list(held.items()), dict),
        fill(
            "events", "_events", lambda held: [list(event) for event in held],
            lambda rows: [tuple(row) for row in rows],
        ),
        *plains("emitted", "dropped"),
    )),
}
_FORMAT = Format(CODECS)


# ---------------------------------------------------------------------------
# thread programs


def _replay_program(
    cpu, advances: int, log: list, finished: bool
) -> Instruction | None:
    """Re-advance a fresh thread program to its checkpointed position;
    returns its last pull (``None`` for a finished program).

    Every pull after a ``want_value`` instruction (a value-returning
    load, every LL and SC — replayed trace SCs included) is a ``send``
    of the next logged value; every other pull is a plain ``next``. For
    a finished program one extra terminal pull runs the generator's
    trailing code (result computation that ``Workload.validate``
    checks) to ``StopIteration``.
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
    return None if finished else previous


def _hold_last_pull(cpu: MxsCpu, last: Instruction | None) -> None:
    """Hand a restored pipeline the replayed program's last pull itself
    where it holds it (waiting on an I-fetch, or blocking fetch): the
    wire carries instructions by value, and a declared spin is more."""
    for holder, attr in (
        (cpu, "_pending_inst"), (cpu._blocked_record, "inst")
    ):
        held = getattr(holder, attr, None)
        if held is not None:
            if _encode_inst(held) != _encode_inst(last):
                raise CheckpointError(
                    f"cpu {cpu.cpu_id}: the pipeline holds an instruction "
                    "its replayed program did not pull last"
                )
            setattr(holder, attr, last)


# ---------------------------------------------------------------------------
# public protocol


def _sections(system) -> dict:
    """Wire section → live part, for everything with state: each owner
    declares its own (``MemorySystem.components()``,
    ``Workload.sync_objects()``), in the format's section order."""
    sections = {
        "stats": system.stats,
        "functional": system.functional,
        "memory": system.memory.components(),
        "cpus": system.cpus,
        "sync": system.workload.sync_objects(),
    }
    if system.obs is not None:
        sections["obs"] = system.obs
    return sections


def _identity(system) -> dict:
    """What a checkpoint and its restore target must agree on. A
    replay is its trace, named by content: two traces can share a
    workload name (``synthetic`` at other arguments), and a
    generated run names none (``None``, left out of its meta)."""
    workload = system.workload
    return {
        "arch": system.arch,
        "cpu_model": system.cpu_model,
        "n_cpus": system.config.n_cpus,
        "workload": workload.name,
        "trace": (
            workload.packed.digest()
            if isinstance(workload, TraceWorkload) else None
        ),
    }


def snapshot_system(system, extra_meta: dict | None = None) -> dict:
    """Serialize a paused system to a JSON-compatible dict."""
    from repro import __version__

    if not system.checkpointing or any(
        cpu._ckpt_log is None for cpu in system.cpus
    ):
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
        **{
            key: value
            for key, value in _identity(system).items()
            if value is not None
        },
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
    state = {"meta": meta, "engine": dict(_ENGINE)}
    # Every SC from here on completes at or after this cycle.
    system.functional.drop_landed(system._cycle)
    for name, part in _sections(system).items():
        state[name] = _FORMAT.encode(part)
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
    for key, actual in _identity(system).items():
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
    if state.get("engine") != _ENGINE:
        raise CheckpointError(
            f"checkpoint carries event-engine state {state.get('engine')!r}; "
            f"no run schedules events, so only {_ENGINE!r} is readable"
        )
    for cpu in system.cpus:
        if cpu._started or cpu.instructions:
            raise CheckpointError(
                "restore target has already executed; build a fresh System"
            )

    pulled = []
    for cpu, recorded in zip(system.cpus, state["cpus"]):
        if isinstance(cpu, TraceCpu):
            pulled.append(None)  # no thread program to re-advance
            continue
        replay = recorded["replay"]
        pulled.append(_replay_program(
            cpu, replay["advances"], replay["log"], recorded["program_done"]
        ))
    # Only now: the walk that finds the sync primitives reads
    # ``vars()`` of the workload and its sub-objects, which costs their
    # attribute reads the interpreter's inline-values fast path — and
    # the replay above is nothing but the thread programs reading them.
    for name, part in _sections(system).items():
        _FORMAT.restore(part, state[name], name)
    for cpu, last in zip(system.cpus, pulled):
        if isinstance(cpu, MxsCpu):
            _hold_last_pull(cpu, last)
    system._cycle = meta["cycle"]
    system.paused = True
    system.truncated = False
