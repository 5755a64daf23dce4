"""Conservation and protocol invariants of a finished run.

Everything here reads a ``System`` after ``run()`` through its
statistics, its resource counters and the caches' tag columns (and
``find()``); nothing goes through ``access()``, a lane or a built
path, so a rewritten path is checked against arithmetic it cannot have
bent to its own shape.

:func:`check_run` is the whole oracle; the two halves are usable on
their own.
"""

from __future__ import annotations


def check_conservation(system, stats):
    """Nothing is lost between levels: what misses in one level is
    exactly what the next one is asked for (accesses = hits + misses
    at every cache, with the hits being what never shows up below),
    and under Mipsy every cycle of a CPU's run is busy or a stall."""
    memory = system.memory
    for cache in stats.caches.values():
        assert 0 <= cache.misses <= cache.accesses, cache.name
    l1i = stats.aggregate_caches(".l1i")
    l1d = stats.aggregate_caches(".l1d")
    l1d_read_misses = l1d.read_misses_repl + l1d.read_misses_inval
    l1d_write_misses = l1d.write_misses_repl + l1d.write_misses_inval
    kind = system.topology.kind
    if kind == "shared-primary":
        l2 = stats.cache("chip.l2")
        assert l2.reads == l1d_read_misses + l1i.misses
        assert l2.writes == l1d_write_misses
        assert memory.mem.reads == l2.misses
    elif kind == "shared-memory":
        l2 = stats.aggregate_caches(".l2")
        assert l2.reads == l1d_read_misses + l1i.misses
        assert l2.writes == l1d_write_misses
        assert memory.bus.mem_reads + memory.bus.c2c_transfers == l2.misses
    else:
        # Write-through: every store reaches every level; reads thin
        # out level by level.
        reads_below = l1d_read_misses + l1i.misses
        *deeper, shared = system.topology.levels[1:]
        for level in deeper:
            cache = stats.aggregate_caches(f".{level.name}")
            assert cache.reads == reads_below, level.name
            assert cache.writes == l1d.writes, level.name
            reads_below = cache.read_misses_repl + cache.read_misses_inval
        cache = stats.cache(f"shared.{shared.name}")
        assert cache.reads == reads_below
        assert cache.writes == l1d.writes
        assert memory.mem.reads == cache.misses
    if system.cpu_model == "mipsy":
        for cpu, breakdown in zip(system.cpus, stats.breakdowns):
            assert breakdown.total == cpu.resume <= stats.cycles
        assert stats.aggregate_breakdown().busy == stats.instructions


def _resident(cache) -> set[int]:
    return {tag for tag in cache.tags if tag >= 0}


def _code_lines(system) -> range:
    code = system.workload.code
    shift = system.config.line_size.bit_length() - 1
    return range(
        code.base >> shift, ((code.base + code.footprint_bytes) >> shift) + 1
    )


def check_protocol(system, stats):
    """The coherence discipline's end state is legal: one writer per
    line and L2 ⊇ L1 under MESI, the directory knows every private
    copy under a shared lower level, a shared L1 holds nothing its L2
    lost, and no resource was busy for longer than the run.

    Relaxed, by name, where the model does not hold it by design:

    * *instruction lines in a deeper private level* are unknown to the
      directory and survive the shared level replacing them — an
      I-fetch refill records no holder, because code is never written
      and nothing ever has to find the copy.
    """
    memory = system.memory
    kind = system.topology.kind
    if kind == "shared-memory":
        memory.snoop.check_invariants()
    elif kind == "shared-secondary":
        shared = _resident(memory.shared)
        code = _code_lines(system)
        for _level, arrays, _stats, _ports in memory._private:
            for cpu, cache in enumerate(arrays):
                for line_addr in _resident(cache):
                    if line_addr in code:
                        continue
                    assert memory.directory.is_holder(line_addr, cpu), (
                        f"{cache.name} holds {line_addr:#x} unknown to "
                        "the directory"
                    )
                    assert line_addr in shared, (
                        f"{cache.name} holds {line_addr:#x} the shared "
                        "level lost"
                    )
    else:
        assert _resident(memory.l1d) <= _resident(memory.l2)
    cycles = stats.cycles
    for name, busy in memory.resource_report(cycles).items():
        assert busy <= 1.0, f"{name} busy {busy:.3f} of the run"


def check_run(system, stats):
    """Every invariant of a run that finished (not truncated)."""
    check_conservation(system, stats)
    check_protocol(system, stats)
