"""What a run holds in memory: each instruction once.

A stretch (:meth:`repro.isa.stream.Emitter.replay`) holds the loads
and stores it was generated with, so the emitter memo does not hold
them a second time; every instruction emitted at one slot shares that
slot's pc int; a trace's text is written a bounded chunk at a
time, never a whole column at once; and a decoded trace holds 9 bytes
a reference (kind, 32-bit address, 32-bit pc), in memory and in its
sidecar.
"""

from __future__ import annotations

import tracemalloc
from array import array

import pytest

from repro.core.runner import Job
from repro.isa.codegen import CodeRegion
from repro.isa.instructions import OpClass
from repro.isa.stream import Emitter
from repro.mem.types import AccessKind
from repro.trace import kernel
from repro.trace.format import write_columns
from repro.trace.store import TraceStore
from repro.workloads import WORKLOADS

_MEMORY_OPS = (OpClass.LOAD, OpClass.STORE)

#: memo entries, summed over a workload's regions, after one test-scale
#: shared-mem Mipsy run (before stretch memory ops left the memo:
#: ocean 2 101, multiprog 2 380, mp3d 1 564, ear 154, eqntott 208)
MEMO_ENTRIES = {
    "ear": 25,
    "eqntott": 204,
    "fft": 1092,
    "mp3d": 668,
    "multiprog": 308,
    "ocean": 53,
    "synthetic": 947,
    "volpack": 2217,
}


def _run_with_stretches(name, monkeypatch):
    """One run of ``name``, with every stretch it generated."""
    stretches = []
    generate = Emitter._generate

    def spy(self, body):
        stretch = generate(self, body)
        stretches.append(stretch)
        return stretch

    monkeypatch.setattr(Emitter, "_generate", spy)
    system = Job("shared-mem", name).build()
    system.run()
    return system.workload, stretches


@pytest.mark.parametrize("name", sorted(MEMO_ENTRIES))
def test_stretch_memory_ops_stay_out_of_the_memo(name, monkeypatch):
    """No load or store a stretch holds is also a memo entry. (A plain
    emit of an equal instruction at the same slot — mp3d's scatter
    re-reads the particle its move stretch loaded — builds and keeps
    its own.)"""
    workload, stretches = _run_with_stretches(name, monkeypatch)
    memo = {
        id(inst)
        for region in workload.code
        for inst in region._inst_cache.values()
    }
    for stretch in stretches:
        for inst in stretch.instructions:
            if inst.op in _MEMORY_OPS:
                assert id(inst) not in memo, inst
    entries = sum(len(region._inst_cache) for region in workload.code)
    assert entries == MEMO_ENTRIES[name]


def test_stretch_keeps_compute_and_branch_memo():
    """Only loads and stores skip the memo: the loop's compute and
    branch instructions still hit by slot on the next pass."""
    em = Emitter(CodeRegion("loop", 0x1000, 8))

    def body(em, base):
        top = em.label()
        for i in range(4):
            yield em.load(base + 8 * i)
            yield em.fadd()
            yield em.store(base + 8 * i)
            yield em.branch(i < 3, to=top)

    kept: dict = {}
    first = em.replay(kept, "pass", body, 0x8000)
    memo = em.region._inst_cache
    assert {inst.op for inst in memo.values()} == {
        OpClass.FADD_DP, OpClass.BRANCH
    }
    assert all(
        inst in memo.values()
        for inst in first
        if inst.op not in _MEMORY_OPS
    )
    # Outside a stretch a load is memoized as before.
    em.jump(0)
    load = em.load(0x9000)
    assert load in memo.values()
    em.jump(0)
    assert em.load(0x9000) is load


def test_a_failed_stretch_leaves_the_memo_on():
    """A stretch that is refused mid-generation does not leave the
    emitter skipping the memo."""
    from repro.errors import WorkloadError

    em = Emitter(CodeRegion("loop", 0x1000, 8))

    def body(em):
        yield em.load(0x8000)
        yield em.load(0x8008, want_value=True)

    with pytest.raises(WorkloadError):
        em.replay({}, "bad", body)
    em.jump(0)
    load = em.load(0x8000)
    assert load in em.region._inst_cache.values()


def test_pc_of_is_one_int_per_slot():
    region = CodeRegion("f", 0x0040_0000, 8)
    for index in range(-8, 32):
        assert region.pc_of(index) is region.pc_of(index % 8)
        assert region.pc_of(index) == 0x0040_0000 + 4 * (index % 8)


def test_stretch_instructions_share_pcs(monkeypatch):
    """Ocean's sweeps are thousands of instructions over one 64-slot
    region: they carry 64 pc objects between them."""
    _, stretches = _run_with_stretches("ocean", monkeypatch)
    pcs = {
        id(inst.pc) for stretch in stretches for inst in stretch.instructions
    }
    assert sum(len(stretch.instructions) for stretch in stretches) > 1000
    assert len(pcs) <= 64


def _columns(rows: int) -> tuple[list[array], list[array]]:
    pattern = [int(kind) for kind in AccessKind][:3]
    kinds = array("b", (pattern[i % 3] for i in range(rows)))
    addrs = array("q", (0x1000_0000 + 8 * i for i in range(rows)))
    return [kinds], [addrs]


def _write_peak(tmp_path, rows: int) -> int:
    kinds, addrs = _columns(rows)
    path = tmp_path / f"{rows}.trace"
    tracemalloc.start()
    try:
        assert write_columns(path, kinds, addrs) == rows
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_columns_peak_does_not_grow_with_the_trace(tmp_path):
    small = _write_peak(tmp_path, 20_000)
    large = _write_peak(tmp_path, 80_000)
    assert large <= small + 64 * 1024


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recording_packs_at_nine_bytes_a_reference(name, tmp_path):
    """Every stock address and pc fits 32 bits, so a decoded recording
    is a 1-byte kind and two 4-byte columns a reference — the memo's
    copy, each replaying CPU's, and the sidecar's body."""
    n_cpus = 4
    path = TraceStore(tmp_path).record(name, "test", n_cpus)
    packed = kernel.load_packed(n_cpus, path)
    held = sum(
        column.itemsize * len(column)
        for columns in (packed.kinds, packed.addrs, packed.pcs)
        for column in columns
    )
    assert held <= 9 * len(packed)
    header = len(kernel._SIDECAR_MAGIC) + 4 + 8 * (5 + n_cpus)
    sidecar = kernel._sidecar_path(path, n_cpus)
    assert sidecar.stat().st_size <= header + 9 * len(packed)
