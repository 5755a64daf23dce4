"""Tests for the data address-space layout."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.layout import DATA_BASE, KERNEL_BASE, AddressSpace


def test_allocations_do_not_overlap():
    space = AddressSpace()
    a = space.alloc(100)
    b = space.alloc(50)
    assert a + 100 <= b


def test_alignment():
    space = AddressSpace()
    space.alloc(3)
    b = space.alloc(8, align=64)
    assert b % 64 == 0


def test_alloc_array_is_line_aligned():
    space = AddressSpace(line_size=32)
    space.alloc(5)
    base = space.alloc_array(10, 8)
    assert base % 32 == 0


def test_alloc_line_gives_whole_lines():
    space = AddressSpace(line_size=32)
    first = space.alloc_line()
    second = space.alloc_line()
    assert second - first == space.SYNC_PAD
    assert first % space.SYNC_PAD == 0


def test_alloc_at_fixed_address():
    space = AddressSpace(base=0x1000)
    space.alloc(64)
    addr = space.alloc_at(0x9000, 128)
    assert addr == 0x9000
    nxt = space.alloc(8)
    assert nxt >= 0x9000 + 128


def test_alloc_at_rejects_overlap():
    space = AddressSpace(base=0x1000)
    space.alloc(0x100)
    with pytest.raises(WorkloadError):
        space.alloc_at(0x1000, 32)


def test_bad_sizes_rejected():
    space = AddressSpace()
    with pytest.raises(WorkloadError):
        space.alloc(0)
    with pytest.raises(WorkloadError):
        space.alloc(8, align=3)
    with pytest.raises(WorkloadError):
        space.alloc_at(space.base + 64, 0)


def test_fork_is_disjoint():
    space = AddressSpace()
    space.alloc(1000)
    other = space.fork(1 << 24)
    a = other.alloc(100)
    assert a >= space.base + (1 << 24)


def test_used_bytes():
    space = AddressSpace()
    space.alloc(100, align=8)
    assert space.used_bytes >= 100


def test_segment_bases_are_staggered_in_a_direct_mapped_l2():
    """Text (0x400000), data and kernel bases must not map to the same
    sets of a 256 KB direct-mapped cache (DESIGN.md layout rule)."""
    l2_way = 256 * 1024
    offsets = {0x0040_0000 % l2_way, DATA_BASE % l2_way, KERNEL_BASE % l2_way}
    assert len(offsets) == 3


# ----------------------------------------------------------------------
# Source layout (grep level): each walk and each layer exists once


def _source_lines():
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            yield relative, number, line


def test_one_sync_object_traversal():
    # Workload.sync_objects() is the walk the report and checkpointing
    # share; a second ``def visit`` is a second walk.
    found = [
        f"{path}:{number}" for path, number, line in _source_lines()
        if "def visit" in line
    ]
    assert found == [f for f in found if f.startswith("workloads/base.py")]
    assert len(found) == 1, found


def test_the_event_engine_is_referenced_only_inside_repro_sim():
    import re

    mention = re.compile(r"\bEngine\b|\.engine\b")
    outside = [
        f"{path}:{number}" for path, number, line in _source_lines()
        if mention.search(line) and not path.startswith("sim/")
    ]
    assert outside == []


def test_no_lane_flag_beside_the_declining_lanes():
    # "No lane" is said one way: MemorySystem keeps its declining lanes.
    found = [
        f"{path}:{number}" for path, number, line in _source_lines()
        if "_fast_lane" in line
    ]
    assert found == []


#: the second interface once kept beside each memory seam: CacheArray's
#: byte-address object API, the per-reference lanes (``fast_lanes`` is
#: the one way to them) and the limited recorder
SECOND_INTERFACES = {
    "cache": (
        "lookup", "insert", "invalidate", "downgrade", "classify_miss",
        "contains", "state_of", "lines", "flush", "resident_count",
        "set_occupancy", "probe_quiet", "set_state", "classify_line",
        "line_addr_of", "set_index_of",
    ),
    "hierarchy": ("fast_ifetch", "fast_load", "fast_store", "batchable"),
    "recorder": ("limit", "_limit", "batchable"),
}


@pytest.mark.parametrize("seam", sorted(SECOND_INTERFACES))
def test_one_interface_per_seam(seam):
    import repro.core.configs  # noqa: F401  (imports every hierarchy)
    from repro.mem import cache
    from repro.mem.hierarchy import MemorySystem
    from repro.trace.recorder import TraceRecorder

    if seam == "cache":
        owners = [cache.CacheArray]
        assert not hasattr(cache, "CacheLine")
    elif seam == "hierarchy":
        owners = [MemorySystem] + [
            sub for sub in MemorySystem.__subclasses__()
            if sub.__module__.startswith("repro.")
        ]
    else:
        owners = [TraceRecorder]
    found = [
        f"{owner.__name__}.{name}"
        for owner in owners
        for name in SECOND_INTERFACES[seam]
        if hasattr(owner, name)
    ]
    assert found == []


def test_no_process_lifetime_stretch_storage_in_workloads():
    # A stretch lives as long as the dict ``Emitter.replay`` is handed
    # to keep it in: a local of the thread program or an attribute of
    # the instance — never a name bound at module (column 0) or class
    # (column 4) level, which would outlive the workload and carry one
    # run's instructions into the next.
    import re
    from pathlib import Path

    import repro.workloads

    kept_in = re.compile(r"\.replay\(\s*(?:self\.)?(\w+)")
    found = 0
    for path in sorted(Path(repro.workloads.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in set(kept_in.findall(text)):
            found += 1
            shared = re.search(rf"^(?:    )?{name}\b[^=\n]*=[^=]", text, re.M)
            assert shared is None, f"{path.name}: {name} outlives its workload"
    assert found
