"""Tests for the snoopy bus, crossbar, and main-memory models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.bus import BusTiming, SnoopyBus
from repro.mem.crossbar import Crossbar
from repro.mem.mainmem import MainMemory


# ----------------------------------------------------------------------
# bus


def test_bus_memory_read_timing():
    bus = SnoopyBus()
    assert bus.memory_read(10) == 60  # 50-cycle latency
    assert bus.mem_reads == 1


def test_bus_serializes_transactions():
    bus = SnoopyBus()
    bus.memory_read(0)   # occupies 0..6
    done = bus.memory_read(0)
    assert done == 56    # starts at 6
    assert bus.busy_cycles == 12


def test_bus_cache_to_cache_costs_more_than_memory():
    timing = BusTiming()
    assert timing.c2c_latency > timing.mem_latency
    assert timing.c2c_occupancy > timing.mem_occupancy
    bus = SnoopyBus(timing)
    assert bus.cache_to_cache(0) == timing.c2c_latency
    assert bus.c2c_transfers == 1


def test_bus_upgrade_and_writeback_counted():
    bus = SnoopyBus()
    bus.upgrade(0)
    bus.write_back(0)
    assert bus.upgrades == 1
    assert bus.writebacks == 1
    assert bus.transactions == 2


# ----------------------------------------------------------------------
# crossbar


def make_xbar(**kwargs):
    defaults = dict(
        name="x", n_banks=4, line_size=32, stage_latencies=(14,),
        occupancy=4, n_ports=4,
    )
    defaults.update(kwargs)
    return Crossbar(**defaults)


def test_crossbar_latency():
    xbar = make_xbar()
    assert xbar.make_lane(0)(0, 10) == 24
    assert xbar.wait_cycles == 0


def test_crossbar_bank_conflict():
    xbar = make_xbar()
    xbar.make_lane(0)(0, 0)
    ready = xbar.make_lane(1)(0, 0)  # same bank, other port
    assert xbar.wait_cycles == 4
    assert ready == 4 + 14


def test_crossbar_port_conflict():
    xbar = make_xbar()
    lane = xbar.make_lane(0)
    lane(0, 0)
    lane(32, 0)  # other bank, same port
    assert xbar.wait_cycles == 4


def test_crossbar_disjoint_port_bank_pairs_do_not_conflict():
    xbar = make_xbar()
    xbar.make_lane(0)(0, 0)
    assert xbar.make_lane(1)(32, 0) == 14
    assert xbar.wait_cycles == 0


def test_crossbar_word_write_occupancy_override():
    xbar = make_xbar()
    xbar.make_lane(0, occupancy=1)(0, 0)
    xbar.make_lane(1)(0, 0)
    assert xbar.wait_cycles == 1  # only one cycle held, not four


def test_crossbar_conflict_cycles_accounted():
    xbar = make_xbar()
    xbar.make_lane(0)(0, 0)
    xbar.make_lane(1)(0, 0)
    assert xbar.wait_cycles == 4
    assert xbar.requests == 2


def _reference_transits(stages, n_ports, n_banks, line, requests):
    """The crossbar timing rule, written out on its own: a request's
    route is its port, one switch per stage before the last (CPUs
    grouped ``4**(s + 1)`` per stage-``s`` switch) and its bank; it
    starts when the whole route is free and holds each hop ``hold``
    cycles. Returns each data-ready cycle, the total wait and every
    touched hop's ``[busy, requests, next_free]``."""
    hops, ready, waited = {}, [], 0
    for port, addr, at, hold in requests:
        route = [("port", port)] + [
            ("sw", s, (port // 4 ** (s + 1)) % max(n_ports // 4 ** (s + 1), 1))
            for s in range(len(stages) - 1)
        ] + [("bank", (addr // line) % n_banks)]
        start = max([at] + [hops.get(hop, [0, 0, 0])[2] for hop in route])
        for hop in route:
            busy, count, _ = hops.get(hop, [0, 0, 0])
            hops[hop] = [busy + hold, count + 1, start + hold]
        waited += start - at
        ready.append(start + sum(stages))
    return ready, waited, hops


@settings(max_examples=200, deadline=None)
@given(
    stages=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    n_ports=st.sampled_from((4, 16, 64)),
    occupancy=st.integers(1, 4),
    data=st.data(),
)
def test_crossbar_lane_matches_a_reference_model(
    stages, n_ports, occupancy, data
):
    requests = data.draw(st.lists(
        st.tuples(
            st.integers(0, n_ports - 1),
            st.integers(0, 1023),
            st.integers(0, 60),
            st.sampled_from((None, 1, 2, 5)),
        ),
        max_size=40,
    ))
    xbar = make_xbar(
        stage_latencies=stages, occupancy=occupancy, n_ports=n_ports
    )
    lanes = {}
    ready = []
    for port, addr, at, hold in requests:
        if (port, hold) not in lanes:
            lanes[port, hold] = xbar.make_lane(port, hold)
        ready.append(lanes[port, hold](addr, at))
    held = [
        (port, addr, at, occupancy if hold is None else hold)
        for port, addr, at, hold in requests
    ]
    expected, waited, hops = _reference_transits(
        stages, n_ports, 4, 32, held
    )
    assert ready == expected
    assert xbar.wait_cycles == waited
    live = {("port", i): res for i, res in enumerate(xbar.ports)}
    live.update(
        (("bank", i), res) for i, res in enumerate(xbar.banks.banks)
    )
    live.update(
        (("sw", s, i), res)
        for s, column in enumerate(xbar.switches)
        for i, res in enumerate(column)
    )
    assert len(xbar.switches) == len(stages) - 1
    for hop, res in live.items():
        assert [res.busy_cycles, res.requests, res.next_free] == hops.get(
            hop, [0, 0, 0]
        ), hop


# ----------------------------------------------------------------------
# main memory


def test_mainmem_latency_and_occupancy():
    mem = MainMemory(latency=50, occupancy=6, n_banks=1, line_size=32)
    assert mem.access(0, at=0) == 50
    assert mem.access(32, at=0) == 56  # queued behind the first
    assert mem.reads == 2


def test_mainmem_writeback_is_posted():
    mem = MainMemory(latency=50, occupancy=6, n_banks=1, line_size=32)
    done = mem.write_back(0, at=0)
    assert done == 6  # bank-free time, not data latency
    assert mem.writes == 1
    # a later read queues behind the writeback
    assert mem.access(32, at=0) == 56


def test_mainmem_banks_overlap():
    mem = MainMemory(latency=50, occupancy=6, n_banks=2, line_size=32)
    assert mem.access(0, at=0) == 50
    assert mem.access(32, at=0) == 50  # different bank
    assert mem.accesses == 2
