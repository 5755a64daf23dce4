"""Tests for busy-timeline resources and banking."""

import pytest

from repro.errors import ConfigError
from repro.mem.bank import BankedResource, Resource


def test_idle_resource_starts_immediately():
    res = Resource("r")
    assert res.acquire(10, occupancy=3) == 10
    assert res.next_free == 13


def test_busy_resource_queues():
    res = Resource("r")
    res.acquire(10, 3)
    assert res.acquire(11, 3) == 13
    assert res.next_free == 16
    assert res.wait_cycles == 2


def test_late_request_after_idle_gap():
    res = Resource("r")
    res.acquire(10, 3)
    assert res.acquire(100, 3) == 100


def test_busy_accounting_and_utilization():
    res = Resource("r")
    res.acquire(0, 4)
    res.acquire(0, 4)
    assert res.busy_cycles == 8
    assert res.requests == 2
    assert res.utilization(16) == 0.5


def test_banked_resource_bank_selection_interleaves_lines():
    banks = BankedResource("b", n_banks=4, line_size=32)
    assert banks.bank_index(0) == 0
    assert banks.bank_index(32) == 1
    assert banks.bank_index(64) == 2
    assert banks.bank_index(96) == 3
    assert banks.bank_index(128) == 0
    # same line, different offset -> same bank
    assert banks.bank_index(33) == 1


def test_banked_resource_independent_banks():
    banks = BankedResource("b", n_banks=2, line_size=32)
    assert banks.acquire(0, at=5, occupancy=4) == 5
    # different bank: no queueing
    assert banks.acquire(32, at=5, occupancy=4) == 5
    # same bank as first: queues
    assert banks.acquire(64, at=5, occupancy=4) == 9


def test_banked_resource_aggregates():
    banks = BankedResource("b", n_banks=2, line_size=32)
    banks.acquire(0, 0, 3)
    banks.acquire(32, 0, 3)
    assert banks.busy_cycles == 6
    assert banks.requests == 2


def test_banked_resource_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        BankedResource("b", n_banks=3, line_size=32)
    with pytest.raises(ConfigError):
        BankedResource("b", n_banks=4, line_size=33)
