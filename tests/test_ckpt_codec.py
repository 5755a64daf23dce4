"""The codec table: coverage by construction, fixed point, refusals.

``repro.ckpt.snapshot.CODECS`` says once, per stateful class, what
travels through a ``repro.ckpt/1`` blob; ``repro.ckpt.codec`` walks it
in both directions. This suite holds three things on every preset ×
CPU model × observability setting:

* every class a system can reach has exactly one row, and a class
  without one is refused by name;
* ``snapshot → json → restore → snapshot`` is a fixed point;
* every refusal the two modules can raise is triggered here or in
  ``tests/test_ckpt.py`` (the list is the ``REFUSALS`` table below plus
  the protocol tests at the end).
"""

from __future__ import annotations

import copy
import json

import pytest
from conftest import LoopWorkload
from test_ckpt import build_system

from repro.ckpt import restore_system, snapshot_system
from repro.ckpt.codec import Format
from repro.ckpt.snapshot import CODECS
from repro.core.configs import config_for_scale
from repro.core.system import System
from repro.cpu.mipsy import MipsyCpu
from repro.cpu.mxs.core import _Record
from repro.errors import CheckpointError
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import get_preset, topology_names
from repro.obs import ObsConfig
from repro.trace.replay import TraceCpu

MATRIX = [
    (arch, cpu_model, observed)
    for arch in topology_names()
    for cpu_model in ("mipsy", "mxs")
    for observed in (False, True)
]


def build(arch, cpu_model="mipsy", observed=False, workload="fft"):
    obs = ObsConfig(sample_interval=256, events=True) if observed else None
    return build_system(
        arch, cpu_model, workload=workload, obs=obs,
        n_cpus=get_preset(arch).default_cpus,
    )


def paused(*args, at=1500, **kwargs):
    system = build(*args, **kwargs)
    system.run(pause_at=at)
    assert system.paused
    return system


def through_json(state):
    return json.loads(json.dumps(state))


# ----------------------------------------------------------------------
# The vocabulary on its own: a toy format, no simulator class in sight


def test_the_vocabulary_round_trips_a_toy_format():
    from collections import deque

    from repro.ckpt import codec

    class Wheel:
        def __init__(self):
            self.turns, self._wear = 0, deque()

    class Cart:
        def __init__(self):
            self.wheels = [Wheel(), Wheel()]
            self.load, self._tare, self.spare = 0, 0, None

    fmt = codec.Format({
        Wheel: codec.Codec(
            (codec.plain("turns"), codec.fill("wear", "_wear", list)),
            "positional",
        ),
        Cart: codec.Codec((
            codec.const("kind", "cart"),
            codec.part("wheels"),
            codec.part("spare", optional=True),
            codec.sub("mass", codec.plain("load", also="_tare")),
        )),
    })
    cart = Cart()
    cart.load = 7
    cart.wheels[1].turns = 3
    cart.wheels[1]._wear.extend([1, 2])
    wire = fmt.encode(cart)
    assert wire == {
        "kind": "cart", "wheels": [[0, []], [3, [1, 2]]], "mass": {"load": 7},
    }
    fresh = Cart()
    worn = fresh.wheels[1]._wear
    fmt.restore(fresh, through_json(wire), "cart")
    assert fmt.encode(fresh) == wire
    assert fresh._tare == 7 and fresh.wheels[1]._wear is worn
    with pytest.raises(CheckpointError, match=r"cart\.wheels\[0\]: 2 columns"):
        fmt.restore(Cart(), {**wire, "wheels": [[0], [3, []]]}, "cart")


# ----------------------------------------------------------------------
# (a) coverage by construction


def _flat(part):
    if isinstance(part, (list, tuple)):
        for item in part:
            yield from _flat(item)
    elif isinstance(part, dict):
        yield from _flat(list(part.values()))
    elif part is not None and not isinstance(part, (int, str)):
        yield part


@pytest.mark.parametrize("arch,cpu_model,observed", MATRIX)
def test_every_reachable_class_has_a_row(arch, cpu_model, observed):
    system = paused(arch, cpu_model, observed)
    declared = [
        system.stats,
        system.functional,
        system.memory.components(),
        system.cpus,
        system.workload.sync_objects(),
        system.obs,
    ]
    classes = {type(part) for part in _flat(declared)}
    assert classes and classes <= set(CODECS)
    # What those rows reach in turn (banks, BTBs, the sampler, ...) is
    # walked by the encoder, which refuses a class without a row.
    snapshot_system(system)


def test_rows_are_by_exact_class():
    # Lookup is by exact type, so no row can shadow (or silently stand
    # in for) another class's — not even its base's: a subclass travels
    # by a row of its own (TraceCpu's beside MipsyCpu's) or is refused.
    walker = Format(CODECS)
    for cls in CODECS:
        unlisted = type(f"Unlisted{cls.__name__}", (cls,), {})
        with pytest.raises(CheckpointError, match="it has no codec row"):
            walker.encode(unlisted.__new__(unlisted))
    assert CODECS[TraceCpu] is not CODECS[MipsyCpu]


def test_a_class_without_a_row_is_refused_by_name(monkeypatch):
    from repro.mem.bank import Resource

    class Widget:
        pass

    class TurboResource(Resource):
        pass

    system = paused("shared-l2")
    declared = system.memory.components()
    for stranger in (Widget(), [TurboResource("turbo")]):
        monkeypatch.setattr(
            system.memory, "components",
            lambda: {**declared, "widget": stranger},
        )
        name = type(list(_flat(stranger))[0]).__name__
        with pytest.raises(
            CheckpointError,
            match=f"cannot checkpoint memory component of type {name}",
        ):
            snapshot_system(system)


# ----------------------------------------------------------------------
# (b) the fixed point


@pytest.mark.parametrize("arch,cpu_model,observed", MATRIX)
def test_snapshot_restore_snapshot_is_a_fixed_point(
    arch, cpu_model, observed
):
    state = through_json(snapshot_system(paused(arch, cpu_model, observed)))
    assert state["engine"] == {"now": 0, "seq": 0}
    fresh = build(arch, cpu_model, observed)
    restore_system(fresh, state)
    assert through_json(snapshot_system(fresh)) == state


def test_restoring_does_not_alias_the_snapshot():
    # A restored system keeps running; the blob it came from must not
    # move with it (the same state may be restored again).
    state = through_json(snapshot_system(paused("shared-l2", observed=True)))
    pristine = copy.deepcopy(state)
    fresh = build("shared-l2", observed=True)
    restore_system(fresh, state)
    fresh.run()
    assert state == pristine


# ----------------------------------------------------------------------
# (c) the refusals of a tampered blob, each by the message that names
# the place: (what, build arguments, tamper, expected message)


def _first(mapping):
    return next(iter(sorted(mapping)))


def _set(path, value):
    def tamper(state):
        *parents, last = path
        for key in parents:
            state = state[key]
        state[last] = value

    return tamper


def _drop(*path):
    def tamper(state):
        *parents, last = path
        for key in parents:
            state = state[key]
        del state[last]

    return tamper


def _bump_line_shift(state):
    state["memory"]["_line_shift"] += 1


def _rekind(state):
    state["sync"][_first(state["sync"])]["kind"] = "taskqueue"


def _drop_cache_stats(state):
    del state["stats"]["caches"][_first(state["stats"]["caches"])]


REFUSALS = [
    # name sets
    ("memory component missing", {}, _drop("memory", "directory"),
     r"memory: name mismatch.*only-live=\['directory'\]"),
    ("memory component surplus", {}, _set(("memory", "widget"), 1),
     r"memory: name mismatch.*only-checkpoint=\['widget'\]"),
    ("sync names", {}, _set(("sync", "ghost"), {"kind": "lock"}),
     r"sync: name mismatch.*only-checkpoint=\['ghost'\]"),
    ("cache-stats names", {}, _drop_cache_stats,
     r"stats\.caches: name mismatch"),
    ("sampler probes", {"observed": True},
     _set(("obs", "sampler", "series", "ghost"), []),
     r"obs\.sampler\.series: name mismatch"),
    # constants
    ("geometry constant", {}, _bump_line_shift,
     r"memory\._line_shift: constant mismatch: 5 live vs 6"),
    ("sampler interval", {"observed": True},
     _set(("obs", "sampler", "interval"), 999),
     r"obs\.sampler\.interval: constant mismatch"),
    ("stats n_cpus", {}, _set(("stats", "n_cpus"), 2),
     r"stats\.n_cpus: constant mismatch"),
    ("sync kind", {}, _rekind, r"sync\..*\.kind: constant mismatch"),
    # surplus / missing state
    ("state for an absent part", {"arch": "shared-l1"},
     _set(("memory", "_shadow_xbar"), {"banks": []}),
     r"memory\._shadow_xbar: checkpoint carries state"),
    ("no state for a live part", {}, _set(("memory", "mem"), None),
     r"memory\.mem: checkpoint has no state for a live MainMemory"),
    ("optional part left out", {"observed": True}, _drop("obs", "sampler"),
     r"obs\.sampler: checkpoint has no state for a live UtilizationSampler"),
    ("missing wire name", {}, _drop("memory", "mem", "reads"),
     r"memory\.mem: checkpoint has no 'reads'"),
    ("missing cpu field", {}, _drop("cpus", 0, "resume"),
     r"cpus\[0\]: checkpoint has no 'resume'"),
    # shapes
    ("list length", {}, lambda state: state["memory"]["l1i"].pop(),
     r"memory\.l1i: list length mismatch: 4 live vs 3"),
    ("positional columns", {},
     lambda state: state["memory"]["mem"]["banks"][0].pop(),
     r"memory\.mem\.banks\[0\]: 4 columns live vs 3"),
    ("cache geometry", {},
     lambda state: state["memory"]["l1i"][0]["sets"].pop(),
     r"cache 'cpu0\.l1i' geometry mismatch"),
    # the frozen engine section
    ("engine state", {}, _set(("engine",), {"now": 7, "seq": 1}),
     r"event-engine state \{'now': 7, 'seq': 1\}"),
    ("engine section missing", {}, _drop("engine"),
     r"event-engine state None"),
]

_SNAPSHOTS: dict = {}


@pytest.mark.parametrize(
    "kwargs,tamper,message",
    [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_tampered_blob_is_refused(kwargs, tamper, message):
    kwargs = {"arch": "shared-l2", **kwargs}
    key = tuple(sorted(kwargs.items()))
    if key not in _SNAPSHOTS:
        _SNAPSHOTS[key] = through_json(snapshot_system(paused(**kwargs)))
    state = copy.deepcopy(_SNAPSHOTS[key])
    tamper(state)
    with pytest.raises(CheckpointError, match=message):
        restore_system(build(**kwargs), state)


def test_surplus_optional_part_is_refused():
    state = snapshot_system(paused("shared-l2", observed=True))
    sampled_only = build_system(
        "shared-l2", "mipsy", obs=ObsConfig(sample_interval=256)
    )
    with pytest.raises(
        CheckpointError, match=r"obs\.timeline: checkpoint carries state"
    ):
        restore_system(sampled_only, state)


# ----------------------------------------------------------------------
# (c) the replay log and the pipeline


def _loop_system(checkpointing=True):
    return System(
        "shared-l2",
        LoopWorkload(4, FunctionalMemory(), iterations=3),
        mem_config=config_for_scale("test", 4),
        checkpointing=checkpointing,
    )


def _loop_snapshot():
    system = _loop_system()
    system.run(pause_at=300)
    return snapshot_system(system)


def test_replay_refuses_a_program_that_ends_early():
    state = _loop_snapshot()
    state["cpus"][1]["replay"]["advances"] += 1_000_000
    with pytest.raises(CheckpointError, match="cpu 1: .*ended early"):
        restore_system(_loop_system(), state)


def test_replay_refuses_a_program_that_outlives_its_end():
    state = _loop_snapshot()
    assert not state["cpus"][2]["program_done"]
    state["cpus"][2]["program_done"] = True
    with pytest.raises(CheckpointError, match="cpu 2: .*kept producing"):
        restore_system(_loop_system(), state)


def test_replay_refuses_unconsumed_values():
    state = _loop_snapshot()
    state["cpus"][0]["replay"]["log"].append(7)
    with pytest.raises(CheckpointError, match="replay consumed 0 of 1"):
        restore_system(_loop_system(), state)


def test_replay_refuses_an_exhausted_log():
    state = through_json(snapshot_system(paused("shared-l2", at=4000)))
    cpu = next(
        index for index, recorded in enumerate(state["cpus"])
        if recorded["replay"]["log"]
    )
    state["cpus"][cpu]["replay"]["log"].clear()
    with pytest.raises(
        CheckpointError, match=f"cpu {cpu}: replay log exhausted"
    ):
        restore_system(build("shared-l2"), state)


def test_snapshot_refuses_a_blocked_record_outside_the_rob():
    system = paused("shared-mem", "mxs")
    cpu = system.cpus[0]
    cpu._blocked_record = _Record(0, None)
    with pytest.raises(
        CheckpointError, match="cpu 0: blocked record is not in the ROB"
    ):
        snapshot_system(system)


# ----------------------------------------------------------------------
# (c) the protocol checks tests/test_ckpt.py does not reach


def test_snapshot_refuses_a_cpu_that_recorded_nothing():
    system = paused("shared-l2")
    system.cpus[3]._ckpt_log = None
    with pytest.raises(CheckpointError, match="replay logs were not recorded"):
        snapshot_system(system)


def test_restore_refuses_a_target_without_checkpointing():
    state = _loop_snapshot()
    with pytest.raises(
        CheckpointError, match="must be built with checkpointing=True"
    ):
        restore_system(_loop_system(checkpointing=False), state)


def test_restore_refuses_another_cpu_count():
    state = snapshot_system(paused("shared-l2"))
    eight = build_system("shared-l2", "mipsy", n_cpus=8)
    with pytest.raises(CheckpointError, match="mismatch on n_cpus"):
        restore_system(eight, state)
