"""The resolved ``Topology`` is the only source of hierarchy geometry.

Three coherence disciplines build every machine from its spec, so:

* a preset's resolved spec under another ``name`` is the same machine,
  and every level field a discipline accepts (size, latency, banks)
  moves the simulated numbers when it changes;
* any *legal* perturbation of a preset (Hypothesis draws sizes,
  associativities, banks, latencies, stage lists and 2–16 CPUs) keeps
  the standing contracts: fast lane on/off bit-identical, the
  conservation and protocol oracle (``repro.core.selfcheck``), checkpoint
  round trip;
* a shape a discipline cannot honour is a ``ConfigError`` naming the
  field, never a silently ignored value.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ckpt import restore_system, snapshot_system
from repro.core.configs import build_memory, config_for_scale
from repro.core.selfcheck import check_run
from repro.core.system import System
from repro.errors import ConfigError
from repro.mem.functional import FunctionalMemory
from repro.mem.topology import (
    Interconnect,
    get_preset,
    resolve_topology,
    topology_names,
)
from repro.sim.stats import SystemStats
from repro.workloads import synthetic

# ----------------------------------------------------------------------
# spec surgery


def with_level(spec, name, **changes):
    """``spec`` with fields of level ``name`` replaced. A new latency
    or occupancy on the level the interconnect fronts is mirrored there
    (stage latencies rescaled in proportion) so the spec stays legal."""
    fronted = next(
        (level for level in spec.levels if level.arrays(spec.n_cpus) == 1),
        None,
    )
    levels = tuple(
        dataclasses.replace(level, **changes) if level.name == name else level
        for level in spec.levels
    )
    link = spec.interconnect
    if fronted is not None and fronted.name == name:
        if "latency" in changes:
            scale = changes["latency"] // fronted.latency
            assert scale * fronted.latency == changes["latency"]
            link = dataclasses.replace(
                link,
                stage_latencies=tuple(s * scale for s in link.stage_latencies),
            )
        if "occupancy" in changes:
            link = dataclasses.replace(link, occupancy=changes["occupancy"])
    return dataclasses.replace(spec, levels=levels, interconnect=link)


def with_link(spec, **changes):
    return dataclasses.replace(
        spec, interconnect=dataclasses.replace(spec.interconnect, **changes)
    )


def shrunk(spec, name, divisor):
    return with_level(spec, name, size=spec.level(name).size // divisor)


def slowed(spec, name, factor):
    return with_level(spec, name, latency=spec.level(name).latency * factor)


def workload(n_cpus, **overrides):
    params = dict(private_bytes=4096, shared_bytes=2048, phases=3, grain=48)
    params.update(overrides)
    return synthetic.make(n_cpus, FunctionalMemory(), "test", **params)


def build(arch, n_cpus, cpu_model="mipsy", **config):
    return System(
        arch,
        workload(n_cpus),
        cpu_model=cpu_model,
        mem_config=config_for_scale("test", n_cpus, **config),
        checkpointing=True,
    )


def run(arch, n_cpus, cpu_model="mipsy"):
    return build(arch, n_cpus, cpu_model).run().to_dict()


# ----------------------------------------------------------------------
# (a) the spec is the truth

#: preset -> (CPUs, CPU model, perturbations that must move the stats).
#: shared-l1 runs under MXS: Mipsy's optimistic fiat makes its crossbar
#: (latency, banks) inert by the paper's own choice.
PERTURBATIONS = {
    "shared-l1": (
        4,
        "mxs",
        {
            "l1d.size": lambda s: shrunk(s, "l1d", 4),
            "l1d.latency": lambda s: slowed(s, "l1d", 2),
            "l1d.banks": lambda s: with_level(s, "l1d", banks=1),
            "l2.size": lambda s: shrunk(s, "l2", 16),
            "l2.latency": lambda s: slowed(s, "l2", 3),
        },
    ),
    "cluster-l1": (
        8,
        "mipsy",
        {
            "l1d.size": lambda s: shrunk(s, "l1d", 8),
            "l1d.latency": lambda s: slowed(s, "l1d", 2),
            "l1d.banks": lambda s: with_level(s, "l1d", banks=1),
            "l2.size": lambda s: shrunk(s, "l2", 16),
            "l2.latency": lambda s: slowed(s, "l2", 3),
        },
    ),
    "shared-l2": (
        4,
        "mipsy",
        {
            "l1d.size": lambda s: shrunk(s, "l1d", 4),
            "l2.size": lambda s: shrunk(s, "l2", 16),
            "l2.latency": lambda s: slowed(s, "l2", 3),
            "l2.banks": lambda s: with_level(s, "l2", banks=1),
            # the issue's example: 1/8 size, latency 14 -> 42, one bank
            "l2.all": lambda s: with_level(
                shrunk(slowed(s, "l2", 3), "l2", 8), "l2", banks=1
            ),
        },
    ),
    "shared-l3": (
        4,
        "mipsy",
        {
            "l1d.size": lambda s: shrunk(s, "l1d", 4),
            "l2.size": lambda s: shrunk(s, "l2", 8),
            "l2.latency": lambda s: slowed(s, "l2", 3),
            "l3.size": lambda s: shrunk(s, "l3", 64),
            "l3.latency": lambda s: slowed(s, "l3", 2),
            "l3.banks": lambda s: with_level(s, "l3", banks=1),
        },
    ),
    "shared-mem": (
        4,
        "mipsy",
        {
            "l1d.size": lambda s: shrunk(s, "l1d", 4),
            "l2.size": lambda s: shrunk(s, "l2", 16),
            "l2.latency": lambda s: slowed(s, "l2", 3),
            "bus.latency": lambda s: with_link(
                s, stage_latencies=(2 * s.interconnect.latency,)
            ),
        },
    ),
}


def test_every_preset_has_perturbations():
    assert set(PERTURBATIONS) == set(topology_names())


@pytest.fixture(scope="module")
def stock():
    """Stats of each stock preset, run once per module."""
    return {
        arch: run(arch, n_cpus, cpu_model)
        for arch, (n_cpus, cpu_model, _moves) in PERTURBATIONS.items()
    }


@pytest.mark.parametrize("arch", PERTURBATIONS)
def test_relabelled_spec_is_the_same_machine(arch, stock):
    n_cpus, cpu_model, _moves = PERTURBATIONS[arch]
    spec = resolve_topology(arch, config_for_scale("test", n_cpus))
    renamed = dataclasses.replace(spec, name="bespoke")
    assert run(renamed, n_cpus, cpu_model) == stock[arch]


@pytest.mark.parametrize(
    "arch,field",
    [
        (arch, field)
        for arch, (_n_cpus, _cpu_model, moves) in PERTURBATIONS.items()
        for field in moves
    ],
)
def test_every_level_field_moves_the_numbers(arch, field, stock):
    n_cpus, cpu_model, moves = PERTURBATIONS[arch]
    spec = resolve_topology(arch, config_for_scale("test", n_cpus))
    changed = dataclasses.replace(moves[field](spec), name="bespoke")
    assert changed != dataclasses.replace(spec, name="bespoke")
    assert run(changed, n_cpus, cpu_model) != stock[arch]


@pytest.mark.parametrize("arch", PERTURBATIONS)
def test_built_paths_do_not_refer_back_to_their_system(arch):
    """The paths are closures stored on the system; one that captured
    the system would park every dead hierarchy — megabytes of cache
    columns at bench scale — until the cyclic collector's next pass."""
    n_cpus = PERTURBATIONS[arch][0]
    gc.disable()
    try:
        memory = build_memory(
            arch, config_for_scale("test", n_cpus), SystemStats.for_cpus(n_cpus)
        )
        gone = weakref.ref(memory)
        del memory
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("arch", ("shared-l2", "shared-l3"))
def test_update_coherence_applies_at_any_private_depth(arch, stock):
    # Was silently dropped on shared-l3: same cycles as invalidate
    # under a different cache key.
    system = build(arch, 4, l1_coherence="update")
    stats = system.run()
    assert stats.to_dict() != stock[arch]
    l1 = stats.aggregate_caches(".l1d")
    assert l1.updates_received > 0
    assert l1.invalidations_received == 0 and l1.misses_inval == 0
    # A refreshed copy changes value without leaving: nothing to park on.
    assert system.memory.spin_port(0) is None


# ----------------------------------------------------------------------
# (b) legal perturbations keep the contracts

_SIZE_STEPS = st.integers(min_value=-2, max_value=1)
_ASSOC = st.sampled_from((1, 2, 4))


@st.composite
def _resized(draw, level, line_size):
    """``level`` with a drawn associativity and power-of-two size."""
    assoc = draw(_ASSOC)
    step = draw(_SIZE_STEPS)
    size = level.size << step if step >= 0 else level.size >> -step
    return dataclasses.replace(
        level, assoc=assoc, size=max(size, 2 * assoc * line_size)
    )


@st.composite
def _retimed(draw, level):
    """``level`` with a drawn port latency and occupancy."""
    return dataclasses.replace(
        level,
        latency=draw(st.integers(min_value=1, max_value=24)),
        occupancy=draw(st.integers(min_value=1, max_value=4)),
    )


@st.composite
def legal_specs(draw):
    """``(spec, config)``: a registered preset at 2–16 CPUs with every
    field its discipline accepts redrawn."""
    arch = draw(st.sampled_from(topology_names()))
    n_cpus = draw(st.sampled_from((2, 4, 8, 16)))
    config = config_for_scale("test", n_cpus)
    spec = resolve_topology(arch, config)
    line = config.line_size
    levels = [draw(_resized(level, line)) for level in spec.levels]
    if spec.kind == "shared-memory":
        levels[1] = draw(_retimed(levels[1]))
        link = Interconnect(
            kind="bus",
            stage_latencies=(draw(st.integers(min_value=20, max_value=80)),),
            occupancy=draw(st.integers(min_value=2, max_value=8)),
        )
    else:
        # The level the interconnect fronts: the shared L1 of a
        # shared-primary machine, the last level of a shared-secondary.
        fronted = 0 if spec.kind == "shared-primary" else len(levels) - 1
        for index in range(1, len(levels)):
            if index != fronted:
                levels[index] = draw(_retimed(levels[index]))
        stages = tuple(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=8),
                    min_size=1,
                    max_size=3,
                )
            )
        )
        occupancy = draw(st.integers(min_value=1, max_value=4))
        levels[fronted] = dataclasses.replace(
            levels[fronted],
            latency=sum(stages),
            occupancy=occupancy,
            banks=draw(st.sampled_from((1, 2, 4, 8))),
        )
        link = Interconnect(
            kind="crossbar" if len(stages) == 1 else "multistage",
            stage_latencies=stages,
            occupancy=occupancy,
        )
    spec = dataclasses.replace(
        spec, name="drawn", levels=tuple(levels), interconnect=link
    )
    return spec, config


#: Far above any drawn run's length (a few thousand cycles): a drawn
#: run that reaches it never finishes, which is a bug.
CAP = 400_000


def _thrashed_cluster():
    """The drawn machine that once lost a barrier-count update: 16 CPUs
    on a direct-mapped 2 KB pooled L1 behind an (8, 8) two-stage link,
    where two CPUs' SCs to the barrier lock both succeeded."""
    config = config_for_scale("test", 16)
    spec = resolve_topology("cluster-l1", config)
    l1, *lower = spec.levels
    l1 = dataclasses.replace(
        l1, size=2048, assoc=1, latency=16, banks=1, occupancy=1
    )
    link = Interconnect(
        kind="multistage", stage_latencies=(8, 8), occupancy=1
    )
    spec = dataclasses.replace(
        spec, name="drawn", levels=(l1, *lower), interconnect=link
    )
    return spec, config


@given(
    legal_specs(),
    st.sampled_from(("mipsy", "mxs")),
    st.integers(min_value=0, max_value=2**16),
)
@example(_thrashed_cluster(), "mipsy", 1)
@settings(max_examples=25, deadline=None)
def test_drawn_topologies_keep_the_contracts(drawn, cpu_model, seed):
    spec, config = drawn

    def fresh(**overrides):
        return System(
            spec,
            workload(spec.n_cpus, phases=2, grain=24, seed=seed),
            cpu_model=cpu_model,
            mem_config=dataclasses.replace(config, **overrides),
            max_cycles=CAP,
            checkpointing=True,
        )

    whole = fresh()
    stats = whole.run()
    assert not whole.truncated
    baseline = stats.to_dict()
    check_run(whole, stats)

    assert fresh(l1_fast_path=False).run().to_dict() == baseline

    paused = fresh()
    paused.run(pause_at=max(stats.cycles // 2, 1))
    if paused.paused:
        state = json.loads(json.dumps(snapshot_system(paused)))
        resumed = fresh()
        restore_system(resumed, state)
        assert resumed.run().to_dict() == baseline


# ----------------------------------------------------------------------
# (c) unbuildable shapes are refused by name


def _drop_level(spec, name):
    return dataclasses.replace(
        spec, levels=tuple(l for l in spec.levels if l.name != name)
    )


def _extra_level(spec):
    last = spec.levels[-1]
    return dataclasses.replace(
        spec, levels=spec.levels + (dataclasses.replace(last, name="l9"),)
    )


#: case -> (preset, the field the error must name, mutation)
UNBUILDABLE = {
    # shared-primary
    "primary/private-l1d": (
        "shared-l1",
        "level 'l1d' sharing",
        lambda s: with_level(s, "l1d", sharing=1),
    ),
    "primary/banked-l2": (
        "shared-l1",
        "level 'l2' banks",
        lambda s: with_level(s, "l2", banks=2),
    ),
    "primary/writethrough": (
        "shared-l1",
        "level 'l1d' write_policy",
        lambda s: with_level(s, "l1d", write_policy="writethrough"),
    ),
    "primary/no-l2": (
        "shared-l1",
        "the levels",
        lambda s: _drop_level(s, "l2"),
    ),
    "primary/third-level": ("shared-l1", "the levels", _extra_level),
    "primary/direct": (
        "shared-l1",
        "interconnect kind 'direct'",
        lambda s: with_link(s, kind="direct", stage_latencies=()),
    ),
    "primary/bus": (
        "cluster-l1",
        "interconnect kind 'bus'",
        lambda s: with_link(s, kind="bus"),
    ),
    "primary/latency-mismatch": (
        "cluster-l1",
        "interconnect stage_latencies",
        lambda s: with_link(s, stage_latencies=(2, 3)),
    ),
    # shared-secondary
    "secondary/banked-private": (
        "shared-l3",
        "level 'l2' banks",
        lambda s: with_level(s, "l2", banks=2),
    ),
    "secondary/slow-l1d": (
        "shared-l2",
        "level 'l1d' latency",
        lambda s: with_level(s, "l1d", latency=2),
    ),
    "secondary/writeback-private": (
        "shared-l3",
        "level 'l2' write_policy",
        lambda s: with_level(s, "l2", write_policy="writeback"),
    ),
    "secondary/writethrough-shared": (
        "shared-l2",
        "level 'l2' write_policy",
        lambda s: with_level(s, "l2", write_policy="writethrough"),
    ),
    "secondary/no-private-level": (
        "shared-l2",
        "the levels",
        lambda s: _drop_level(s, "l1d"),
    ),
    "secondary/first-not-l1d": (
        "shared-l3",
        "first level name",
        lambda s: _drop_level(s, "l1d"),
    ),
    "secondary/private-last": (
        "shared-l2",
        "level 'l2' sharing",
        lambda s: with_level(s, "l2", sharing=1),
    ),
    "secondary/shared-middle": (
        "shared-l3",
        "level 'l2' sharing",
        lambda s: with_level(s, "l2", sharing=0),
    ),
    "secondary/duplicate-names": (
        "shared-l3",
        "the levels",
        lambda s: dataclasses.replace(
            s, levels=(s.levels[0], s.levels[2], s.levels[2])
        ),
    ),
    "secondary/occupancy-mismatch": (
        "shared-l2",
        "interconnect occupancy",
        lambda s: with_link(s, occupancy=9),
    ),
    "secondary/mislabelled-link": (
        "shared-l2",
        "interconnect kind 'multistage'",
        lambda s: with_link(s, kind="multistage"),
    ),
    # shared-memory
    "memory/shared-level": (
        "shared-mem",
        "level 'l2' sharing",
        lambda s: with_level(s, "l2", sharing=0),
    ),
    "memory/third-level": ("shared-mem", "the levels", _extra_level),
    "memory/banked-l1d": (
        "shared-mem",
        "level 'l1d' banks",
        lambda s: with_level(s, "l1d", banks=2),
    ),
    "memory/writethrough": (
        "shared-mem",
        "level 'l1d' write_policy",
        lambda s: with_level(s, "l1d", write_policy="writethrough"),
    ),
    "memory/crossbar": (
        "shared-mem",
        "interconnect kind",
        lambda s: with_link(s, kind="crossbar"),
    ),
    "memory/two-stage-bus": (
        "shared-mem",
        "interconnect kind",
        lambda s: with_link(s, stage_latencies=(25, 25)),
    ),
}


@pytest.mark.parametrize("case", UNBUILDABLE)
def test_unbuildable_shape_is_a_config_error(case):
    arch, field, mutate = UNBUILDABLE[case]
    config = config_for_scale("test", 4)
    spec = resolve_topology(arch, config)
    # the stock spec builds; the mutated one is refused by field name
    build_memory(spec, config, SystemStats.for_cpus(4))
    with pytest.raises(ConfigError, match=re.escape(field)):
        build_memory(mutate(spec), config, SystemStats.for_cpus(4))


@pytest.mark.parametrize("arch", ("shared-l1", "cluster-l1", "shared-mem"))
def test_update_coherence_needs_a_directory(arch):
    # An inert policy value must not fold into Job.key() unnoticed.
    n_cpus = get_preset(arch).default_cpus
    config = config_for_scale("test", n_cpus, l1_coherence="update")
    with pytest.raises(ConfigError, match="l1_coherence"):
        build_memory(arch, config, SystemStats.for_cpus(n_cpus))
