"""The codec vocabulary and its one walker.

A stateful class says what travels through a checkpoint **once**, as a
row (:class:`Codec`): which attributes go under which wire names and in
which shape. A :class:`Format` holds the rows and reads them in both
directions (:meth:`Format.encode` / :meth:`Format.restore`), stating
the generic refusals once. This module knows no simulator class;
:mod:`repro.ckpt.snapshot` declares the rows that are the
``repro.ckpt/1`` wire format.

A *part* is an object of a class with a row, a sequence or name-keyed
dict of parts, ``None`` (a part this configuration does not have) or an
immutable config-derived constant (a latency, an occupancy, a kind),
recorded so a restore can verify the target's geometry.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

from repro.errors import CheckpointError


class Field(NamedTuple):
    """One wire name of a row: its entry in the format table, and its
    passage out (``dump(obj, format)``) and back, in place
    (``load(obj, wire, where, format)``). An ``optional`` field is left
    out of the wire while empty or ``None``, and loads ``None`` when
    absent."""

    wire: str
    doc: str
    dump: Callable
    load: Callable
    optional: bool = False


class Codec(NamedTuple):
    """A class's row: its fields, and how they lie on the wire — a
    dict keyed by wire name, a positional list, or the one field bare."""

    fields: tuple
    shape: str = "keyed"


def _same(value):
    return value


def _attribute(wire, attr, out, load, note="", optional=False) -> Field:
    """A field that reads one attribute: ``out(attribute, format)``."""
    doc = f"`{wire}`" if attr == wire else f"`{wire}`←`{attr}`"
    return Field(
        wire, doc + note, lambda obj, fmt: out(getattr(obj, attr), fmt), load,
        optional,
    )


def plain(wire, attr=None, dump=_same, load=_same, also=None) -> Field:
    """An attribute that is set: ``dump(attribute)`` out,
    ``setattr(load(wire))`` back — ``also`` on a second attribute, a
    fold baseline that restarts at the restored value."""
    attr = attr or wire

    def set_(obj, data, where, fmt):
        value = load(data)
        setattr(obj, attr, value)
        if also is not None:
            setattr(obj, also, value)

    return _attribute(wire, attr, lambda value, fmt: dump(value), set_)


def plains(*names: str) -> tuple:
    """Scalar attributes that travel under their own names."""
    return tuple(plain(name) for name in names)


def fill(
    wire, attr=None, dump=_same, load=_same, names=False, optional=False
) -> Field:
    """A container that is cleared and refilled, never rebound: built
    paths and lanes capture the deques, dicts, sets and columns.
    ``names`` refuses a dict whose name set differs; an ``optional``
    container is left out of the wire while empty."""
    attr = attr or wire

    def refill(obj, data, where, fmt):
        live = getattr(obj, attr)
        fresh = () if data is None else load(data)
        if names:
            _same_names(where, live, fresh)
        live.clear()
        (live.update if isinstance(live, (dict, set)) else live.extend)(fresh)

    note = " (in place, optional)" if optional else " (in place)"
    return _attribute(
        wire, attr, lambda value, fmt: dump(value), refill, note, optional
    )


def part(wire, attr=None, optional=False, make=None) -> Field:
    """An attribute that is itself a part; the members of a ``make``
    dict are rebuilt by name before they are restored."""
    attr = attr or wire

    def load(obj, data, where, fmt):
        live = getattr(obj, attr)
        if make is not None:
            live.clear()
            live.update((name, make(name)) for name in data)
        fmt.restore(live, data, where)

    note = " (part, optional)" if optional else " (part)"
    return _attribute(
        wire, attr, lambda value, fmt: fmt.encode(value), load, note, optional
    )


def const(wire, value) -> Field:
    """A class constant, recorded and verified on restore."""
    return Field(
        wire, f"`{wire}`={value!r}", lambda obj, fmt: value,
        lambda obj, data, where, fmt: fmt.restore(value, data, where),
    )


def sub(wire, *fields: Field) -> Field:
    """A nested wire dict whose fields live on this same object."""
    doc = f"`{wire}`{{{', '.join(field.doc for field in fields)}}}"
    return Field(
        wire, doc, lambda obj, fmt: fmt.dump(obj, fields),
        lambda obj, data, where, fmt: fmt.load(obj, fields, data, where),
    )


def hook(wire, dump, load) -> Field:
    """Not a field list: ``dump(obj)`` out, ``load(obj, wire)`` back."""
    return Field(
        wire, f"`{wire}` (hook)", lambda obj, fmt: dump(obj),
        lambda obj, data, where, fmt: load(obj, data),
    )


def dataclass_row(cls, parts: tuple = ()) -> Codec:
    """A dataclass travels as its own fields, in their order."""
    return Codec(tuple(
        (part if f.name in parts else plain)(f.name)
        for f in dataclasses.fields(cls)
    ))


def _refuse(where: str, why: str) -> CheckpointError:
    return CheckpointError(f"{where}: {why}")


def _same_names(where: str, live, recorded) -> None:
    if set(live) != set(recorded):
        raise _refuse(
            where, "name mismatch between checkpoint and restore target: "
            f"only-live={sorted(set(live) - set(recorded))} "
            f"only-checkpoint={sorted(set(recorded) - set(live))}",
        )


class Format:
    """A wire format: one row per class, and the walker that reads it."""

    def __init__(self, rows: dict[type, Codec]) -> None:
        self.rows = rows

    def _row(self, value) -> Codec:
        row = self.rows.get(type(value))
        if row is None:
            raise CheckpointError(
                "cannot checkpoint memory component of type "
                f"{type(value).__name__}: it has no codec row"
            )
        return row

    def encode(self, value):
        """Serialize one live part."""
        if value is None or isinstance(value, (int, str)):
            return value
        if isinstance(value, (list, tuple)):
            return [self.encode(item) for item in value]
        if isinstance(value, dict):
            return {
                name: self.encode(item) for name, item in sorted(value.items())
            }
        fields, shape = self._row(value)
        wire = self.dump(value, fields)
        if shape == "keyed":
            return wire
        columns = list(wire.values())
        return columns[0] if shape == "bare" else columns

    def dump(self, obj, fields: tuple) -> dict:
        """``fields`` of ``obj`` as a keyed wire dict."""
        wire = {}
        for field in fields:
            value = field.dump(obj, self)
            if value or not field.optional:
                wire[field.wire] = value
        return wire

    def restore(self, value, data, where: str) -> None:
        """Restore one live part in place (mirror of :meth:`encode`);
        ``where`` is its path from the snapshot's root, for refusals."""
        if isinstance(value, (int, str)):
            if value != data:
                raise _refuse(where, f"constant mismatch: {value!r} live vs "
                              f"{data!r} checkpointed")
        elif value is None:
            if data is not None:
                raise _refuse(where, "checkpoint carries state the restore "
                              "target does not have (obs configuration "
                              "mismatch?)")
        elif isinstance(value, (list, tuple)):
            data = data or ()  # an optional sequence is left out while empty
            if len(value) != len(data):
                raise _refuse(where, f"list length mismatch: {len(value)} "
                              f"live vs {len(data)} checkpointed")
            for index, (item, recorded) in enumerate(zip(value, data)):
                self.restore(item, recorded, f"{where}[{index}]")
        elif data is None:
            raise _refuse(where, "checkpoint has no state for a live "
                          f"{type(value).__name__}")
        elif isinstance(value, dict):
            _same_names(where, value, data)
            for name, item in value.items():
                self.restore(item, data[name], f"{where}.{name}")
        else:
            fields, shape = self._row(value)
            if shape == "bare":
                fields[0].load(value, data, where, self)
                return
            if shape == "positional":
                if len(data) != len(fields):
                    raise _refuse(where, f"{len(fields)} columns live vs "
                                  f"{len(data)} checkpointed")
                data = dict(zip((field.wire for field in fields), data))
            self.load(value, fields, data, where)

    def load(self, obj, fields: tuple, data: dict, where: str) -> None:
        """Restore ``fields`` of ``obj`` from a keyed wire dict."""
        for field in fields:
            if field.wire not in data and not field.optional:
                raise _refuse(where, f"checkpoint has no {field.wire!r}")
            field.load(
                obj, data.get(field.wire), f"{where}.{field.wire}", self
            )
