"""One codec for the frozen result dataclasses: plain dicts out, objects back.

Every report, row and error the engines return is a frozen dataclass, and
every surface that needs bytes (``--json``/``--csv``, HTTP bodies, store
appends) first turns it into plain dicts.  :func:`encode` does that from a
*field plan* built once per class: the field names plus, resolved once from
the class's type hints, whether each field holds a scalar (passed
through), a tuple of dataclasses (encoded row by row), or anything else
(rebuilt as :func:`dataclasses.asdict` rebuilds it, with every nested
dataclass encoded from its own plan).  A flat row therefore encodes as one
``dict(zip(names, attrgetter(*names)(row)))`` instead of a recursive deep
copy.

The output is ``dataclasses.asdict``'s, value for value: tuples stay
tuples, lists and dicts are rebuilt rather than aliased to the frozen
object, so every dict comparison and every JSON byte of an encoded report
is what ``asdict`` produced.  (``asdict``'s special cases for namedtuples
and defaultdicts are left out: no result class holds either.)  A class
whose hints cannot be resolved (a name imported only for type checking)
encodes every field the generic ``asdict`` way — slower, never different.

:func:`decode` is the inverse, shared by every store kind and envelope
decoder: unknown keys are ignored (a payload written by a newer minor
schema still loads where possible), a missing required field raises
``TypeError``, nested dataclasses and tuples are rebuilt from the same
hints, and the class's own validation runs, so an out-of-range value
raises ``ValueError``.  Callers treating a store as a cache count all
three as a miss.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import types
import typing
from collections.abc import Callable, Collection, Iterable, Mapping
from operator import attrgetter
from typing import Any

#: Runtime types ``asdict`` hands back as they are (immutable atoms).
_ATOMS = frozenset({type(None), bool, int, float, complex, str, bytes})

_Convert = Callable[[Any], Any]


def encode(obj: Any, raw: Collection[str] = ()) -> dict[str, Any]:
    """``dataclasses.asdict(obj)``, from the class's cached field plan.

    Fields named in ``raw`` are left as their attribute values, unencoded,
    in their field position — for callers that replace or drop them right
    after (a report's per-request rows, say), so that work is never done
    twice.
    """
    plan = _plan(type(obj))
    payload = dict(zip(plan.names, plan.values(obj)))
    for name, convert in plan.encoders:
        if name not in raw:
            payload[name] = convert(payload[name])
    return payload


def encode_rows(rows: Iterable[Any]) -> list[dict[str, Any]]:
    """``[encode(row) for row in rows]``; flat rows of one class skip the plan walk."""
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    classes = {type(row) for row in rows}
    if len(classes) == 1:
        plan = _plan(classes.pop())
        if not plan.encoders:
            names, values = plan.names, plan.values
            return [dict(zip(names, values(row))) for row in rows]
    return [encode(row) for row in rows]


def decode(cls: type, payload: Mapping[str, Any]) -> Any:
    """Construct ``cls`` from an :func:`encode` payload.

    Raises
    ------
    TypeError
        If ``payload`` is not a mapping, lacks a required field, or holds
        a value of the wrong shape for a nested field.
    ValueError
        If the rebuilt object fails the class's own validation.
    """
    if not isinstance(payload, Mapping):
        raise TypeError(f"cannot decode {cls.__name__} from "
                        f"{type(payload).__name__}")
    plan = _plan(cls)
    if payload.keys() == plan.init_names:
        kwargs = dict(payload) if plan.decoders else payload
    else:
        kwargs = {key: value for key, value in payload.items()
                  if key in plan.init_names}
    for name, convert in plan.decoders:
        if name in kwargs:
            kwargs[name] = convert(kwargs[name])
    return cls(**kwargs)


def field_names(cls: type) -> tuple[str, ...]:
    """The class's field names in declaration order (its CSV columns)."""
    return _plan(cls).names


# ----------------------------------------------------------------- plans
class _Plan:
    """How one dataclass encodes and decodes, built once per class."""

    __slots__ = ("names", "values", "encoders", "init_names", "decoders")

    def __init__(self, cls: type) -> None:
        fields = dataclasses.fields(cls)
        self.names = tuple(field.name for field in fields)
        if len(self.names) == 1:
            name = self.names[0]
            self.values = lambda obj: (getattr(obj, name),)
        elif self.names:
            self.values = attrgetter(*self.names)
        else:
            self.values = lambda obj: ()
        hints = _type_hints(cls)
        #: (field, converter) for every field that is not a plain scalar.
        self.encoders: tuple[tuple[str, _Convert], ...] = tuple(
            (field.name, converter) for field in fields
            if (converter := _encoder(hints.get(field.name, Any))) is not None)
        self.init_names = frozenset(field.name for field in fields if field.init)
        self.decoders: tuple[tuple[str, _Convert], ...] = tuple(
            (field.name, converter) for field in fields if field.init
            and (converter := _decoder(hints.get(field.name, Any))) is not None)


@functools.cache
def _plan(cls: type) -> _Plan:
    return _Plan(cls)


def _type_hints(cls: type) -> dict[str, Any]:
    """Resolved field hints; empty (every field generic) when unresolvable."""
    try:
        return typing.get_type_hints(cls)
    except (NameError, TypeError):
        return {}


def _is_union(hint: Any) -> bool:
    return typing.get_origin(hint) in (typing.Union, types.UnionType)


def _is_scalar(hint: Any) -> bool:
    if _is_union(hint):
        return all(_is_scalar(arg) for arg in typing.get_args(hint))
    return hint in _ATOMS


def _is_dataclass_type(hint: Any) -> bool:
    return isinstance(hint, type) and dataclasses.is_dataclass(hint)


def _row_type(hint: Any) -> type | None:
    """``X`` when ``hint`` is ``tuple[X, ...]`` of a dataclass ``X``."""
    if typing.get_origin(hint) is not tuple:
        return None
    args = typing.get_args(hint)
    if len(args) == 2 and args[1] is Ellipsis and _is_dataclass_type(args[0]):
        return args[0]
    return None


# -------------------------------------------------------------- encoding
def _encoder(hint: Any) -> _Convert | None:
    """The field's converter, or ``None`` for a scalar passed through."""
    if _is_scalar(hint):
        return None
    if _row_type(hint) is not None:
        return _encode_row_tuple
    # Nested dataclasses included: their own plan takes over at once.
    return _encode_value


def _encode_row_tuple(value: Any) -> Any:
    if type(value) is tuple:
        return tuple(encode_rows(value))
    return _encode_value(value)


def _encode_value(value: Any) -> Any:
    """``asdict``'s recursion for a value of no known field kind."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return encode(value)
    if isinstance(value, (list, tuple)):
        return kind(_encode_value(item) for item in value)
    if isinstance(value, dict):
        return kind((_encode_value(key), _encode_value(item))
                    for key, item in value.items())
    return copy.deepcopy(value)


# -------------------------------------------------------------- decoding
def _decoder(hint: Any) -> _Convert | None:
    """The field's converter from JSON shapes, or ``None`` for as-is."""
    if _is_dataclass_type(hint):
        return functools.partial(_decode_nested, hint)
    row_type = _row_type(hint)
    if row_type is not None:
        return functools.partial(_decode_rows, row_type)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            item = _decoder(args[0])
            if item is None:
                return tuple
            return lambda value: tuple(item(entry) for entry in value)
        items = [_decoder(arg) or _identity for arg in args]
        return lambda value: tuple(convert(entry)
                                   for convert, entry in zip(items, value))
    return None


def _identity(value: Any) -> Any:
    return value


def _decode_nested(cls: type, value: Any) -> Any:
    return value if isinstance(value, cls) else decode(cls, value)


def _decode_rows(cls: type, rows: Iterable[Any]) -> tuple[Any, ...]:
    """Decode a row tuple; exact-keyed dict rows of a flat class go straight in."""
    plan = _plan(cls)
    if plan.decoders:
        return tuple(_decode_nested(cls, row) for row in rows)
    names = plan.init_names
    return tuple(cls(**row) if type(row) is dict and row.keys() == names
                 else _decode_nested(cls, row) for row in rows)
