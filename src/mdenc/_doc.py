"""Plain-JSON documents from frozen dataclasses, and back.

A dataclass becomes an object with one key per field, in field order;
arrays and tuples become lists. Reading checks every key and value against
the field annotations, so a malformed document raises :class:`StateError`
naming the offending key instead of a stray ``KeyError`` or ``TypeError``.
A file that is not UTF-8 JSON raises :class:`StateError` naming the file.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .errors import StateError


def to_doc(value):
    """JSON-ready form of a dataclass, array, tuple or plain value."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [to_doc(v) for v in value]
    return value


def write_json(path, value) -> None:
    Path(path).write_text(json.dumps(to_doc(value), indent=2))


def read_json(path):
    """The JSON value stored in file ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
        raise StateError(f"{path} is not a UTF-8 JSON document: {exc}") from None


def from_doc(cls, doc, where: str, **hints):
    """Build dataclass ``cls`` from ``doc``; ``hints`` overrides the annotation
    of named fields. Only keys of fields with a default may be omitted."""
    if not isinstance(doc, dict):
        raise StateError(f"{where} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(doc) - {f.name for f in fields}, key=str)
    if unknown:
        raise StateError(f"{where} has unknown keys {unknown}")
    hints = typing.get_type_hints(cls) | hints
    values = {}
    for f in fields:
        if f.name in doc:
            values[f.name] = _value(hints[f.name], doc[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise StateError(f"{where} lacks the key {f.name!r}")
    return cls(**values)


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float (not a bool)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _value(hint, value, where: str):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # only ever ``X | None``
        return None if value is None else _value(args[0], value, where)
    if dataclasses.is_dataclass(hint):
        return from_doc(hint, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise StateError(f"{where} must be a list")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise StateError(f"{where} must hold {len(args)} values")
        return tuple(_value(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if hint is np.ndarray and isinstance(value, list) and all(map(_is_number, value)):
        array = np.asarray(value)
        if array.dtype.kind in "iuf":  # not ints beyond 64 bits
            return array
    if hint is float and _is_number(value):
        return float(value)
    if hint is int and _is_number(value) and isinstance(value, int):
        return value
    if hint in (str, dict) and isinstance(value, hint):
        return value
    raise StateError(f"{where} must be of type {hint.__name__}")
