"""Every JSON artefact (model, report, comparison, sweep record) is written
and read here, as strict JSON. A dataclass becomes an object with one key
per field, in field order; arrays and tuples become lists; a non-finite
float becomes ``null``. Reading checks every key and value against the field
annotations: a malformed document raises :class:`StateError` naming the key,
and so does a file that is not UTF-8 strict JSON (a ``NaN`` or ``Infinity``
token included). Every error of ``read_json`` names the file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .errors import MdencError, StateError


def to_doc(value):
    """JSON-ready form of a dataclass, dict, array, tuple or plain value."""
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_doc(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def to_json(value, indent: int | None = 2) -> str:
    """Strict JSON text of ``value`` (one line when ``indent`` is None)."""
    return json.dumps(to_doc(value), indent=indent, allow_nan=False)


def from_json(text: str):
    """The value of strict JSON ``text``; a ``NaN`` or ``Infinity`` raises ValueError."""
    return json.loads(text, parse_constant=_not_strict)


def _not_strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def write_json(path, value) -> None:
    Path(path).write_text(to_json(value))


def read_json(path, cls):
    """Dataclass ``cls`` read from file ``path``; key paths in its errors
    start at the last word of the class name, such as ``model``."""
    try:
        doc = from_json(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, NaN, or too deep
        raise StateError(f"{path} is not a UTF-8 JSON document: {exc}") from None
    try:
        return from_doc(cls, doc, re.findall("[A-Z][a-z]*", cls.__name__)[-1].lower())
    except MdencError as exc:  # the same type, naming the file
        raise type(exc)(f"{path}: {exc}") from None


def from_doc(cls, doc, where: str):
    """Dataclass ``cls`` built from ``doc``; only fields with a default may be missing."""
    if not isinstance(doc, dict):
        raise StateError(f"{where} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(doc) - {f.name for f in fields}, key=str)
    if unknown:
        raise StateError(f"{where} has unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
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
    if origin in (typing.Union, types.UnionType):  # of dataclasses, maybe None
        members = [a for a in args if a is not type(None)]
        if value is None and len(members) < len(args):
            return None
        # the member that knows the most keys, the first one on a tie
        keys = set(value) if isinstance(value, dict) else set()
        hint = min(members, key=lambda a: len(keys - {f.name for f in dataclasses.fields(a)}))
        return _value(hint, value, where)
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
