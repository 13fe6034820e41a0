"""Every JSON artefact (model, report, comparison, sweep record) is written
and read here, as strict JSON. A dataclass becomes an object with one key
per field, in field order; arrays and tuples become lists; a non-finite
float becomes ``null``. Reading checks the keys, picks the member of a union
and builds nested dataclasses, whose constructors check every value. Any
malformed document raises :class:`StateError` naming the key path and the
failed check, as does a file that is not UTF-8 strict JSON (a ``NaN`` or
``Infinity`` token included). Every error of ``read_json`` names the file.
"""

import dataclasses
import json
import math
import re
import types
import typing
from pathlib import Path

import numpy as np

from .errors import MdencError, StateError, brief


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
    """Dataclass ``cls`` from file ``path``; a StateError names the file, the key
    path from the class name's last word (``model.layout``) and the failed check."""
    try:
        doc = from_json(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, NaN, or too deep
        raise StateError(f"{path} is not a UTF-8 JSON document: {exc}") from None
    try:
        return from_doc(cls, doc, re.findall("[A-Z][a-z]*", cls.__name__)[-1].lower())
    except StateError as exc:
        raise StateError(f"{path}: {exc}") from None


def from_doc(cls, doc, where: str):
    """Dataclass ``cls`` built from ``doc`` (only fields with a default may be
    missing); a failed check of its constructor is a StateError at ``where``."""
    if not isinstance(doc, dict):
        raise StateError(f"{where} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(doc) - {f.name for f in fields}, key=str)
    if unknown:
        raise StateError(f"{where} has unknown keys {brief(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        if f.name in doc:
            values[f.name] = _value(hints[f.name], doc[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise StateError(f"{where} lacks the key {f.name!r}")
    try:
        return cls(**values)
    except MdencError as exc:
        raise StateError(f"{where}: {exc}") from None


def _value(hint, value, where: str):
    """A nested dataclass built from its object; any other value as it is,
    but JSON ``true`` and ``false`` only in a field annotated dict or bool."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # of dataclasses, maybe None
        if value is None and type(None) in typing.get_args(hint):
            return None
        members = [a for a in typing.get_args(hint) if a is not type(None)]
        # the member that knows the most keys, the first one on a tie
        keys = set(value) if isinstance(value, dict) else set()
        hint = min(members, key=lambda a: len(keys - {f.name for f in dataclasses.fields(a)}))
    if dataclasses.is_dataclass(hint):
        return from_doc(hint, value, where)
    items = [value]  # a flat walk: arrays may nest as deep as the parser allows
    while hint not in (dict, bool) and items:
        item = items.pop()
        if isinstance(item, bool):
            raise StateError(f"{where} holds {json.dumps(item)}, which is not a number")
        items.extend(item if isinstance(item, list) else ())
    return value
