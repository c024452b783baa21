"""Value identity and value encoding, decided once.

A decision flow's answer depends only on its source values, so every
reuse tier — cohorts, the flow memo, the launch memo, the query cache and
``share_results`` — may treat two values as one only where no task or
condition can tell them apart.  :func:`key` decides it: two values share
a key iff they have the same class, are ``==`` and have the same ``repr``
(a built-in container: the same class and equal element keys in
iteration order).  A value it cannot vouch for — unhashable, no built-in
container — has no key (None), which every tier reads as "no reuse".

:func:`encode` / :func:`decode` are the one value encoding of schemas,
configs and run-store rows: ⊥ as ``{"$null": true}``, a sequence as
``{"$seq": [...]}``, an exception value as ``{"$exc": reason}``.
:func:`encode_row` / :func:`decode_row` are the run-store row form of a
value mapping: its top-level ⊥ attributes as one sorted name list.
"""

from __future__ import annotations

from math import copysign
from typing import Any, Iterable, Mapping

from repro.errors import ReproError
from repro.nulls import NULL, ExceptionValue, NullType

__all__ = ["SCALARS", "SerializationError", "key", "keys", "share_key", "encode", "decode",
           "encode_values", "decode_values", "encode_row", "decode_row"]  # fmt: skip


class SerializationError(ReproError):
    """The object contains non-declarative parts (arbitrary Python code)."""


#: The immutable scalars by exact class: what a launch-memo entry may hold.
SCALARS = frozenset({type(None), bool, int, float, str, bytes, NullType})

#: Classes whose ``(class, value)`` already fixes ``repr``: that pair is the key.
_PAIRED = frozenset({type(None), bool, int, str, bytes, NullType, ExceptionValue})

#: Built-in containers keyed element by element in iteration order (a dict by its items).
_SEQUENCES = frozenset({tuple, list, set, frozenset})

#: What :func:`encode` returns unchanged, matched exactly by :func:`encode_values`.
_JSON = frozenset({str, int, float, bool, type(None)})


def key(value: object) -> tuple | None:
    """The canonical key of *value*, or None when it is refused.  A float
    adds only its zero sign; a ``nan`` equals nothing, itself included, so
    its key matches only the very same object."""
    cls = value.__class__
    if cls in _PAIRED:
        return (cls, value)
    if cls is float:
        return (cls, value, copysign(1.0, value)) if value == 0.0 else (cls, value)
    if cls in _SEQUENCES:
        parts = keys(value)
    elif cls is dict:
        parts = keys(value.items())
    else:
        try:
            hash(value)
            return (cls, value, repr(value))
        except Exception:  # unhashable, or user code raising: no reuse
            return None
    return None if parts is None else (cls, parts)


def keys(values: Iterable[object]) -> tuple | None:
    """The keys of *values* in order, or None if any is refused."""
    parts = tuple(map(key, values))
    return None if None in parts else parts


def share_key(task_name: str, values: Mapping[str, object]) -> tuple | None:
    """The key of one query invocation on *values* (in the task's input
    order), or None when an input is refused."""
    parts = keys(values.values())
    return None if parts is None else (task_name, *parts)


def encode(value: object) -> Any:
    """*value* in JSON-able form."""
    if value is NULL:
        return {"$null": True}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return {"$seq": [encode(v) for v in value]}
    if isinstance(value, ExceptionValue):
        return {"$exc": value.reason}
    raise SerializationError(f"value {value!r} is not serializable")


def decode(data: Any) -> object:
    """Invert :func:`encode` (a sequence comes back as a tuple)."""
    if isinstance(data, dict):
        if data.get("$null"):
            return NULL
        if "$seq" in data:
            return tuple(decode(v) for v in data["$seq"])
        if "$exc" in data:
            return ExceptionValue(data["$exc"])
        raise SerializationError(f"unrecognized value encoding: {data!r}")
    return data


def encode_values(values: Mapping[str, object] | None) -> dict | None:
    """Encode an attribute-value mapping (None stays None)."""
    if values is None:
        return None
    return {name: v if v.__class__ in _JSON else encode(v) for name, v in values.items()}


def decode_values(data: Mapping[str, object] | None) -> dict | None:
    """Invert :func:`encode_values`."""
    if data is None:
        return None
    return {name: decode(value) for name, value in data.items()}


def encode_row(values: Mapping[str, object]) -> list:
    """*values* as ``[sorted ⊥ names, {name: encode(v)} for the rest]``; a
    list, so no attribute name can collide with the ⊥ list.  A ⊥ nested
    in a sequence stays ``{"$null": true}``."""
    nulls, rest = [], {}
    for name, v in values.items():
        if v is NULL:
            nulls.append(name)
        else:
            rest[name] = v if v.__class__ in _JSON else encode(v)
    nulls.sort()
    return [nulls, rest]


def decode_row(row: list) -> dict:
    """Expand :func:`encode_row`'s form (read back from JSON) into
    :func:`encode_values`'s, keys in sorted order."""
    nulls, rest = row
    merged = {name: {"$null": True} for name in nulls}
    merged.update(rest)
    return {name: merged[name] for name in sorted(merged)}
