"""Typed reading of JSON objects into dataclasses: the field grammar of config and model files.

``loads`` parses a JSON text whose objects hold each key once. A value fills a
field only when its JSON type is the field's annotation: ``int`` takes no
bool or float, ``float`` takes an int but no bool, and ``X | None`` also
takes null. Every error is a ValueError naming its key path.
"""

from __future__ import annotations

import json
import typing
from dataclasses import fields, is_dataclass

__all__ = ["loads", "check_type", "check_unsigned", "check_keys", "read_fields", "build"]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The dict of one JSON object's (key, value) pairs; a repeated key raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def loads(text: str):
    """``json.loads`` that rejects an object holding one key twice; the ValueError names the key."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def check_type(path: str, value, hint) -> None:
    """Reject a JSON value whose type is not the annotation ``hint``."""
    allowed = typing.get_args(hint) or (hint,)
    if not any(type(value) in ((int, float) if t is float else (t,)) for t in allowed):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ValueError(f"{path} must be {names}, got {value!r}")


def check_unsigned(path: str, value) -> None:
    """Reject a JSON value that is not a non-negative integer."""
    check_type(path, value, int)
    if value < 0:
        raise ValueError(f"{path} must be a non-negative integer, got {value}")


def check_keys(path: str, obj, allowed: set[str], required: bool = False) -> None:
    """Reject all but a JSON object with keys from ``allowed``, and all of them if ``required``."""
    check_type(path, obj, dict)
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {path}: {sorted(unknown)}")
    missing = allowed - set(obj) if required else ()
    if missing:
        raise ValueError(f"missing keys in {path}: {sorted(missing)}")


def read_fields(cls, path: str, section, required: bool = False) -> dict:
    """Keyword arguments of dataclass ``cls`` from the JSON object ``section``.

    Keys must be fields of ``cls`` (every field if ``required``); each value
    must have the type of the field's annotation, and a dataclass-typed
    field is built recursively.
    """
    check_keys(path, section, {f.name for f in fields(cls)}, required)
    hints = typing.get_type_hints(cls)
    out = {}
    for key, value in section.items():
        hint = hints[key]
        if is_dataclass(hint):
            out[key] = build(hint, f"{path}.{key}", read_fields(hint, f"{path}.{key}", value))
        else:
            check_type(f"{path}.{key}", value, hint)
            out[key] = value
    return out


def build(cls, path: str, kwargs: dict):
    """``cls(**kwargs)``, with the message of a ValueError it raises prefixed by ``path``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
