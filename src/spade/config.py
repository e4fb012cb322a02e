"""The one reader for JSON configs: `from_json` builds a frozen config
dataclass from a parsed JSON value by its field annotations, `read_config`
from a file. Whatever the input, the result is an instance or a `ConfigError`."""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing

from .errors import ConfigError


def _got(value) -> str:
    # containers by kind only: dumping a deeply nested one could overflow the stack
    return type(value).__name__ if isinstance(value, (dict, list)) else json.dumps(value)[:40]


def from_json(cls, payload, where: str = ""):
    """Build the config dataclass `cls` from a parsed JSON value.

    The payload must be an object whose keys are fields of `cls`; missing
    fields keep their defaults. Nested config dataclasses are read the same
    way, tuple fields come from lists of the annotated length and element
    types, an integer is accepted for a float, and `null` only for an
    `X | None` field. Anything else raises `ConfigError` naming the field.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"{where or cls.__name__} must be a JSON object, got {_got(payload)}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise ConfigError(f"unknown fields in {where or cls.__name__}: {unknown}")
    prefix = f"{where}." if where else ""
    return cls(**{k: _value(hints[k], v, prefix + k) for k, v in payload.items()})


def _value(tp, value, where: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected an array, got {_got(value)}")
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} values, got {len(value)}")
        return tuple(_value(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where}: integer too large for a float") from None
    if tp is float and type(value) is float and not math.isfinite(value):
        # Python's json reads NaN and Infinity, which JSON itself does not have
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    if type(value) is not tp:  # `type`, not isinstance: true and false are not numbers
        raise ConfigError(f"{where}: expected {tp.__name__}, got {_got(value)}")
    return value


def read_config(cls, path):
    """Read a `cls` config from a UTF-8 JSON file; any fault in the file
    raises `ConfigError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (ValueError, RecursionError) as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"{path}: not a JSON file: {e}") from None
    try:
        return from_json(cls, payload)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
