"""Run configs: one tree of defaults, overlaid with the user's JSON.

Every run (the cell commands, dataset production and the two-scale plate)
resolves its config here, so unknown keys and mistyped values are rejected
the same way everywhere and the echoed config lists every default.
"""

from __future__ import annotations

import copy
from numbers import Real

from .errors import ConfigError


_KINDS = [("an object", dict), ("an array", (list, tuple)), ("a boolean", bool),
          ("a number", Real), ("a string", str)]


def kind(value) -> str:
    """JSON kind of a value: int and float are both numbers, bool is not."""
    return next((name for name, types in _KINDS if isinstance(value, types)), "null")


def _checked(path: str, value, default):
    """`value` if it has the kind of `default`; a whole number given for an
    int default comes back as an int."""
    if default is not None and kind(value) != kind(default):
        raise ConfigError(f"{path!r} must be {kind(default)}, got {kind(value)}")
    if type(default) is int and not isinstance(value, int):
        if not float(value).is_integer():
            raise ConfigError(f"{path!r} must be a whole number, got {value}")
        return int(value)
    return value


def resolve(defaults: dict, raw: dict, where: str = "") -> dict:
    """Overlay `raw` on a deep copy of `defaults`; `defaults` is not modified.

    Objects merge key by key; arrays and scalars replace the default.  A key
    missing from `defaults`, or a value whose kind (object, array, number,
    string or boolean) differs from its default, raises ConfigError naming
    the dotted path under `where`.  The elements of an array must have the
    kind of the default array's first element.  Where the default is an
    int, the number must be whole and is stored as an int.  A None default
    accepts any value.
    """
    out = copy.deepcopy(defaults)
    for key, value in raw.items():
        path = f"{where}.{key}" if where else str(key)
        if key not in defaults:
            raise ConfigError(f"unknown config key {path!r}")
        default = defaults[key]
        value = _checked(path, value, default)
        if isinstance(default, (list, tuple)) and default:
            value = [_checked(f"{path}[{i}]", item, default[0]) for i, item in enumerate(value)]
        out[key] = resolve(default, value, path) if isinstance(default, dict) else value
    return out
