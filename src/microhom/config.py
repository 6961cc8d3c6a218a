"""Run configs: one tree of defaults, overlaid with the user's JSON.

Every run (the cell commands, dataset production and the two-scale plate)
resolves its config here, so unknown keys and misshapen values are rejected
the same way everywhere and the echoed config lists every default.
"""

from __future__ import annotations

import copy

from .errors import ConfigError


def _shape(value) -> str:
    if isinstance(value, dict):
        return "an object"
    return "an array" if isinstance(value, (list, tuple)) else "a scalar"


def resolve(defaults: dict, raw: dict, where: str = "") -> dict:
    """Overlay `raw` on a deep copy of `defaults`; `defaults` is not modified.

    Objects merge key by key; arrays and scalars replace the default.  A key
    missing from `defaults`, or a value whose shape (object, array or scalar)
    differs from its default, raises ConfigError naming the dotted path under
    `where`.  A None default accepts any value.
    """
    out = copy.deepcopy(defaults)
    for key, value in raw.items():
        path = f"{where}.{key}" if where else str(key)
        if key not in defaults:
            raise ConfigError(f"unknown config key {path!r}")
        default = defaults[key]
        if default is not None and _shape(value) != _shape(default):
            raise ConfigError(f"{path!r} must be {_shape(default)}, got {_shape(value)}")
        out[key] = resolve(default, value, path) if isinstance(default, dict) else value
    return out
