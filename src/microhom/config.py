"""Run configs: one tree of defaults, overlaid with the user's JSON.

Every run (the cell commands, dataset production and the two-scale plate)
resolves its config here, so unknown keys, mistyped values and values out of
range are rejected the same way everywhere, and the echo lists every default.
"""

from __future__ import annotations

import copy
import math
from dataclasses import MISSING, fields
from numbers import Real

from .errors import ConfigError, DomainError


_KINDS = [("an object", dict), ("an array", (list, tuple)), ("a boolean", bool),
          ("a number", Real), ("a string", str)]


def kind(value) -> str:
    """JSON kind of a value (int and float are numbers, bool is not), else its type."""
    return "null" if value is None else next(
        (name for name, types in _KINDS if isinstance(value, types)), f"a {type(value).__name__}")


def _checked(path: str, value, default, rule=""):
    """`value` if it has the kind of `default`, a None one's being null or, by
    `rule`, a number, else a string, and a MISSING one's (a required field)
    the latter only; a whole number for an int default is an int."""
    implied = "a number" if rule else "a string"
    kinds = ([implied] if default is MISSING else ["null", implied] if default is None
             else [kind(default)])
    if kind(value) not in kinds:
        raise ConfigError(f"{path!r} must be {' or '.join(kinds)}, got {kind(value)}")
    if type(default) is int and not isinstance(value, int):
        if not float(value).is_integer():
            raise ConfigError(f"{path!r} must be a whole number, got {value}")
        return int(value)
    return value


def _holds(rule: str, value) -> bool:
    """Whether a number meets `rule`: "positive", ">= x[ per axis]" or "in (a, b]"."""
    if rule == "positive":
        return value > 0
    if rule.startswith(">="):
        return value >= float(rule.split()[1])
    lo, hi = (float(bound) for bound in rule[4:-1].split(", "))
    return (lo < value if rule[3] == "(" else lo <= value) and (
        value < hi if rule[-1] == ")" else value <= hi)


def resolve(defaults: dict, raw: dict, ranges=None, where: str = "") -> dict:
    """Overlay `raw` on a deep copy of `defaults`; `defaults` is not modified.

    Objects merge key by key; arrays and scalars replace the default.  A key
    missing from `defaults`, or a value whose kind (object, array, number,
    string or boolean) differs from its default, raises ConfigError naming
    the dotted path under `where`.  The elements of an array must have the
    kind of the default array's first element.  Where the default is an
    int, the number must be whole and is stored as an int.  A None default
    takes null, or a number if it has a rule, else a string; a MISSING
    default, a required field of a Checked dataclass, the same but not null.
    Then an array must keep its default's length and a number be finite and
    meet its rule in `ranges` (see _holds), a tree that mirrors `defaults`,
    else DomainError names the path.
    """
    out = copy.deepcopy(defaults)
    for key, value in raw.items():
        path = f"{where}.{key}" if where else str(key)
        if key not in defaults:
            raise ConfigError(f"unknown config key {path!r}")
        default, rule = defaults[key], (ranges or {}).get(key, "")
        value = _checked(path, value, default, rule)
        numbers = [value] if kind(value) == "a number" else []
        if isinstance(default, dict):
            value = resolve(default, value, rule, path)
        elif isinstance(default, (list, tuple)):
            value = numbers = [_checked(f"{path}[{i}]", v, default[0]) for i, v in enumerate(value)]
            if len(value) != len(default):
                raise DomainError(f"{path} must have {len(default)} entries, got {value}")
            default = default[0]
        if not all(math.isfinite(v) and (not rule or _holds(rule, v)) for v in numbers):
            finite = "finite and " if rule else "finite"
            words = rule if rule and type(default) is int else finite + rule
            raise DomainError(f"{path} must be {words}, got {value}")
        out[key] = value
    return out


class Checked:
    """Base of a config dataclass with a RANGES table: construction resolves the
    fields on their defaults (a factory's, or MISSING if required) and keeps
    the result, arrays as tuples."""

    def __post_init__(self):
        defaults = {f.name: f.default_factory() if f.default_factory is not MISSING
                    else f.default for f in fields(self)}
        cfg = resolve(defaults, vars(self), self.RANGES)
        for name, value in cfg.items():
            object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)
