"""The one config resolver: defaults overlaid with user JSON."""

import copy
from dataclasses import dataclass, field

import pytest

from microhom.config import Checked, kind, resolve
from microhom.errors import ConfigError, DomainError

DEFAULTS = {
    "n": 4,
    "any": None,
    "bounds": [0.0, 1.0],
    "outer": {"middle": {"inner": 1.5, "name": "x"}, "flag": False},
}


def test_unknown_key_names_dotted_path():
    with pytest.raises(ConfigError, match=r"'outer\.middle\.bogus'"):
        resolve(DEFAULTS, {"outer": {"middle": {"bogus": 1}}})


@pytest.mark.parametrize(
    "raw,path",
    [
        ({"outer": {"flag": {"on": True}}}, "outer.flag"),  # object for a scalar
        ({"outer": {"middle": 2}}, "outer.middle"),  # scalar for an object
        ({"bounds": 0.5}, "bounds"),  # scalar for an array
        ({"n": [4]}, "n"),  # array for a scalar
    ],
)
def test_shape_mismatch_rejected(raw, path):
    with pytest.raises(ConfigError, match=f"'{path}'"):
        resolve(DEFAULTS, raw)


@pytest.mark.parametrize(
    "raw,path",
    [
        ({"n": "4"}, "n"),  # string for a number
        ({"n": True}, "n"),  # a boolean is not a number
        ({"outer": {"flag": 0}}, "outer.flag"),  # number for a boolean
        ({"outer": {"middle": {"name": 1}}}, "outer.middle.name"),  # number for a string
        ({"outer": {"middle": {"inner": None}}}, "outer.middle.inner"),  # null for a number
    ],
)
def test_kind_mismatch_rejected(raw, path):
    with pytest.raises(ConfigError, match=f"'{path}'"):
        resolve(DEFAULTS, raw)


@pytest.mark.parametrize("bounds,index", [([0.0, "1"], 1), ([None, 1.0], 0), ([[0.0], 1.0], 0)])
def test_array_element_kind_mismatch_rejected(bounds, index):
    with pytest.raises(ConfigError, match=rf"'bounds\[{index}\]' must be a number"):
        resolve(DEFAULTS, {"bounds": bounds})


def test_int_and_float_interchangeable():
    cfg = resolve(DEFAULTS, {"n": 4.0, "bounds": [0, 2.5], "outer": {"middle": {"inner": 2}}})
    assert cfg["n"] == 4 and cfg["bounds"] == [0, 2.5] and cfg["outer"]["middle"]["inner"] == 2
    assert type(cfg["n"]) is int  # a whole float for an int default is stored as an int


@pytest.mark.parametrize("raw,path", [({"n": 4.5}, "n"), ({"n": float("nan")}, "n"),
                                      ({"n": float("inf")}, "n")])
def test_int_default_needs_a_whole_number(raw, path):
    with pytest.raises(ConfigError, match=f"'{path}' must be a whole number"):
        resolve(DEFAULTS, raw)


def test_int_array_elements_need_whole_numbers():
    defaults = {"resolution": [64, 64]}
    assert resolve(defaults, {"resolution": [32.0, 16]})["resolution"] == [32, 16]
    with pytest.raises(ConfigError, match=r"'resolution\[1\]' must be a whole number"):
        resolve(defaults, {"resolution": [32, 16.5]})


@pytest.mark.parametrize("value", [3, "text", [1, 2], {"k": {"j": 1}}])
def test_none_default_accepts_any_value(value):
    # a None default without a rule takes null or a string, no other value
    assert resolve(DEFAULTS, {"any": None})["any"] is None
    if kind(value) == "a string":
        assert resolve(DEFAULTS, {"any": value})["any"] == value
        return
    with pytest.raises(ConfigError, match=f"^'any' must be null or a string, got {kind(value)}$"):
        resolve(DEFAULTS, {"any": value})


def test_overrides_leave_defaults_unchanged():
    snapshot = copy.deepcopy(DEFAULTS)
    cfg = resolve(DEFAULTS, {"outer": {"middle": {"inner": 2.5}}, "n": 8})
    assert cfg["outer"]["middle"] == {"inner": 2.5, "name": "x"}
    assert cfg["n"] == 8 and cfg["bounds"] == [0.0, 1.0]
    cfg["bounds"].append(2.0)
    cfg["outer"]["flag"] = True
    assert DEFAULTS == snapshot


# The range checks: given values against a table that mirrors the defaults.
TREE = {"count": 2, "size": [1.0, 1.0], "frac": 0.5, "free": 0.0, "ratio": 0.1,
        "any": None, "open": None, "sub": {"tol": 1e-6, "cells": [64, 64]}}
RANGES = {"count": ">= 1", "size": "positive", "frac": "in (0, 0.65]", "ratio": "in (-1, 0.5)",
          "any": "in [0, 1)", "sub": {"tol": "positive", "cells": ">= 32 per axis"}}


@pytest.mark.parametrize("size", [[1.0], [1.0, 1.0, 1.0]])
def test_array_keeps_its_default_length(size):
    with pytest.raises(DomainError, match=r"^size must have 2 entries, got \["):
        resolve(TREE, {"size": size}, RANGES)


@pytest.mark.parametrize("raw,message", [
    ({"free": float("nan")}, "free must be finite, got nan"),
    ({"free": float("-inf")}, "free must be finite, got -inf"),
    ({"frac": float("inf")}, r"frac must be finite and in \(0, 0.65\], got inf"),
    ({"size": [1.0, float("nan")]}, r"size must be finite and positive, got \[1.0, nan\]"),
])
def test_numbers_must_be_finite(raw, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        resolve(TREE, raw, RANGES)


@pytest.mark.parametrize("key,inside,outside", [
    ("frac", [0.65, 1e-9], [0.0, 0.66]),  # (0, 0.65]
    ("ratio", [-0.99, 0.0, 0.49], [-1.0, 0.5]),  # (-1, 0.5)
    ("any", [0.0, 0.99], [1.0, -0.01]),  # [0, 1)
    ("count", [1, 7], [0, -3]),  # >= 1
    ("size", [[1e-9, 2.0]], [[0.0, 2.0], [2.0, -1.0]]),  # positive, per entry
])
def test_open_and_closed_bounds(key, inside, outside):
    for value in inside:
        assert resolve(TREE, {key: value}, RANGES)[key] == value
    for value in outside:
        with pytest.raises(DomainError, match=f"^{key} must be "):
            resolve(TREE, {key: value}, RANGES)


def test_message_names_the_dotted_path_and_rule():
    with pytest.raises(DomainError, match=r"^sub\.tol must be finite and positive, got 0$"):
        resolve(TREE, {"sub": {"tol": 0}}, RANGES)
    # a whole number is finite, so its message names the rule alone
    with pytest.raises(DomainError, match=r"^sub\.cells must be >= 32 per axis, got \[64, 16\]$"):
        resolve(TREE, {"sub": {"cells": [64, 16]}}, RANGES)
    with pytest.raises(DomainError, match=r"^count must be >= 1, got 0$"):
        resolve(TREE, {"count": 0}, RANGES)


def test_kind_errors_stay_usage_errors():
    with pytest.raises(ConfigError, match=r"'count' must be a whole number"):
        resolve(TREE, {"count": float("nan")}, RANGES)
    with pytest.raises(ConfigError, match=r"unknown config key 'sub\.bogus'"):
        resolve(TREE, {"sub": {"bogus": 1}}, RANGES)


@pytest.mark.parametrize("value", ["text", [1, 2, 3], {"k": -1}, float("nan"), -5])
def test_none_default_without_a_rule_is_exempt(value):
    # exempt from range rules, as it holds no number: null or a string only
    if kind(value) == "a string":
        assert resolve(TREE, {"open": value}, RANGES)["open"] is value
        return
    with pytest.raises(ConfigError, match=f"^'open' must be null or a string, got {kind(value)}$"):
        resolve(TREE, {"open": value}, RANGES)


def test_none_default_holds_a_number_to_its_rule():
    with pytest.raises(ConfigError, match="^'any' must be null or a number, got a string$"):
        resolve(TREE, {"any": "text"}, RANGES)
    assert resolve(TREE, {"any": None}, RANGES)["any"] is None
    assert resolve(TREE, {"any": 0.5}, RANGES)["any"] == 0.5
    for value in (1.0, float("nan")):
        with pytest.raises(DomainError, match=r"^any must be finite and in \[0, 1\)"):
            resolve(TREE, {"any": value}, RANGES)


def test_defaults_are_not_checked():
    # only given values are checked: a default outside its rule passes untouched
    assert resolve({"x": -1.0}, {}, {"x": "positive"}) == {"x": -1.0}


@dataclass(frozen=True)
class _Cell(Checked):
    radius: float  # required: held to its rule like a None default
    sizes: tuple = (1.0, 1.0)
    seed: int = 0
    RANGES = {"radius": "positive", "sizes": "positive", "seed": ">= 0"}


@pytest.mark.parametrize("kwargs,message", [
    ({"radius": 0.0}, "radius must be finite and positive, got 0.0"),
    ({"radius": 1.0, "sizes": (1.0,)}, r"sizes must have 2 entries, got \[1.0\]"),
    ({"radius": 1.0, "sizes": (1.0, float("inf"))}, r"sizes must be finite and positive"),
    ({"radius": 1.0, "seed": -1}, "seed must be >= 0, got -1"),
])
def test_checked_dataclass_holds_its_fields_to_its_table(kwargs, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        _Cell(**kwargs)
    # the fields hold what resolve returns: arrays as tuples, whole numbers as ints
    cell = _Cell(radius=2.0, sizes=[3.0, 4.0], seed=2.0)
    assert cell.sizes == (3.0, 4.0) and type(cell.seed) is int


@pytest.mark.parametrize("kwargs,message", [
    ({"radius": "abc"}, "'radius' must be null or a number, got a string"),
    ({"radius": 1.0, "seed": 2.5}, "'seed' must be a whole number, got 2.5"),
    ({"radius": 1.0, "sizes": 1.0}, "'sizes' must be an array, got a number"),
])
def test_checked_dataclass_refuses_a_mistyped_field(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        _Cell(**kwargs)


@dataclass(frozen=True)
class _Sampler(Checked):
    cell: _Cell = field(default_factory=lambda: _Cell(radius=1.0))
    RANGES = {}


def test_default_factory_field_has_its_factory_defaults_kind():
    assert _Sampler(_Cell(radius=2.0)).cell.radius == 2.0
    for value, got in [({"radius": 2.0}, "an object"), (None, "null")]:
        with pytest.raises(ConfigError, match=f"^'cell' must be a _Cell, got {got}$"):
            _Sampler(value)
