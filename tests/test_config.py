"""The one config resolver: defaults overlaid with user JSON."""

import copy

import pytest

from microhom.config import resolve
from microhom.errors import ConfigError

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


def test_int_and_float_interchangeable():
    cfg = resolve(DEFAULTS, {"n": 4.5, "outer": {"middle": {"inner": 2}}})
    assert cfg["n"] == 4.5 and cfg["outer"]["middle"]["inner"] == 2


@pytest.mark.parametrize("value", [3, "text", [1, 2], {"k": {"j": 1}}])
def test_none_default_accepts_any_value(value):
    assert resolve(DEFAULTS, {"any": value})["any"] == value


def test_overrides_leave_defaults_unchanged():
    snapshot = copy.deepcopy(DEFAULTS)
    cfg = resolve(DEFAULTS, {"outer": {"middle": {"inner": 2.5}}, "n": 8})
    assert cfg["outer"]["middle"] == {"inner": 2.5, "name": "x"}
    assert cfg["n"] == 8 and cfg["bounds"] == [0.0, 1.0]
    cfg["bounds"].append(2.0)
    cfg["outer"]["flag"] = True
    assert DEFAULTS == snapshot
