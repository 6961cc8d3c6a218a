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
    assert resolve(DEFAULTS, {"any": value})["any"] == value


def test_overrides_leave_defaults_unchanged():
    snapshot = copy.deepcopy(DEFAULTS)
    cfg = resolve(DEFAULTS, {"outer": {"middle": {"inner": 2.5}}, "n": 8})
    assert cfg["outer"]["middle"] == {"inner": 2.5, "name": "x"}
    assert cfg["n"] == 8 and cfg["bounds"] == [0.0, 1.0]
    cfg["bounds"].append(2.0)
    cfg["outer"]["flag"] = True
    assert DEFAULTS == snapshot
