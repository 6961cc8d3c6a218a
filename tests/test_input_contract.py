"""The input contract, swept leaf by leaf through cli.dispatch.

Every number and array leaf of the dataset, multiscale and gen-rve defaults
trees is set, one at a time, to each of a few bad values on top of a tiny
valid base config.  Each case must exit 1 or 2 with one stderr line and no
output directory, unless ACCEPTED lists it with the reason it is a valid
input; then it must run.  The leaves are read from the defaults trees, so a
new key is swept without editing this file.
"""

import json
from dataclasses import MISSING, fields

import pytest

from microhom import cli, plate
from microhom.cli import dispatch
from microhom.config import kind
from microhom.dataset import DatasetConfig, config_to_dict
from microhom.microstructure import SpinodalParams
from microhom.plate import GRFConfig
from microhom.solver import SolverConfig

TREES = {
    "dataset": config_to_dict(DatasetConfig()),
    "multiscale": plate._MULTISCALE_DEFAULTS,
    "gen-rve": cli._CELL_DEFAULTS,
}
BASES = {
    "dataset": {"n_samples": 1, "n_vof_groups": 1, "resolution": [32, 32], "workers": 1},
    "multiscale": {"nx": 1, "ny": 1, "load_steps": 1, "workers": 1,
                   "micro": {"resolution": [32, 32]}},
    "gen-rve": {"rve": {"fiber": {}, "resolution": [64, 64]}},
    "gen-rve spinodal": {"rve": {"spinodal": {"steps": 1}, "resolution": [32, 32]}},
}
BAD_NUMBERS = [float("nan"), float("inf"), -1, 0]

ACCEPTED = {
    "dataset r_std_frac=0": "equal radii",
    "dataset gap_frac=0": "fibers may touch",
    "dataset gap_frac=-1": "gap_frac < 0 lets fibers overlap",
    "dataset fiber_nu_bounds=[0, 0.45]": "a Poisson ratio of 0 is physical",
    "dataset matrix_nu_bounds=[0, 0.4]": "a Poisson ratio of 0 is physical",
    "dataset master_seed=0": "0 is a seed",
    "multiscale s_total=0": "an unloaded plate: every step is zero",
    "multiscale s_total=-1": "a compressive edge displacement",
    "multiscale seed=0": "0 is a seed",
    "multiscale micro.r_std_frac=0": "equal radii",
    "multiscale micro.gap_frac=0": "fibers may touch",
    "multiscale micro.gap_frac=-1": "gap_frac < 0 lets fibers overlap",
    "multiscale micro.nu_fiber=0": "a Poisson ratio of 0 is physical",
    "multiscale micro.nu_matrix=0": "a Poisson ratio of 0 is physical",
    "multiscale grf_fiber.std=0": "a uniform modulus field",
    "multiscale grf_fiber.seed=0": "0 is a seed",
    "multiscale grf_matrix.std=0": "a uniform modulus field",
    "multiscale grf_matrix.seed=0": "0 is a seed",
    "gen-rve rve.fiber.r_std_frac=0": "equal radii",
    "gen-rve rve.fiber.seed=0": "0 is a seed",
    "gen-rve rve.fiber.gap_frac=0": "fibers may touch",
    "gen-rve rve.fiber.gap_frac=-1": "gap_frac < 0 lets fibers overlap",
    "gen-rve rve.spinodal.initial_noise_amplitude=0": "a uniform start, which stays uniform",
    "gen-rve rve.spinodal.seed=0": "0 is a seed",
}


def leaves(tree, prefix=""):
    """(dotted path, default) of every number and array leaf of a tree."""
    for key, default in tree.items():
        if isinstance(default, dict):
            yield from leaves(default, f"{prefix}{key}.")
        elif kind(default) in ("a number", "an array"):
            yield f"{prefix}{key}", default


def bad_values(default):
    """A number leaf's bad values, or an array leaf's: one entry short, one
    entry long, and the first entry replaced by each bad number."""
    if kind(default) == "a number":
        return BAD_NUMBERS
    default = list(default)
    return [default[:-1], default + default[-1:]] + [[b] + default[1:] for b in BAD_NUMBERS]


LEAVES = [(command, path, default) for command, tree in TREES.items()
          for path, default in leaves(tree)]
CASES = [f"{command} {path}={json.dumps(value)}" for command, path, default in LEAVES
         for value in bad_values(default)]


def test_sweep_covers_every_tree():
    swept = {command for command, _, _ in LEAVES}
    assert swept == set(TREES) and len(LEAVES) > 50
    for path in ("micro.solver.tol", "grf_fiber.mean", "rve.spinodal.dt", "solver.max_iter"):
        assert any(p == path for _, p, _ in LEAVES)


def none_leaves(tree, ranges, prefix=""):
    """(dotted path, rule) of every None leaf of a tree, with its range rule."""
    for key, default in tree.items():
        rule = ranges.get(key, "")
        if isinstance(default, dict):
            yield from none_leaves(default, rule, f"{prefix}{key}.")
        elif default is None:
            yield f"{prefix}{key}", rule


def test_every_none_default_has_a_rule():
    # a None default with no rule takes a string: only a_field_dir is a path
    cell = {**cli._CELL_DEFAULTS, "fiber_props": cli._PROPS, "matrix_props": cli._PROPS}
    trees = [(cell, cli._CELL_RANGES), (plate._MULTISCALE_DEFAULTS, plate._MULTISCALE_RANGES),
             (TREES["dataset"], DatasetConfig.RANGES)]
    for cls in (DatasetConfig, SolverConfig, SpinodalParams, GRFConfig):  # required fields
        trees.append(({f.name: None for f in fields(cls)
                       if f.default is MISSING and f.default_factory is MISSING}, cls.RANGES))
    leaves = [(path, rule) for tree, ranges in trees for path, rule in none_leaves(tree, ranges)]
    assert {path for path, rule in leaves if not rule} == {"a_field_dir"}
    assert {"fiber_props.E", "matrix_props.nu", "mean"} <= {path for path, _ in leaves}


def test_accepted_cases_are_swept():
    assert set(ACCEPTED) <= set(CASES)


@pytest.mark.parametrize("command,path,default", LEAVES,
                         ids=[f"{c}-{p}" for c, p, _ in LEAVES])
def test_bad_value_is_refused_before_output(tmp_path, capsys, command, path, default):
    base = "gen-rve spinodal" if path.startswith("rve.spinodal.") else command
    config = tmp_path / "base.json"
    config.write_text(json.dumps(BASES[base]))
    failures = []
    for i, value in enumerate(bad_values(default)):
        case = f"{command} {path}={json.dumps(value)}"
        out = tmp_path / f"out{i}"
        code = dispatch([command, "--config", str(config), "--out", str(out),
                         "--set", f"{path}={json.dumps(value)}"])
        err = capsys.readouterr().err.splitlines()
        if case in ACCEPTED:
            ok = code == 0
        else:
            ok = code in (1, 2) and len(err) == 1 and not out.exists()
        if not ok:
            failures.append(f"{case}: exit {code}, stderr {err}, output left: {out.exists()}")
    assert not failures, "\n".join(failures)
