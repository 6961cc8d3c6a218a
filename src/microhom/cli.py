"""Command-line front end.

Runs are driven by JSON config files; individual keys can be overridden on
the command line with dotted paths (--set solver.tol=1e-8).  Every config is
resolved and checked before any output (microhom.config.resolve): an unknown
key or a mistyped value is a usage error, a value out of range a domain
error, each naming the dotted path.  Every run writes the resolved config,
every default included (also the plate's micro.solver), next to its outputs
so it can be reproduced bitwise, plus a machine-readable summary.json.
Diagnostics go to stderr, one line each, library warnings included.

Exit codes: 0 success, 1 domain error (or an output that cannot be
written), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import dataset as dataset_mod
from . import plate as plate_mod
from .arrayio import read_array, write_array, write_pgm
from .config import kind, resolve
from .errors import ConfigError, DomainError
from .homogenization import (
    anisotropy_indicator,
    cell_operator,
    homogenized_stiffness,
    strain_concentration,
)
from .microstructure import (
    Microstructure,
    SpinodalParams,
    assign_properties,
    checked_grid,
    generate_fiber_rve,
    generate_spinodal_rve,
)
from .solver import SolverConfig, solve_unit_load
from .voigt import IsotropicProps, effective_enu


def _log(verbose: bool, message: str):
    if verbose:
        print(message, file=sys.stderr)


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {dotted!r} crosses a non-object")
        node[keys[-1]] = value
    return cfg


def _echo_config(out: Path, cfg: dict):
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")


def _write_summary(out: Path, summary: dict):
    (out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")


_PROPS = {"E": None, "nu": None}
_CELL = dataset_mod.DatasetConfig()  # the fiber cell's packing defaults
_SOLVER = asdict(SolverConfig())
_RVE_KINDS = ("file", "uniform", "fiber", "spinodal")
_RVE_DEFAULTS = {
    "file": "",
    "uniform": 0,
    "fiber": {"vof": 0.5, "r_mean": _CELL.r_mean, "r_std_frac": _CELL.r_std_frac,
              "seed": 0, "gap_frac": _CELL.gap_frac},
    "spinodal": {**asdict(SpinodalParams()), "seed": 0},
    "resolution": [128, 128],
}
_CELL_DEFAULTS = {"rve": _RVE_DEFAULTS, "domain": [50.0, 50.0]}
_PROPS_RANGES = {"E": "positive", "nu": dataset_mod.NU_RANGE}
_CELL_RANGES = {  # rules for config.resolve; a fiber cell's other keys are dataset keys
    "domain": "positive", "solver": SolverConfig.RANGES,
    "fiber_props": _PROPS_RANGES, "matrix_props": _PROPS_RANGES, "rve": {
        "fiber": {**_CELL.RANGES, "vof": _CELL.RANGES["vof_range"], "seed": ">= 0"},
        "spinodal": {**SpinodalParams.RANGES, "seed": ">= 0"}, "uniform": "in [0, 1]",
        "resolution": ">= 1 per axis"}}


def _props(cfg: dict, key: str) -> IsotropicProps:
    if None in cfg[key].values():
        raise ConfigError(f"{key!r} needs both E and nu")
    return IsotropicProps(float(cfg[key]["E"]), float(cfg[key]["nu"]))


def _cell(args, **defaults) -> tuple[dict, Microstructure]:
    """Resolve a cell command's config, an 'rve' node, a 'domain' and
    `defaults`, and build its cell.

    The user's 'rve' names exactly one kind of _RVE_KINDS, and only that
    kind is resolved: with 'resolution', but for a file cell, which drops
    any given beside it.  So the echo reruns the cell.
    """
    raw = _load_config(args)
    given = raw.get("rve", {})
    if not isinstance(given, dict):
        raise ConfigError(f"'rve' must be an object, got {kind(given)}")
    named = [k for k in _RVE_KINDS if k in given]
    if len(named) != 1:
        raise ConfigError(f"'rve' needs exactly one of: {', '.join(_RVE_KINDS)}; "
                          f"got {', '.join(named) or 'none'}")
    cell = named[0]
    kept = {cell: _RVE_DEFAULTS[cell], "resolution": _RVE_DEFAULTS["resolution"]}
    if cell == "file":
        del kept["resolution"]
        given.pop("resolution", None)
    cfg = resolve({**_CELL_DEFAULTS, "rve": kept, **defaults}, raw, _CELL_RANGES)
    domain, node = tuple(float(v) for v in cfg["domain"]), cfg["rve"]
    if cell == "file":
        grid = checked_grid(read_array(node["file"]), node["file"])
    elif cell == "uniform":
        grid = np.full(tuple(node["resolution"]), node["uniform"], dtype=np.uint8)
    else:
        sub, resolution = dict(node[cell]), node["resolution"]
        if cell == "fiber":
            vof = sub.pop("vof")
            return cfg, generate_fiber_rve(vof, domain=domain, resolution=resolution, **sub)
        seed = sub.pop("seed")
        return cfg, generate_spinodal_rve(SpinodalParams(**sub), domain, resolution, seed)
    return cfg, Microstructure(grid, domain, float(grid.mean()), seed=-1, kind=cell)


def _cmd_gen_rve(args) -> int:
    cfg, rve = _cell(args)
    out = Path(args.out)
    _echo_config(out, cfg)
    write_array(out / "rve.u8.bin", rve.grid)
    summary = {
        "kind": rve.kind,
        "resolution": list(rve.grid.shape),
        "domain": list(rve.domain_size),
        "achieved_vof": rve.achieved_vof,
        "seed": rve.seed,
        "n_fibers": None if rve.centers_radii is None else len(rve.centers_radii),
        "metadata": rve.metadata,
    }
    _write_summary(out, summary)
    _log(args.verbose, f"wrote {out / 'rve.u8.bin'} (vof {rve.achieved_vof:.4f})")
    return 0


def _solved_cell(args, **defaults):
    """A solving command's config, cell, stiffness field and solver settings;
    the phase properties are read and the config echoed before this returns."""
    # the keyword order is the echo's key order
    cfg, rve = _cell(args, fiber_props=_PROPS, matrix_props=_PROPS, **defaults, solver=_SOLVER)
    fiber, matrix = _props(cfg, "fiber_props"), _props(cfg, "matrix_props")
    solver = SolverConfig(**cfg["solver"])
    _echo_config(Path(args.out), cfg)
    return cfg, rve, assign_properties(rve, fiber, matrix), solver


def _cmd_solve(args) -> int:
    cfg, rve, c_field, solver = _solved_cell(args, macro_strain=[1.0, 0.0, 0.0])
    macro = [float(v) for v in cfg["macro_strain"]]
    out = Path(args.out)
    green = cell_operator(c_field, rve.domain_size)
    result = solve_unit_load(c_field, [macro], solver, green)
    strain, stress, history = result.strain[0], result.stress[0], result.residual_history[0]
    write_array(out / "strain.f64.bin", strain)
    write_array(out / "stress.f64.bin", stress)
    residual = history[-1] if history else 0.0
    summary = {
        "macro_strain": macro,
        "iterations": result.iterations,
        "residual": residual,
        "mean_stress": stress.mean(axis=(0, 1)).tolist(),
        "lame0": [green.lame0.lam, green.lame0.mu],
    }
    _write_summary(out, summary)
    _log(args.verbose, f"{result.iterations} iterations, residual {residual:.3e}")
    return 0


def _cmd_homogenize(args) -> int:
    cfg, rve, c_field, solver = _solved_cell(args)
    out = Path(args.out)
    conc = strain_concentration(c_field, solver, domain=rve.domain_size)
    cbar, asym = homogenized_stiffness(c_field, conc)
    eff = effective_enu(cbar)
    write_array(out / "a_field.f64.bin", conc.a)
    summary = {
        "achieved_vof": rve.achieved_vof,
        "cbar": cbar.tolist(),
        "asymmetry": asym,
        "anisotropy_indicator": anisotropy_indicator(cbar),
        "E_eff": eff.E,
        "nu_eff": eff.nu,
        "loads": conc.metadata["loads"],
        "lame0": list(conc.metadata["lame0"]),
    }
    _write_summary(out, summary)
    _log(args.verbose, f"E_eff = {eff.E:.6g} GPa, nu_eff = {eff.nu:.6g}")
    return 0


def _workers(args, cfg: dict) -> int:
    """--workers wins, then the config, then the CPUs this process may run
    on; a given 0 is passed on, to be rejected, not replaced."""
    if args.workers is not None:
        return args.workers
    workers = cfg.get("workers")
    if workers is not None:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_dataset(args) -> int:
    cfg = _load_config(args)
    if args.out:
        cfg["output_dir"] = args.out
    cfg["workers"] = _workers(args, cfg)
    dcfg = dataset_mod.config_from_dict(cfg)
    manifest = dataset_mod.generate_dataset(dcfg)
    summary = {
        "output_dir": dcfg.output_dir,
        "n_requested": manifest["n_requested"],
        "n_generated": len(manifest["samples"]),
        "n_failed": len(manifest["failures"]),
        "config_hash": manifest["config_hash"],
    }
    _write_summary(Path(dcfg.output_dir), summary)
    _log(args.verbose, f"generated {summary['n_generated']} samples")
    if manifest["failures"]:
        raise DomainError(f"{summary['n_failed']} of {summary['n_requested']} samples failed, "
                          f"see {Path(dcfg.output_dir) / dataset_mod.MANIFEST_NAME}")
    return 0


def _cmd_multiscale(args) -> int:
    cfg = _load_config(args)
    cfg["workers"] = _workers(args, cfg)
    summary = plate_mod.run_multiscale(cfg, args.out)
    reaction = summary["reaction_table"][-1]["reaction"]
    _log(args.verbose, f"{summary['n_elements']} elements, last step's reaction {reaction:.6g}")
    return 0


def _cmd_export_image(args) -> int:
    field = read_array(args.field).astype(float)
    for token in args.component.split(",") if args.component else ():
        try:
            index = int(token)
        except ValueError:
            raise ConfigError(f"--component takes integer indices, got {token!r}") from None
        if field.ndim < 3 or not -field.shape[2] <= index < field.shape[2]:
            raise DomainError(f"component {index} is out of range for field shape {field.shape}")
        field = field[:, :, index]
    if field.ndim != 2:
        raise DomainError(
            f"field is {field.ndim}-D after component selection; need 2-D "
            "(use --component)"
        )
    bounds = write_pgm(args.out, field)
    _log(args.verbose, f"wrote {args.out} (min {bounds['min']:.6g}, max {bounds['max']:.6g})")
    return 0


def _cmd_validate(args) -> int:
    problems = dataset_mod.validate_dataset(args.dataset)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        raise DomainError(f"dataset failed validation with {len(problems)} problem(s)")
    _log(args.verbose, "dataset is consistent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microhom",
        description="Periodic micromechanics: RVE generation, spectral solves, "
        "homogenization, dataset production, multiscale plate runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, func, help, out_default, workers=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config key (dotted path, JSON value)")
        p.add_argument("--out", default=out_default, help="output directory")
        p.add_argument("--verbose", action="store_true")
        if workers:
            p.add_argument("--workers", type=int, help=workers)
        p.set_defaults(func=func)

    common("gen-rve", _cmd_gen_rve, "generate a microstructure", "rve_out")
    common("solve", _cmd_solve, "solve one cell under a macro strain", "solve_out")
    common("homogenize", _cmd_homogenize, "concentration field and effective properties",
           "homogenize_out")
    common("dataset", _cmd_dataset, "batch-produce a labeled dataset", None,
           workers="worker processes, the calling one included")
    common("multiscale", _cmd_multiscale, "two-scale plate analysis", "multiscale_out",
           workers="threads that solve the cells")

    p = sub.add_parser("export-image", help="render an array file component to PGM")
    p.add_argument("--field", required=True, help="array file")
    p.add_argument("--component", help="trailing component indices, e.g. 0 or 0,0")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_export_image)

    p = sub.add_parser("validate", help="re-check a dataset directory")
    p.add_argument("--dataset", required=True, help="dataset root directory")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_validate)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except ConfigError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        except (DomainError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
