"""Strain concentration tensors and effective stiffness of a periodic cell.

The concentration field collects the three unit-load solutions column by
column; any macro strain then maps to its micro strain by a pixelwise matrix
product, and the volume average of C(x) A(x) is the homogenized stiffness.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergenceError
from .green import (
    GreenField, green_operator, lame_fields_from_stiffness, make_freq_grid, reference_material,
)
from .solver import SolverConfig, solve_unit_load

UNIT_LOADS = np.eye(3)

# Plain-matrix-vs-tensor column weights of the storage convention (see voigt).
_SHEAR_COLUMN = np.array([1.0, 1.0, 2.0])

# A solve converged to equilibrium index Tol leaves a plain-component
# asymmetry in Cbar below 6 Tol ||Cbar|| (median 0.5 to 1.7 Tol ||Cbar||),
# measured for Tol 1e-3 to 1e-10 on 128^2 and 256^2 fiber cells of contrast 3
# to 34, and 1.0 to 3.2 Tol ||Cbar|| on seven 512^2 contrast-34 fiber cells at
# Tol 1e-6.  Above ASYMMETRY_FACTOR * tol * ||Cbar|| the warning flags a
# solution worse than its tolerance promises; above ASYMMETRY_CEILING *
# ||Cbar|| it flags a Cbar too asymmetric to trust whatever tolerance was
# asked for (a Tol 1e-2 solve leaves up to 1.6e-2 ||Cbar||).
ASYMMETRY_FACTOR = 10.0
ASYMMETRY_CEILING = 1e-3

# Smallest cell whose unit loads strain_concentration solves one per lane.
LANE_MIN_PIXELS = 128 * 128


def asymmetry_threshold(tol: float) -> float:
    """Relative Cbar asymmetry above which homogenized_stiffness warns."""
    return min(ASYMMETRY_FACTOR * tol, ASYMMETRY_CEILING)


@dataclass
class ConcentrationField:
    """Per-pixel strain concentration matrices A(x) with solve diagnostics.

    metadata carries per-load iteration counts and final residuals so dataset
    quality can be audited after the fact, and the solver tol, from which
    homogenized_stiffness derives the asymmetry it warns above.
    """

    a: np.ndarray  # (T1, T2, 3, 3)
    metadata: dict = field(default_factory=dict)


def _lane_count(n_pixels: int) -> int:
    """Groups of the three unit loads of an n_pixels cell: 1 below
    LANE_MIN_PIXELS, else one per load."""
    return 1 if n_pixels < LANE_MIN_PIXELS else len(UNIT_LOADS)


def _load_record(j: int, history: list) -> dict:
    """The metadata entry of unit load j, converged after len(history) iterations."""
    return {
        "load": j,
        "iterations": len(history),
        "residual": history[-1] if history else 0.0,
        "converged": True,
    }


def cell_operator(c_field: np.ndarray, domain=None) -> GreenField:
    """The Green operator of a (T1, T2, 3, 3) stiffness field on a cell of
    physical size domain (L1, L2), by default one unit per pixel: its
    frequency grid, with the midpoint reference medium of its pixels."""
    T1, T2 = np.shape(c_field)[:2]
    if domain is None:
        domain = (float(T1), float(T2))
    grid = make_freq_grid((T1, T2), domain)
    return green_operator(grid, reference_material(*lame_fields_from_stiffness(c_field)))


def strain_concentration(
    c_field: np.ndarray, config: SolverConfig, domain=None
) -> ConcentrationField:
    """Solve the three orthogonal unit loads and assemble A(x).

    Column j of A(x) is the strain field under the unit macro strain e_j, so
    A(x) : ebar reproduces the micro strain of any load by superposition.
    The cell's Green operator (cell_operator) is built once and shared by
    the three solves.

    The loads are split into _lane_count groups, each solved as one stack
    by solve_unit_load: a cell of fewer than LANE_MIN_PIXELS (128^2) pixels,
    as in the dataset and plate pools, is one group of the three loads,
    solved in lockstep on the calling thread.  A larger cell is three
    groups of one load on any CPU count: the caller solves load 0 and two
    helper threads loads 1 and 2, as the FFTs and einsums release the GIL.
    Each load's arithmetic is the same in any group, so A is bitwise the
    same for one group or three.  Results are read in group order once
    every helper is joined, so a failed load raises the error of the lowest
    one, "unit load j: " and the solver's message, as a serial loop would.
    On 2 CPUs (numpy 2.4.6, contrast-34 fiber cells at tol 1e-6,
    ranges over runs and two cells), this call on the stack/3 lanes took
    16-24/65-83 ms at 32^2, 44-56/68-85 ms at 64^2, 140-193/104-115 ms at
    128^2 and 739-797/393-490 ms at 256^2; on 1 CPU the two tie, at
    164-178/162-191 ms at 128^2 and 826-896/780-853 ms at 256^2.
    """
    c_field = np.asarray(c_field, dtype=float)
    T1, T2 = c_field.shape[:2]
    green = cell_operator(c_field, domain)

    a = np.empty((T1, T2, 3, 3))
    loads = [None] * len(UNIT_LOADS)

    def solve(group):
        """Solve the loads of group as one stack into their columns of a and
        their records."""
        try:
            res = solve_unit_load(c_field, UNIT_LOADS[group], config, green)
        except NonConvergenceError as err:
            raise NonConvergenceError(f"unit load {group[err.load]}: {err}", err.history) from err
        a[..., :, group] = res.strain.transpose(1, 2, 3, 0)
        for j, history in zip(group, res.residual_history):
            loads[j] = _load_record(j, history)

    groups = [g.tolist() for g in np.array_split(range(len(UNIT_LOADS)), _lane_count(T1 * T2))]
    # no thread starts unless a group is submitted
    with ThreadPoolExecutor(max(len(groups) - 1, 1)) as helpers:
        helped = [helpers.submit(solve, group) for group in groups[1:]]
        solve(groups[0])
    for future in helped:
        future.result()
    return ConcentrationField(
        a,
        metadata={
            "loads": loads,
            "tol": config.tol,
            "lame0": (green.lame0.lam, green.lame0.mu),
        },
    )


def homogenized_stiffness(c_field: np.ndarray, conc, symmetrize: bool = True):
    """Volume average Cbar = <C(x) A(x)> with optional symmetrization.

    The average is symmetrized in plain tensor components (the stored shear
    column carries a factor 2, so raw storage of a coupled stiffness is not
    itself a symmetric matrix).  The remaining asymmetry measures how well
    the converged solution honors major symmetry and is returned alongside.
    Above asymmetry_threshold(tol) * ||Cbar|| it is also surfaced as a
    warning, with the tol recorded in the ConcentrationField metadata, or
    else the default SolverConfig tol (e.g. for a bare (T1, T2, 3, 3) array).

    Returns:
        (cbar, asymmetry): the (3, 3) effective stiffness and the maximum
        plain-component asymmetry before symmetrization.
    """
    a = conc.a if isinstance(conc, ConcentrationField) else np.asarray(conc)
    meta = conc.metadata if isinstance(conc, ConcentrationField) else {}
    threshold = asymmetry_threshold(meta.get("tol", SolverConfig().tol))
    c_field = np.asarray(c_field, dtype=float)
    if c_field.shape[:2] != a.shape[:2]:
        raise ValueError(f"grid shapes differ: {c_field.shape[:2]} vs {a.shape[:2]}")
    n_pix = a.shape[0] * a.shape[1]
    raw = np.einsum("xyij,xyjk->ik", c_field, a) / n_pix

    plain = raw / _SHEAR_COLUMN  # divide shear column: plain tensor components
    asymmetry = float(np.abs(plain - plain.T).max())
    norm = float(np.linalg.norm(raw))
    if norm > 0 and asymmetry > threshold * norm:
        warnings.warn(
            f"homogenized stiffness asymmetry {asymmetry:.3e} exceeds {threshold:.1e}*||Cbar||",
            stacklevel=2,
        )
    if not symmetrize:
        return raw, asymmetry
    cbar = 0.5 * (plain + plain.T) * _SHEAR_COLUMN
    return cbar, asymmetry


def reconstruct_strain(conc, macro_strain) -> np.ndarray:
    """Micro strain field eps(x) = A(x) : ebar."""
    a = conc.a if isinstance(conc, ConcentrationField) else np.asarray(conc)
    macro = np.asarray(macro_strain, dtype=float).reshape(3)
    return np.einsum("xyij,j->xyi", a, macro)


def anisotropy_indicator(cbar: np.ndarray) -> float:
    """|C[0,0] - C[1,1]| / ||C||: departure of the cell from statistical isotropy."""
    cbar = np.asarray(cbar)
    norm = float(np.linalg.norm(cbar))
    if norm == 0.0:
        return 0.0
    return float(abs(cbar[0, 0] - cbar[1, 1]) / norm)


def reuss_voigt_bounds(c_field: np.ndarray):
    """Pixelwise bounds on the effective stiffness.

    Returns (C_reuss, C_voigt): the inverse of the mean pixel compliance and
    the mean pixel stiffness.
    """
    c_field = np.asarray(c_field, dtype=float)
    flat = c_field.reshape(-1, 3, 3)
    c_voigt = flat.mean(axis=0)
    c_reuss = np.linalg.inv(np.linalg.inv(flat).mean(axis=0))
    return c_reuss, c_voigt
