"""Strain concentration tensors and effective stiffness of a periodic cell.

The concentration field collects the three unit-load solutions column by
column; any macro strain then maps to its micro strain by a pixelwise matrix
product, and the volume average of C(x) A(x) is the homogenized stiffness.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergenceError
from .green import green_operator, lame_fields_from_stiffness, make_freq_grid, reference_material
from .solver import SolverConfig, solve_unit_load

UNIT_LOADS = np.eye(3)

# Plain-matrix-vs-tensor column weights of the storage convention (see voigt).
_SHEAR_COLUMN = np.array([1.0, 1.0, 2.0])

# A solve converged to equilibrium index Tol leaves a plain-component
# asymmetry in Cbar below 6 Tol ||Cbar|| (median 0.5 to 1.7 Tol ||Cbar||),
# measured for Tol 1e-3 to 1e-10 on 128^2 and 256^2 fiber cells of contrast
# 3 to 34.  Above ASYMMETRY_FACTOR * tol * ||Cbar|| the warning flags a
# solution worse than its tolerance promises; above ASYMMETRY_CEILING *
# ||Cbar|| it flags a Cbar too asymmetric to trust whatever tolerance was
# asked for (a Tol 1e-2 solve leaves up to 1.6e-2 ||Cbar||).
ASYMMETRY_FACTOR = 10.0
ASYMMETRY_CEILING = 1e-3

# Smallest cell whose unit loads strain_concentration solves on lanes.
LANE_MIN_PIXELS = 128 * 128


def asymmetry_threshold(tol: float) -> float:
    """Relative Cbar asymmetry above which homogenized_stiffness warns."""
    return min(ASYMMETRY_FACTOR * tol, ASYMMETRY_CEILING)


@dataclass
class ConcentrationField:
    """Per-pixel strain concentration matrices A(x) with solve diagnostics.

    metadata carries per-load iteration counts and final residuals so dataset
    quality can be audited after the fact, and the asymmetry_threshold that
    homogenized_stiffness warns above.
    """

    a: np.ndarray  # (T1, T2, 3, 3)
    metadata: dict = field(default_factory=dict)

    @property
    def shape(self):
        return self.a.shape[:2]


def _lane_count(n_pixels: int) -> int:
    """Threads for the three unit loads of an n_pixels cell: 1 below
    LANE_MIN_PIXELS, else one per CPU, at most 3."""
    if n_pixels < LANE_MIN_PIXELS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(len(UNIT_LOADS), cpus)


def strain_concentration(
    c_field: np.ndarray, config: SolverConfig, domain=None
) -> ConcentrationField:
    """Solve the three orthogonal unit loads and assemble A(x).

    Column j of A(x) is the strain field under the unit macro strain e_j, so
    A(x) : ebar reproduces the micro strain of any load by superposition.
    The frequency grid and Green operator are built once and shared by the
    three solves.

    The loads run on lanes: the calling thread solves load 0 and one helper
    thread each of the next loads, one lane per CPU up to three, as the FFTs
    and einsums release the GIL; a load left over runs on the caller after
    the helpers finish.  Each load's arithmetic is the same on any lane, so
    A is bitwise that of a serial solve.  Lanes are used only when the cell
    has at least LANE_MIN_PIXELS (128^2) pixels; smaller cells solve the
    loads one after another.  On 2 CPUs (numpy 2.4.6, contrast-34 fiber
    cells at tol 1e-6), this call on 1/2/3 lanes took 30-36/57-60/58-77 ms
    at 32^2, 80-100/77-93/84-92 ms at 64^2, 344-375/242-297/231-239 ms at
    128^2 and 1710-1732/1151-1192/913-967 ms at 256^2.  Below the threshold
    lanes also lose inside the dataset and plate thread pools, which keep
    the CPUs busy already: forced into the workers of a 64-sample 64^2
    dataset on 2 threads, they took it from 3.8-4.1 s to 4.0-4.6 s.
    """
    c_field = np.asarray(c_field, dtype=float)
    T1, T2 = c_field.shape[:2]
    if domain is None:
        domain = (float(T1), float(T2))
    grid = make_freq_grid((T1, T2), domain)
    lam, mu = lame_fields_from_stiffness(c_field)
    green = green_operator(grid, reference_material(lam, mu))

    a = np.empty((T1, T2, 3, 3))

    def solve(j):
        try:
            res = solve_unit_load(
                c_field, UNIT_LOADS[j], config, domain=domain, grid=grid, green=green
            )
        except NonConvergenceError as err:
            raise NonConvergenceError(f"unit load {j}: {err}", err.history) from err
        a[..., :, j] = res.strain
        return {
            "load": j,
            "iterations": res.iterations,
            "residual": res.residual_history[-1] if res.residual_history else 0.0,
            "converged": res.converged,
        }

    lanes = _lane_count(T1 * T2)
    # Each helper solves one load; the caller solves load 0, then any load
    # left over once the helpers are done (every load, on one lane).  Results
    # are read in load order, so a failure raises the error a serial loop would.
    with ThreadPoolExecutor(max(lanes - 1, 1)) as helpers:
        helped = [helpers.submit(solve, j) for j in range(1, lanes)]
        loads = [solve(0)] + [f.result() for f in helped]
    loads += [solve(j) for j in range(lanes, len(UNIT_LOADS))]
    return ConcentrationField(
        a,
        metadata={
            "loads": loads,
            "tol": config.tol,
            "asymmetry_threshold": asymmetry_threshold(config.tol),
            "lame0": (green.lame0.lam, green.lame0.mu),
        },
    )


def homogenized_stiffness(c_field: np.ndarray, conc, symmetrize: bool = True):
    """Volume average Cbar = <C(x) A(x)> with optional symmetrization.

    The average is symmetrized in plain tensor components (the stored shear
    column carries a factor 2, so raw storage of a coupled stiffness is not
    itself a symmetric matrix).  The remaining asymmetry measures how well
    the converged solution honors major symmetry and is returned alongside.
    Above threshold * ||Cbar|| it is also surfaced as a warning, with the
    threshold recorded in the ConcentrationField metadata, or else that of
    the default SolverConfig tol (e.g. for a bare (T1, T2, 3, 3) array).

    Returns:
        (cbar, asymmetry): the (3, 3) effective stiffness and the maximum
        plain-component asymmetry before symmetrization.
    """
    a = conc.a if isinstance(conc, ConcentrationField) else np.asarray(conc)
    meta = conc.metadata if isinstance(conc, ConcentrationField) else {}
    threshold = meta.get("asymmetry_threshold", asymmetry_threshold(SolverConfig().tol))
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
