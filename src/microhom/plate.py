"""Concurrent multiscale plate analysis.

A macroscale plane-strain quadrilateral mesh (one periodic micro cell per
element) is driven through displacement steps; each element's tangent comes
from homogenizing its micro cell once up front, so the macro problem is
linear: one unit solve, every step a multiple.  Micro fields are recovered on
demand from the stored concentration tensors.

There is one macro element: the bilinear quadrilateral integrated at its
center, with perturbation hourglass control (Flanagan & Belytschko, IJNME 17,
1981).  Its hourglass coefficient is a module constant.

Element kernels are batched (one array pass over all elements, no loop:
closed-form 2x2 Jacobian inverses and stacked matmuls), and the SPD free-DOF
stiffness is factored once in SuperLU's symmetric mode, with the free DOFs
taken in the mesh's nested-dissection node order (George, SIAM J. Numer.
Anal. 10, 1973): on a 100 x 200 plate that order fills L+U to 5.4M
nonzeros, where minimum degree on A^T + A filled 7.2M.

Element Young's moduli can be modulated by a correlated Gaussian random
field: the truncated eigenexpansion of a squared-exponential covariance over
element centroids, taken from the eigenpairs of its x and y factors, so no
E x E matrix is formed (0.6 ms at 8 x 15 elements, 4.5 ms at 60 x 60, where
the dense covariance took 6.0 s, and 23 ms at 100 x 200 on a 2-core Xeon).

Units: mm for macro geometry, GPa for moduli (forces then come out in kN).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .arrayio import write_array
from .config import Checked, resolve
from .dataset import NU_RANGE, DatasetConfig, read_sample, sample_seed, stratify_vof, write_sample
from .errors import DomainError, MeshError, NonConvergenceError
from .homogenization import (
    ConcentrationField,
    homogenized_stiffness,
    reconstruct_strain,
    strain_concentration,
)
from .microstructure import assign_properties, check_fiber_fits, check_vof_order, generate_fiber_rve
from .solver import SolverConfig
from .voigt import IsotropicProps

_HOURGLASS_MODE = np.array([1.0, -1.0, 1.0, -1.0])
_HOURGLASS_COEF = 0.005  # fraction of the element stiffness scale
_CORNERS = np.array([[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])  # rows xi_a, eta_a
_DISSECTION_BLOCK = 16  # node blocks this small stay in natural order


@dataclass
class MacroMesh:
    """Quadrilateral macro mesh with its Dirichlet bookkeeping.

    dof_loaded carries the driven displacement (the loading edge);
    dof_fixed is pinned to zero; everything else is free.  node_order is the
    order in which the macro solve eliminates the nodes.
    """

    nodes: np.ndarray  # (N, 2) mm
    elems: np.ndarray  # (E, 4) CCW node indices
    dof_fixed: np.ndarray
    dof_loaded: np.ndarray
    node_order: np.ndarray  # (N,) a permutation of the node indices

    def __post_init__(self):
        if self.elems.min() < 0 or self.elems.max() >= len(self.nodes):
            raise MeshError("connectivity references nodes outside the mesh")
        if not np.array_equal(np.sort(self.node_order), np.arange(len(self.nodes))):
            raise MeshError("node_order is not a permutation of the nodes")

    @property
    def n_dofs(self) -> int:
        return 2 * len(self.nodes)

    @property
    def dof_free(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.dof_fixed] = False
        mask[self.dof_loaded] = False
        return np.nonzero(mask)[0]

    @property
    def elem_dofs(self) -> np.ndarray:
        """(E, 8) global DOFs of each element, ordered (u_x, u_y) per node."""
        return np.stack([2 * self.elems, 2 * self.elems + 1], axis=2).reshape(-1, 8)


@dataclass(frozen=True)
class GRFConfig(Checked):
    """Correlated random modulus field: mean/std in GPa, length in mm."""

    mean: float
    std: float = 0.0
    corr_length: float = 0.1
    seed: int = 0
    RANGES = {"mean": "positive", "std": ">= 0", "corr_length": "positive", "seed": ">= 0"}


@dataclass
class MacroState:
    """Macro solution of one load step.  Of the internal force K u it keeps the
    free-DOF residual norm and the reaction; newton_iterations is always 1."""

    step: int
    applied_displacement: float
    displacement: np.ndarray  # (2*N,)
    strain_m: np.ndarray  # (E, 3) tensorial
    stress_m: np.ndarray  # (E, 3)
    residual_norm: float
    reaction: float
    newton_iterations: int


def _dissection_order(ids: np.ndarray) -> np.ndarray:
    """Nested-dissection order of a 2-D grid of node ids: the grid line across
    the middle of the longer side separates two halves, which are numbered
    first (recursively), then the line itself.  Blocks of at most
    _DISSECTION_BLOCK nodes keep their natural order."""
    if ids.size <= _DISSECTION_BLOCK:
        return ids.ravel()
    rows, cols = ids.shape
    if cols >= rows:
        mid = cols // 2
        first, line, second = ids[:, :mid], ids[:, mid], ids[:, mid + 1:]
    else:
        mid = rows // 2
        first, line, second = ids[:mid], ids[mid], ids[mid + 1:]
    return np.concatenate([_dissection_order(first), _dissection_order(second), line])


def rect_plate_mesh(nx: int, ny: int, elem_w: float, elem_h: float) -> MacroMesh:
    """Regular nx x ny element plate: bottom edge fixed in both directions,
    top edge driven vertically (horizontal top motion stays free)."""
    if not all(float(n).is_integer() and n >= 1 for n in (nx, ny)):
        raise MeshError(f"mesh needs a whole number >= 1 of elements per direction, "
                        f"got {nx} x {ny}")
    if not all(np.isfinite(h) and h > 0 for h in (elem_w, elem_h)):
        raise MeshError(f"element sizes must be positive and finite, got {elem_w} x {elem_h}")
    nx, ny = int(nx), int(ny)
    xs = np.arange(nx + 1) * elem_w
    ys = np.arange(ny + 1) * elem_h
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])  # node id = iy*(nx+1) + ix

    n00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()  # element id = iy*nx + ix
    elems = np.column_stack([n00, n00 + 1, n00 + nx + 2, n00 + nx + 1])

    bottom = np.arange(nx + 1)
    top = ny * (nx + 1) + np.arange(nx + 1)
    dof_fixed = np.concatenate([2 * bottom, 2 * bottom + 1])
    dof_loaded = 2 * top + 1
    order = _dissection_order(np.arange(len(nodes)).reshape(ny + 1, nx + 1))
    return MacroMesh(nodes, elems, np.sort(dof_fixed), np.sort(dof_loaded), order)


def _kinematics(coords: np.ndarray):
    """At the element center, coords (E, 4, 2) give every element's B matrix
    (E, 3, 8; rows e11, e22, gamma12), Jacobian determinant (E,) and shape
    gradients dndx (E, 2, 4; rows d/dx, d/dy)."""
    grad = 0.25 * _CORNERS  # rows d/dxi, d/deta
    jac = grad @ coords
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    bad = np.flatnonzero(~(det > 0))
    if bad.size:
        raise MeshError(f"element {bad[0]}: non-positive Jacobian determinant {det[bad[0]]}")
    inv = np.empty_like(jac)  # adjugate over det
    inv[:, 0, 0], inv[:, 1, 1] = jac[:, 1, 1] / det, jac[:, 0, 0] / det
    inv[:, 0, 1], inv[:, 1, 0] = -jac[:, 0, 1] / det, -jac[:, 1, 0] / det
    dndx = inv @ grad
    b = np.zeros((len(coords), 3, 8))
    b[:, 0, 0::2] = b[:, 2, 1::2] = dndx[:, 0]
    b[:, 1, 1::2] = b[:, 2, 0::2] = dndx[:, 1]
    return b, det, dndx


def element_stiffness(coords: np.ndarray, c_storage: np.ndarray) -> np.ndarray:
    """Stiffness of every element: coords (E, 4, 2) and storage-convention
    tangents (E, 3, 3) give (E, 8, 8).

    The center sample alone leaves two zero-energy hourglass modes; a
    perturbation stiffness of _HOURGLASS_COEF times the element's stiffness
    scale restrains them.
    """
    c_eng = np.array(c_storage, dtype=float)
    c_eng[..., 2] *= 0.5  # engineering shear column, contracts with (e11, e22, gamma12)
    b, det, dndx = _kinematics(coords)
    area = 4.0 * det
    k = area[:, None, None] * (b.transpose(0, 2, 1) @ (c_eng @ b))

    # Hourglass control: project the hourglass mode out of the linear field,
    # then penalize it with a small fraction of the element stiffness scale.
    gamma = (
        _HOURGLASS_MODE
        - (coords[:, :, 0] @ _HOURGLASS_MODE)[:, None] * dndx[:, 0]
        - (coords[:, :, 1] @ _HOURGLASS_MODE)[:, None] * dndx[:, 1]
    )
    k_hg = (_HOURGLASS_COEF * (np.trace(c_eng, axis1=1, axis2=2) / 3.0) * area
            * (dndx**2).sum(axis=(1, 2)))
    hg_block = k_hg[:, None, None] * gamma[:, :, None] * gamma[:, None, :]
    k[:, 0::2, 0::2] += hg_block
    k[:, 1::2, 1::2] += hg_block
    return 0.5 * (k + k.transpose(0, 2, 1))


def assemble_stiffness(mesh: MacroMesh, tangents: np.ndarray) -> scipy.sparse.csr_matrix:
    """Global stiffness from per-element tangents (storage convention)."""
    ke = element_stiffness(mesh.nodes[mesh.elems], tangents)
    # int32 indices, which scipy keeps below 2**31 DOFs: int64 ones it copies down.
    dofs = mesh.elem_dofs.astype(np.int32)
    n = mesh.n_dofs
    return scipy.sparse.csr_matrix(
        (ke.ravel(), (np.repeat(dofs, 8, axis=1).ravel(), np.tile(dofs, 8).ravel())),
        shape=(n, n),
    )


def element_strains(mesh: MacroMesh, displacement: np.ndarray) -> np.ndarray:
    """Tensorial centroid strain of every element from nodal displacements:
    (2N,) gives (E, 3); stacked (steps, 2N) gives (steps, E, 3)."""
    b, _, _ = _kinematics(mesh.nodes[mesh.elems])
    u_e = displacement[..., mesh.elem_dofs]
    # Summed term by term, not by einsum, so that a step's strain is bitwise
    # the same whether it comes alone or stacked with other steps.
    strain = b[..., 0] * u_e[..., None, 0]
    for j in range(1, 8):
        strain += b[..., j] * u_e[..., None, j]
    strain[..., 2] *= 0.5
    return strain


def solve_plate(
    mesh: MacroMesh,
    tangents: np.ndarray,
    load_steps: int,
    s_total: float,
    newton_tol: float = 1e-7,
) -> list:
    """Displacement-driven quasi-static analysis with constant tangents.

    The total edge displacement is divided linearly over the load steps.
    There is one unit solve, every step a multiple: the free DOFs are solved
    once for a unit edge displacement, and step k's displacement, element
    strains and stresses, residual norm and reaction are its target
    displacement (its magnitude, for the norm) times the unit ones.  Of the
    global stiffness K (batched element kernels) the solve keeps only the SPD
    free block K_ff, the loaded rows and the right-hand side, and drops K
    before K_ff is factored in SuperLU's symmetric mode, its DOFs eliminated
    in mesh.node_order (nested dissection for rect_plate_mesh, no further
    column permutation); the factor goes once u is solved.  The residual
    K_ff u_free - rhs and the reaction, the loaded rows' sum, are the free
    and loaded parts of K u.  A step whose residual norm is above newton_tol
    raises NonConvergenceError naming the first such step; a singular K_ff
    raises DomainError, as do a non-finite s_total and a non-finite tangent.
    """
    if load_steps < 1:
        raise DomainError(f"load_steps must be >= 1, got {load_steps}")
    if not newton_tol > 0:
        raise DomainError(f"newton_tol must be > 0, got {newton_tol}")
    if not np.isfinite(s_total):
        raise DomainError(f"s_total must be finite, got {s_total}")
    tangents = np.asarray(tangents, dtype=float)
    if tangents.shape != (len(mesh.elems), 3, 3):
        raise DomainError(f"need one 3x3 tangent per element, got {tangents.shape}")
    bad = np.flatnonzero(~np.isfinite(tangents).all(axis=(1, 2)))
    if bad.size:
        raise DomainError(f"element {bad[0]}: non-finite tangent")
    k_global = assemble_stiffness(mesh, tangents)
    dofs = np.stack([2 * mesh.node_order, 2 * mesh.node_order + 1], axis=1).ravel()
    free = dofs[np.isin(dofs, mesh.dof_free)]
    if free.size == 0:
        raise DomainError("no free DOFs: the mesh is fully prescribed")
    # Constant tangents make every step a multiple of one unit-displacement solve.
    u_unit = np.zeros(mesh.n_dofs)
    u_unit[mesh.dof_loaded] = 1.0
    rhs = -(k_global @ u_unit)[free]
    k_ff = k_global[np.ix_(free, free)].tocsc()
    k_loaded = k_global[mesh.dof_loaded]
    del k_global
    try:
        lu = scipy.sparse.linalg.splu(
            k_ff, permc_spec="NATURAL", options=dict(SymmetricMode=True)
        )
    except RuntimeError as err:
        raise DomainError(f"singular macro stiffness: {err}") from err

    u_unit[free] = lu.solve(rhs)
    del lu
    strain_unit = element_strains(mesh, u_unit)
    stress_unit = np.einsum("eij,ej->ei", tangents, strain_unit)
    targets = s_total * np.arange(1, load_steps + 1) / load_steps
    r_norms = np.abs(targets) * np.linalg.norm(k_ff @ u_unit[free] - rhs)
    missed = np.flatnonzero(~(r_norms <= newton_tol))
    if missed.size:
        step = missed[0] + 1
        raise NonConvergenceError(
            f"macro step {step}: |R| = {r_norms[step - 1]:.3e} > newton_tol {newton_tol:.1e}",
            r_norms[:step].tolist(),
        )

    reaction_unit = (k_loaded @ u_unit).sum()
    return [
        MacroState(
            step=step,
            applied_displacement=float(target),
            displacement=target * u_unit,
            strain_m=target * strain_unit,
            stress_m=target * stress_unit,
            residual_norm=float(r_norm),
            reaction=float(target * reaction_unit),
            newton_iterations=1,
        )
        for step, (target, r_norm) in enumerate(zip(targets, r_norms), start=1)
    ]


def recover_micro(a_field: np.ndarray, c_field: np.ndarray, macro_strain):
    """Micro fields of one element: eps(x) = A(x):eps_M, sigma(x) = C(x):eps(x)."""
    eps = reconstruct_strain(a_field, macro_strain)
    sig = np.einsum("xyij,xyj->xyi", np.asarray(c_field), eps)
    return eps, sig


def kl_field(mesh: MacroMesh, cfg: GRFConfig) -> np.ndarray:
    """Per-element modulus field from a truncated eigenexpansion.

    Over element centroids on a tensor grid, the covariance
    std^2 * exp(-|X-X'|^2 / (2 l^2)) is std^2 times the Kronecker product of
    one unit-variance factor per axis (Saatci, PhD thesis, Cambridge 2011),
    so its eigenpairs are the products of the axes' eigenpairs.  The field is
    the mean plus std times the sum of sqrt(eigenvalue) * eigenvector *
    (standard normal draw) over the fewest leading products that carry 95%
    of the trace.  Identical config and seed give identical fields bitwise;
    centroids off a full tensor grid raise MeshError.
    """
    centroids = mesh.nodes[mesh.elems].mean(axis=1)
    (xs, ix), (ys, iy) = (np.unique(c, return_inverse=True) for c in centroids.T)
    if not len(centroids) == len(np.unique(iy * len(xs) + ix)) == len(xs) * len(ys):
        raise MeshError("element centroids do not form a tensor grid")
    with np.errstate(over="ignore"):  # far pairs: exp(-inf) = 0
        cov_x, cov_y = (np.exp(-0.5 * ((c[:, None] - c) / cfg.corr_length) ** 2) for c in (xs, ys))
    (vals_x, vecs_x), (vals_y, vecs_y) = np.linalg.eigh(cov_x), np.linalg.eigh(cov_y)
    vals = np.clip(np.outer(vals_x, vals_y), 0.0, None)
    order = np.argsort(-vals, axis=None, kind="stable")
    ranked = vals.flat[order]
    k = int(np.searchsorted(np.cumsum(ranked), 0.95 * ranked.sum()) + 1)
    rho = np.random.default_rng(cfg.seed).standard_normal(k)
    coef = np.zeros_like(vals)
    coef.flat[order[:k]] = np.sqrt(ranked[:k]) * rho
    return cfg.mean + cfg.std * (vecs_x @ coef @ vecs_y.T)[ix, iy]


@dataclass
class ElementMicro:
    """Per-element micro data: the homogenized tangent used by the macro
    solve, plus the stiffness grid and concentration field when kept."""

    tangent: np.ndarray
    c_field: Optional[np.ndarray] = None
    conc: Optional[ConcentrationField] = None


def element_response(
    rve_grid: np.ndarray,
    fiber: IsotropicProps,
    matrix: IsotropicProps,
    solver: SolverConfig,
    domain,
    keep_fields: bool = True,
) -> ElementMicro:
    """Homogenize one micro cell: three unit-load solves, tangent = <C A>.

    The raw (unsymmetrized) average is kept as the tangent so the recovered
    mean micro stress reproduces the macro stress identically.
    """
    c_field = assign_properties(rve_grid, fiber, matrix)
    conc = strain_concentration(c_field, solver, domain=domain)
    tangent, _ = homogenized_stiffness(c_field, conc, symmetrize=False)
    return ElementMicro(tangent, c_field, conc) if keep_fields else ElementMicro(tangent)


# An element's fiber cell is a dataset cell at the plate's own resolution
# and Poisson ratios.
_CELL = asdict(DatasetConfig())

_MULTISCALE_DEFAULTS = {
    "nx": 8, "ny": 15, "elem_size": [0.05, 0.05], "s_total": 0.0375, "load_steps": 5,
    "newton_tol": 1e-7, "seed": 0, "workers": 1, "a_field_dir": None, "save_micro": False,
    "micro": {
        "resolution": [64, 64], "domain": _CELL["domain_size"],
        **{k: _CELL[k] for k in ("r_mean", "r_std_frac", "gap_frac", "vof_range", "n_vof_groups")},
        "nu_fiber": 0.2, "nu_matrix": 0.35, "solver": asdict(SolverConfig()),
    },
    "grf_fiber": {"mean": 74.0, "std": 2.0, "corr_length": 0.1, "seed": 1},
    "grf_matrix": {"mean": 3.35, "std": 0.1, "corr_length": 0.1, "seed": 2},
}
_MULTISCALE_RANGES = {  # rules for config.resolve; micro's other keys are dataset keys
    "nx": ">= 1", "ny": ">= 1", "elem_size": "positive", "load_steps": ">= 1",
    "newton_tol": "positive", "seed": ">= 0", "workers": ">= 1",
    "micro": {**DatasetConfig.RANGES, "domain": "positive", "nu_fiber": NU_RANGE,
              "nu_matrix": NU_RANGE},
    "grf_fiber": GRFConfig.RANGES, "grf_matrix": GRFConfig.RANGES,
}


def run_multiscale(raw_config: dict, out_dir) -> dict:
    """Full two-scale run driven by a config dict; writes the last load step's
    fields (step k's are k/load_steps times them, to round-off) and a summary
    with one reaction-table row per step, and returns the summary."""
    cfg = resolve(_MULTISCALE_DEFAULTS, raw_config, _MULTISCALE_RANGES)
    micro = cfg["micro"]
    check_vof_order(micro["vof_range"])
    check_fiber_fits(micro["r_mean"], micro["gap_frac"], micro["domain"])
    mesh = rect_plate_mesh(cfg["nx"], cfg["ny"], *cfg["elem_size"])
    n_el = len(mesh.elems)
    solver = SolverConfig(**micro["solver"])
    roots = None
    if cfg["a_field_dir"]:
        micro_dir = Path(cfg["a_field_dir"])
        if not micro_dir.is_dir():
            raise DomainError(f"a_field_dir {micro_dir} is not a directory")
        roots = sorted(p for p in micro_dir.iterdir() if p.is_dir())
        if len(roots) != n_el:
            raise DomainError(
                f"a_field_dir holds {len(roots)} element dirs, mesh has {n_el} elements"
            )
    else:
        moduli = {k: kl_field(mesh, GRFConfig(**cfg[k])) for k in ("grf_fiber", "grf_matrix")}
        for name, field in moduli.items():
            e = int(np.argmin(field))  # the first NaN, if any
            if not field[e] > 0:
                raise DomainError(f"{name} draws modulus {field[e]:.4g} at element {e}, not > 0")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")

    if roots is not None:
        tangents = []
        for cell_dir in roots:
            grid, fiber, matrix, conc = read_sample(cell_dir)
            c_field = assign_properties(grid, fiber, matrix)
            tangents.append(homogenized_stiffness(c_field, conc, symmetrize=False)[0])
    else:
        vofs = stratify_vof(n_el, micro["vof_range"], micro["n_vof_groups"])
        vofs = np.random.default_rng(cfg["seed"]).permutation(vofs)

        def solve_element(e: int) -> np.ndarray:
            seed = sample_seed(cfg["seed"], e)
            rve = generate_fiber_rve(
                float(vofs[e]),
                micro["r_mean"],
                micro["r_std_frac"],
                micro["domain"],
                micro["resolution"],
                seed=seed,
                gap_frac=micro["gap_frac"],
            )
            fiber = IsotropicProps(float(moduli["grf_fiber"][e]), micro["nu_fiber"])
            matrix = IsotropicProps(float(moduli["grf_matrix"][e]), micro["nu_matrix"])
            el = element_response(
                rve.grid, fiber, matrix, solver, micro["domain"],
                keep_fields=cfg["save_micro"],
            )
            if cfg["save_micro"]:
                write_sample(out / "micro" / f"{e:06d}", rve, fiber, matrix, el.conc,
                             e, seed, float(vofs[e]))
            return el.tangent

        pool = ThreadPoolExecutor(max_workers=cfg["workers"])
        try:
            tangents = list(pool.map(solve_element, range(n_el)))
        finally:
            pool.shutdown(cancel_futures=True)  # an error stops the queued elements

    states = solve_plate(
        mesh, np.stack(tangents), cfg["load_steps"], cfg["s_total"],
        newton_tol=cfg["newton_tol"],
    )

    for name in ("displacement", "strain_m", "stress_m"):
        write_array(out / f"{name}.f64.bin", getattr(states[-1], name))
    table = [
        {"step": state.step, "displacement": state.applied_displacement,
         "reaction": state.reaction, "residual": state.residual_norm}
        for state in states
    ]
    summary = {
        "n_elements": n_el,
        "n_nodes": len(mesh.nodes),
        "load_steps": cfg["load_steps"],
        "s_total": cfg["s_total"],
        "reaction_table": table,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary
