"""Concurrent multiscale plate analysis.

A macroscale plane-strain quadrilateral mesh (one periodic micro cell per
element, single-point integration with perturbation hourglass control) is
driven through displacement steps by a Newton loop; each element's tangent
comes from homogenizing its micro cell once up front, and micro fields are
recovered on demand from the stored concentration tensors.

Element Young's moduli can be modulated by a correlated Gaussian random
field built from the truncated eigenexpansion of a squared-exponential
covariance over element centroids.

Units: mm for macro geometry, GPa for moduli (forces then come out in kN).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .arrayio import write_array
from .config import resolve
from .dataset import read_sample, sample_seed, stratify_vof, write_sample
from .errors import DomainError, MeshError, NonConvergenceError
from .homogenization import homogenized_stiffness, strain_concentration
from .microstructure import assign_properties, generate_fiber_rve
from .solver import SolverConfig
from .voigt import IsotropicProps

_HOURGLASS_MODE = np.array([1.0, -1.0, 1.0, -1.0])


@dataclass
class MacroMesh:
    """Quadrilateral macro mesh with its Dirichlet bookkeeping.

    dof_loaded carries the driven displacement (the loading edge);
    dof_fixed is pinned to zero; everything else is free.
    """

    nodes: np.ndarray  # (N, 2) mm
    elems: np.ndarray  # (E, 4) CCW node indices
    dof_fixed: np.ndarray
    dof_loaded: np.ndarray

    def __post_init__(self):
        if self.elems.min() < 0 or self.elems.max() >= len(self.nodes):
            raise MeshError("connectivity references nodes outside the mesh")

    @property
    def n_dofs(self) -> int:
        return 2 * len(self.nodes)

    @property
    def dof_free(self) -> np.ndarray:
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.dof_fixed] = False
        mask[self.dof_loaded] = False
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class GRFConfig:
    """Correlated random modulus field: mean/std in GPa, length in mm."""

    mean: float
    std: float = 0.0
    corr_length: float = 0.1
    n_modes: Optional[int] = None  # None: smallest count carrying 95% of the trace
    seed: int = 0

    def __post_init__(self):
        if self.std < 0:
            raise DomainError(f"std must be >= 0, got {self.std}")
        if not self.corr_length > 0:
            raise DomainError(f"corr_length must be positive, got {self.corr_length}")
        if self.n_modes is not None and self.n_modes < 0:
            raise DomainError(f"n_modes must be >= 0, got {self.n_modes}")


@dataclass
class MacroState:
    """Converged macro solution of one load step."""

    step: int
    applied_displacement: float
    displacement: np.ndarray  # (2*N,)
    strain_m: np.ndarray  # (E, 3) tensorial
    stress_m: np.ndarray  # (E, 3)
    tangents: np.ndarray  # (E, 3, 3), shared across steps
    f_int: np.ndarray
    residual_norm: float
    reaction: float
    newton_iterations: int


def rect_plate_mesh(nx: int, ny: int, elem_w: float, elem_h: float) -> MacroMesh:
    """Regular nx x ny element plate: bottom edge fixed in both directions,
    top edge driven vertically (horizontal top motion stays free)."""
    if nx < 1 or ny < 1:
        raise MeshError("mesh needs at least one element per direction")
    xs = np.arange(nx + 1) * elem_w
    ys = np.arange(ny + 1) * elem_h
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])  # node id = iy*(nx+1) + ix

    elems = []
    for iy in range(ny):
        for ix in range(nx):
            n00 = iy * (nx + 1) + ix
            elems.append([n00, n00 + 1, n00 + nx + 2, n00 + nx + 1])
    elems = np.array(elems, dtype=int)

    bottom = np.arange(nx + 1)
    top = ny * (nx + 1) + np.arange(nx + 1)
    dof_fixed = np.concatenate([2 * bottom, 2 * bottom + 1])
    dof_loaded = 2 * top + 1
    return MacroMesh(nodes, elems, np.sort(dof_fixed), np.sort(dof_loaded))


def _grad_at(xi: float, eta: float) -> np.ndarray:
    """Parent-space shape gradients of the bilinear quad, rows (d/dxi, d/deta)."""
    return 0.25 * np.array(
        [
            [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
            [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
        ]
    )


def _b_matrix(coords: np.ndarray, xi: float = 0.0, eta: float = 0.0):
    """Engineering B matrix (rows e11, e22, gamma12) and Jacobian determinant."""
    grad = _grad_at(xi, eta)
    jac = grad @ coords
    det = np.linalg.det(jac)
    if det <= 0:
        raise MeshError(f"non-positive Jacobian determinant {det}")
    dndx = np.linalg.solve(jac, grad)  # rows d/dx, d/dy
    b = np.zeros((3, 8))
    b[0, 0::2] = dndx[0]
    b[1, 1::2] = dndx[1]
    b[2, 0::2] = dndx[1]
    b[2, 1::2] = dndx[0]
    return b, det, dndx


def _engineering_tangent(c_storage: np.ndarray) -> np.ndarray:
    """Convert the tensorial-shear Voigt storage to the engineering form that
    contracts with (e11, e22, gamma12): halve the shear column."""
    c = np.array(c_storage, dtype=float)
    c[:, 2] *= 0.5
    return c


def element_stiffness(
    coords: np.ndarray,
    c_storage: np.ndarray,
    hourglass_coef: float = 0.005,
    integration: str = "reduced",
) -> np.ndarray:
    """8x8 element stiffness.

    Reduced integration samples the center only and adds perturbation
    hourglass stiffness along the two zero-energy modes; full 2x2 integration
    is available for verification runs and needs no stabilization.
    """
    c_eng = _engineering_tangent(c_storage)
    if integration == "full":
        gp = 1.0 / np.sqrt(3.0)
        k = np.zeros((8, 8))
        for xi in (-gp, gp):
            for eta in (-gp, gp):
                b, det, _ = _b_matrix(coords, xi, eta)
                k += det * b.T @ c_eng @ b
        return 0.5 * (k + k.T)
    if integration != "reduced":
        raise DomainError(f"unknown integration {integration!r}")

    b, det, dndx = _b_matrix(coords)
    area = 4.0 * det
    k = area * b.T @ c_eng @ b

    # Hourglass control: project the hourglass mode out of the linear field,
    # then penalize it with a small fraction of the element stiffness scale.
    gamma = (
        _HOURGLASS_MODE
        - (_HOURGLASS_MODE @ coords[:, 0]) * dndx[0]
        - (_HOURGLASS_MODE @ coords[:, 1]) * dndx[1]
    )
    k_hg = hourglass_coef * (np.trace(c_eng) / 3.0) * area * float((dndx**2).sum())
    hg_block = k_hg * np.outer(gamma, gamma)
    k[0::2, 0::2] += hg_block
    k[1::2, 1::2] += hg_block
    return 0.5 * (k + k.T)


def assemble_stiffness(
    mesh: MacroMesh,
    tangents: np.ndarray,
    hourglass_coef: float = 0.005,
    integration: str = "reduced",
) -> scipy.sparse.csr_matrix:
    """Global stiffness from per-element tangents (storage convention)."""
    rows, cols, vals = [], [], []
    for e, conn in enumerate(mesh.elems):
        ke = element_stiffness(mesh.nodes[conn], tangents[e], hourglass_coef, integration)
        dofs = np.column_stack([2 * conn, 2 * conn + 1]).ravel()
        rows.append(np.repeat(dofs, 8))
        cols.append(np.tile(dofs, 8))
        vals.append(ke.ravel())
    n = mesh.n_dofs
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def element_strains(mesh: MacroMesh, displacement: np.ndarray) -> np.ndarray:
    """Tensorial centroid strain of every element from nodal displacements."""
    out = np.empty((len(mesh.elems), 3))
    for e, conn in enumerate(mesh.elems):
        b, _, _ = _b_matrix(mesh.nodes[conn])
        dofs = np.column_stack([2 * conn, 2 * conn + 1]).ravel()
        eng = b @ displacement[dofs]
        out[e] = (eng[0], eng[1], 0.5 * eng[2])
    return out


def solve_plate(
    mesh: MacroMesh,
    tangents: np.ndarray,
    load_steps: int,
    s_total: float,
    newton_tol: float = 1e-7,
    newton_cap: int = 30,
    hourglass_coef: float = 0.005,
    integration: str = "reduced",
) -> list:
    """Displacement-driven quasi-static analysis.

    The total edge displacement is divided linearly over the load steps; each
    step runs a Newton loop (assemble residual, solve on the free DOFs,
    update) until the free-DOF residual norm drops below newton_tol.  The
    reaction is the internal-force sum over the loaded DOFs.
    """
    tangents = np.asarray(tangents, dtype=float)
    if tangents.shape != (len(mesh.elems), 3, 3):
        raise DomainError(f"need one 3x3 tangent per element, got {tangents.shape}")
    k_global = assemble_stiffness(mesh, tangents, hourglass_coef, integration)
    free = mesh.dof_free
    if free.size == 0:
        raise DomainError("no free DOFs: the mesh is fully prescribed")
    k_ff = k_global[np.ix_(free, free)].tocsc()
    try:
        lu = scipy.sparse.linalg.splu(k_ff)
    except RuntimeError as err:
        raise DomainError(f"singular macro stiffness: {err}") from err

    s = np.zeros(mesh.n_dofs)
    states = []
    for step in range(1, load_steps + 1):
        target = s_total * step / load_steps
        s[mesh.dof_fixed] = 0.0
        s[mesh.dof_loaded] = target

        iters = 0
        while True:
            f_int = k_global @ s
            residual = -f_int
            r_norm = float(np.linalg.norm(residual[free]))
            if iters > 0 and r_norm <= newton_tol:
                break
            if iters >= newton_cap:
                raise NonConvergenceError(
                    f"Newton stalled at step {step}: |R| = {r_norm:.3e}", [r_norm]
                )
            s[free] += lu.solve(residual[free])
            iters += 1

        strain_m = element_strains(mesh, s)
        stress_m = np.einsum("eij,ej->ei", tangents, strain_m)
        states.append(
            MacroState(
                step=step,
                applied_displacement=target,
                displacement=s.copy(),
                strain_m=strain_m,
                stress_m=stress_m,
                tangents=tangents,
                f_int=f_int.copy(),
                residual_norm=r_norm,
                reaction=float(f_int[mesh.dof_loaded].sum()),
                newton_iterations=iters,
            )
        )
    return states


def recover_micro(a_field: np.ndarray, c_field: np.ndarray, macro_strain):
    """Micro fields of one element: eps(x) = A(x):eps_M, sigma(x) = C(x):eps(x)."""
    macro = np.asarray(macro_strain, dtype=float).reshape(3)
    eps = np.einsum("xyij,j->xyi", np.asarray(a_field), macro)
    sig = np.einsum("xyij,xyj->xyi", np.asarray(c_field), eps)
    return eps, sig


def kl_field(mesh: MacroMesh, cfg: GRFConfig) -> np.ndarray:
    """Per-element modulus field from a truncated eigenexpansion.

    The covariance std^2 * exp(-|X-X'|^2 / (2 l^2)) is evaluated at element
    centroids and eigendecomposed; the field is the mean plus the sum of
    sqrt(eigenvalue) * eigenvector * (standard normal draw) over the leading
    modes.  With n_modes unset, the smallest count capturing 95% of the
    covariance trace is used.  Identical config and seed give identical
    fields bitwise.
    """
    n_el = len(mesh.elems)
    if cfg.std == 0.0 or cfg.n_modes == 0:
        return np.full(n_el, cfg.mean)
    centroids = mesh.nodes[mesh.elems].mean(axis=1)
    d2 = ((centroids[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    cov = cfg.std**2 * np.exp(-d2 / (2.0 * cfg.corr_length**2))
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    vals = np.clip(vals, 0.0, None)
    if cfg.n_modes is not None:
        k = min(cfg.n_modes, n_el)
    else:
        k = int(np.searchsorted(np.cumsum(vals), 0.95 * vals.sum()) + 1)
    rho = np.random.default_rng(cfg.seed).standard_normal(k)
    return cfg.mean + vecs[:, :k] @ (np.sqrt(vals[:k]) * rho)


@dataclass
class ElementMicro:
    """Per-element micro data: stiffness and concentration grids plus the
    homogenized tangent used by the macro solve."""

    tangent: np.ndarray
    c_field: Optional[np.ndarray] = None
    a_field: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)


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
    tangent, asym = homogenized_stiffness(c_field, conc, symmetrize=False)
    return ElementMicro(
        tangent=tangent,
        c_field=c_field if keep_fields else None,
        a_field=conc.a if keep_fields else None,
        info={"asymmetry": asym, "loads": conc.metadata["loads"]},
    )


def element_response_from_files(element_dir) -> ElementMicro:
    """Load one element's micro data from a sample directory
    (dataset.read_sample).

    This is the seam where a surrogate's precomputed concentration fields
    substitute for the spectral solves: the tangent is <C A> of the stored
    grid, phase properties and concentration field.
    """
    grid, a, info = read_sample(element_dir)
    props = info["properties"]
    c_field = assign_properties(
        grid,
        IsotropicProps(props["E_f"], props["nu_f"]),
        IsotropicProps(props["E_m"], props["nu_m"]),
    )
    tangent, asym = homogenized_stiffness(c_field, a, symmetrize=False)
    return ElementMicro(tangent, c_field, a, {"asymmetry": asym, "source": "file"})


_MULTISCALE_DEFAULTS = {
    "nx": 8,
    "ny": 15,
    "elem_size": [0.05, 0.05],
    "s_total": 0.0375,
    "load_steps": 5,
    "newton_tol": 1e-7,
    "hourglass_coef": 0.005,
    "integration": "reduced",
    "seed": 0,
    "workers": 1,
    "a_field_dir": None,
    "save_micro": False,
    "micro": {
        "resolution": [64, 64],
        "domain": [50.0, 50.0],
        "r_mean": 3.5,
        "r_std_frac": 0.01,
        "gap_frac": 0.1,
        "vof_range": [0.40, 0.60],
        "n_vof_groups": 20,
        "nu_fiber": 0.2,
        "nu_matrix": 0.35,
        "solver": asdict(SolverConfig()),
    },
    "grf_fiber": {"mean": 74.0, "std": 2.0, "corr_length": 0.1, "seed": 1},
    "grf_matrix": {"mean": 3.35, "std": 0.1, "corr_length": 0.1, "seed": 2},
}


def run_multiscale(raw_config: dict, out_dir) -> dict:
    """Full two-scale run driven by a config dict; writes per-step states and
    a reaction-force summary, returns the summary."""
    cfg = resolve(_MULTISCALE_DEFAULTS, raw_config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")

    mesh = rect_plate_mesh(cfg["nx"], cfg["ny"], *cfg["elem_size"])
    n_el = len(mesh.elems)
    micro = cfg["micro"]
    solver = SolverConfig(**micro["solver"])

    if cfg["a_field_dir"]:
        micro_dir = Path(cfg["a_field_dir"])
        if not micro_dir.is_dir():
            raise DomainError(f"a_field_dir {micro_dir} is not a directory")
        roots = sorted(p for p in micro_dir.iterdir() if p.is_dir())
        if len(roots) != n_el:
            raise DomainError(
                f"a_field_dir holds {len(roots)} element dirs, mesh has {n_el} elements"
            )
        tangents = [element_response_from_files(p).tangent for p in roots]
    else:
        ef_field = kl_field(mesh, GRFConfig(**cfg["grf_fiber"]))
        em_field = kl_field(mesh, GRFConfig(**cfg["grf_matrix"]))
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
            fiber = IsotropicProps(float(ef_field[e]), micro["nu_fiber"])
            matrix = IsotropicProps(float(em_field[e]), micro["nu_matrix"])
            el = element_response(
                rve.grid, fiber, matrix, solver, micro["domain"],
                keep_fields=cfg["save_micro"],
            )
            if cfg["save_micro"]:
                props = {"E_f": fiber.E, "nu_f": fiber.nu, "E_m": matrix.E, "nu_m": matrix.nu}
                write_sample(out / "micro" / f"{e:06d}", rve.grid, el.a_field, {
                    "index": e, "seed": seed, "vof_target": float(vofs[e]),
                    "achieved_vof": rve.achieved_vof, "domain_size": list(micro["domain"]),
                    "properties": props, "loads": el.info["loads"],
                })
            return el.tangent

        if cfg["workers"] > 1:
            with ThreadPoolExecutor(max_workers=cfg["workers"]) as pool:
                tangents = list(pool.map(solve_element, range(n_el)))
        else:
            tangents = [solve_element(e) for e in range(n_el)]

    states = solve_plate(
        mesh,
        np.stack(tangents),
        cfg["load_steps"],
        cfg["s_total"],
        newton_tol=cfg["newton_tol"],
        hourglass_coef=cfg["hourglass_coef"],
        integration=cfg["integration"],
    )

    table = []
    for state in states:
        sdir = out / f"step_{state.step:02d}"
        sdir.mkdir(exist_ok=True)
        write_array(sdir / "displacement.f64.bin", state.displacement)
        write_array(sdir / "strain_m.f64.bin", state.strain_m)
        write_array(sdir / "stress_m.f64.bin", state.stress_m)
        table.append(
            {
                "step": state.step,
                "displacement": state.applied_displacement,
                "reaction": state.reaction,
                "newton_iterations": state.newton_iterations,
                "residual": state.residual_norm,
            }
        )
    summary = {
        "n_elements": n_el,
        "n_nodes": len(mesh.nodes),
        "load_steps": cfg["load_steps"],
        "s_total": cfg["s_total"],
        "reaction_table": table,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return summary
