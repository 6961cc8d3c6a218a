"""Independent reference computations shared by the test modules."""

import numpy as np

from microhom.green import (
    apply_green,
    green_operator,
    lame_fields_from_stiffness,
    make_freq_grid,
    reference_material,
)
from microhom.microstructure import assign_properties
from microhom.voigt import IsotropicProps, stiffness_from_lame


def dense_fixed_point_solution(c_field, macro, scheme, domain):
    """Direct solve of the fixed-point map as one dense linear system.

    Assembles eps = ebar - F^-1 G F (C - C0) eps over all T1*T2*3 unknowns by
    applying the map to every basis vector, then solves with a dense LU.
    Shares the operator definition with the solver but none of its iteration.
    """
    T1, T2 = c_field.shape[:2]
    n = T1 * T2 * 3
    grid = make_freq_grid((T1, T2), domain, scheme)
    lam, mu = lame_fields_from_stiffness(c_field)
    green = green_operator(grid, reference_material(lam, mu))
    dc = c_field - stiffness_from_lame(green.lame0)

    def apply_map(vec):
        e = vec.reshape(T1, T2, 3)
        tau = np.einsum("xyij,xyj->xyi", dc, e)
        upd = apply_green(green.g, np.fft.fft2(tau, axes=(0, 1)))
        return np.fft.ifft2(upd, axes=(0, 1)).reshape(n)

    m = np.empty((n, n))
    basis = np.zeros(n)
    for k in range(n):
        basis[k] = 1.0
        m[:, k] = apply_map(basis).real
        basis[k] = 0.0
    rhs = np.tile(np.asarray(macro, dtype=float), T1 * T2)
    return np.linalg.solve(np.eye(n) + m, rhs).reshape(T1, T2, 3)


def disc_rve(T, radius_px, contrast, center=None):
    """Single circular inclusion of the given pixel radius and E contrast."""
    cx, cy = center or (T // 2, T // 2 - 1)
    yy, xx = np.mgrid[0:T, 0:T]
    grid = ((xx - cx) ** 2 + (yy - cy) ** 2 <= radius_px**2).astype(np.uint8)
    return assign_properties(
        grid, IsotropicProps(contrast, 0.25), IsotropicProps(1.0, 0.35)
    )


def _grad_at(xi, eta):
    """Parent-space shape gradients of the bilinear quad, rows (d/dxi, d/deta)."""
    return 0.25 * np.array(
        [
            [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
            [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
        ]
    )


def _b_matrix(coords, xi=0.0, eta=0.0):
    """Engineering B matrix (rows e11, e22, gamma12), Jacobian determinant
    and physical shape gradients of one element."""
    grad = _grad_at(xi, eta)
    jac = grad @ coords
    det = np.linalg.det(jac)
    assert det > 0
    dndx = np.linalg.solve(jac, grad)  # rows d/dx, d/dy
    b = np.zeros((3, 8))
    b[0, 0::2] = dndx[0]
    b[1, 1::2] = dndx[1]
    b[2, 0::2] = dndx[1]
    b[2, 1::2] = dndx[0]
    return b, det, dndx


def element_stiffness_loop(coords, c_storage, hourglass_coef=0.005, integration="reduced"):
    """8x8 stiffness of one element, written out term by term: one-point
    integration with perturbation hourglass control, or 2x2 Gauss."""
    c_eng = np.array(c_storage, dtype=float)
    c_eng[:, 2] *= 0.5  # engineering shear column
    if integration == "full":
        gp = 1.0 / np.sqrt(3.0)
        k = np.zeros((8, 8))
        for xi in (-gp, gp):
            for eta in (-gp, gp):
                b, det, _ = _b_matrix(coords, xi, eta)
                k += det * b.T @ c_eng @ b
        return 0.5 * (k + k.T)
    b, det, dndx = _b_matrix(coords)
    area = 4.0 * det
    k = area * b.T @ c_eng @ b
    mode = np.array([1.0, -1.0, 1.0, -1.0])
    gamma = mode - (mode @ coords[:, 0]) * dndx[0] - (mode @ coords[:, 1]) * dndx[1]
    k_hg = hourglass_coef * (np.trace(c_eng) / 3.0) * area * float((dndx**2).sum())
    k[0::2, 0::2] += k_hg * np.outer(gamma, gamma)
    k[1::2, 1::2] += k_hg * np.outer(gamma, gamma)
    return 0.5 * (k + k.T)


def _elem_dofs(conn):
    return np.column_stack([2 * conn, 2 * conn + 1]).ravel()


def assemble_stiffness_loop(mesh, tangents, integration="reduced"):
    """Dense global stiffness, one element at a time."""
    k = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for conn, tangent in zip(mesh.elems, tangents):
        dofs = _elem_dofs(conn)
        k[np.ix_(dofs, dofs)] += element_stiffness_loop(
            mesh.nodes[conn], tangent, integration=integration
        )
    return k


def element_strains_loop(mesh, displacement):
    """Tensorial centroid strain of each element, one element at a time."""
    out = np.empty((len(mesh.elems), 3))
    for e, conn in enumerate(mesh.elems):
        eng = _b_matrix(mesh.nodes[conn])[0] @ displacement[_elem_dofs(conn)]
        out[e] = (eng[0], eng[1], 0.5 * eng[2])
    return out
