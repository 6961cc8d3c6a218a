"""Independent reference computations shared by the test modules."""

import numpy as np

from microhom.errors import NonConvergenceError, ZeroMeanStressError
from microhom.green import (
    lame_fields_from_stiffness,
    make_freq_grid,
    reference_material,
)
from microhom.microstructure import _min_image, assign_properties
from microhom.solver import SolveResult
from microhom.voigt import IsotropicProps, stiffness_from_lame


def green_matrices_reference(grid, lame0):
    """The nine-entry Green operator: one symmetric 3x3 Voigt matrix per frequency.

    At nonzero frequency,

        G0 = (1/(4*mu0)) * G1 + ((mu0+lam0)/(mu0*(2*mu0+lam0))) * G2

    with G1 = 4 (u u^T + v v^T) / |x|^2 and G2 = -w w^T / |x|^4 for
    u = (x1, 0, x2), v = (0, x2, x1) and w = (x1^2, x2^2, 2 x1 x2).  Both the
    shear row and the shear column carry the pair factor 2, so the tensor
    contraction with a tensorial-shear vector halves the product's third
    component (_ref_apply_green).  Frequencies with |xi| == 0 get the zero
    matrix.  Returns (T1, T2, 3, 3).
    """
    lam0, mu0 = lame0.lam, lame0.mu
    x1, x2 = grid.xi1, grid.xi2
    nsq = x1 * x1 + x2 * x2
    inv = 1.0 / np.where(nsq == 0.0, 1.0, nsq)
    zero = np.zeros_like(x1)
    uvw = np.array([[x1, zero, x2], [zero, x2, x1], [x1 * x1, x2 * x2, 2.0 * x1 * x2]])
    c1 = 1.0 / (4.0 * mu0)
    c2 = (mu0 + lam0) / (mu0 * (2.0 * mu0 + lam0))
    weights = np.array([4.0 * c1 * inv, 4.0 * c1 * inv, -c2 * inv * inv])
    return np.einsum("kxy,kixy,kjxy->xyij", weights, uvw, uvw)


def dense_fixed_point_solution(c_field, macro, domain):
    """Direct solve of the fixed-point map as one dense linear system.

    Assembles eps = ebar - F^-1 G F (C - C0) eps over all T1*T2*3 unknowns by
    applying the map to every basis vector, then solves with a dense LU.
    Shares the operator definition with the solver but none of its iteration.
    """
    T1, T2 = c_field.shape[:2]
    n = T1 * T2 * 3
    grid = make_freq_grid((T1, T2), domain)
    lame0 = reference_material(*lame_fields_from_stiffness(c_field))
    g = green_matrices_reference(grid, lame0)
    dc = c_field - stiffness_from_lame(lame0)

    def apply_map(vec):
        e = vec.reshape(T1, T2, 3)
        tau = np.einsum("xyij,xyj->xyi", dc, e)
        upd = _ref_apply_green(g, np.fft.fft2(tau, axes=(0, 1)))
        return np.fft.ifft2(upd, axes=(0, 1)).reshape(n)

    m = np.empty((n, n))
    basis = np.zeros(n)
    for k in range(n):
        basis[k] = 1.0
        m[:, k] = apply_map(basis).real
        basis[k] = 0.0
    rhs = np.tile(np.asarray(macro, dtype=float), T1 * T2)
    return np.linalg.solve(np.eye(n) + m, rhs).reshape(T1, T2, 3)


def _ref_metric(stress_hat, freqs):
    s0 = stress_hat[0, 0]
    denom = abs(s0[0]) ** 2 + abs(s0[1]) ** 2 + 2.0 * abs(s0[2]) ** 2
    if denom == 0.0:
        raise ZeroMeanStressError("mean stress is zero; equilibrium index undefined")
    r1 = freqs.xi1 * stress_hat[..., 0] + freqs.xi2 * stress_hat[..., 2]
    r2 = freqs.xi1 * stress_hat[..., 2] + freqs.xi2 * stress_hat[..., 1]
    num = np.sum(r1.real**2 + r1.imag**2 + r2.real**2 + r2.imag**2)
    n_pix = stress_hat.shape[0] * stress_hat.shape[1]
    return float(np.sqrt(num / (n_pix * denom)))


def _ref_apply_green(g, field):
    out = np.einsum("...ij,...j->...i", g, field)
    out[..., 2] *= 0.5
    return out


def _ref_stiffness(c_field, strain):
    return np.einsum("xyij,xyj->xyi", c_field, strain)


def _ref_contract(a, b):
    per_component = np.einsum("xyi,xyi->i", a, b)
    return float(per_component[0] + per_component[1] + 2.0 * per_component[2])


def _ref_energy(z_hat, lame0):
    trace = z_hat[..., 0] + z_hat[..., 1]
    sq = z_hat.real**2 + z_hat.imag**2
    total = lame0.lam * np.sum(trace.real**2 + trace.imag**2) + 2.0 * lame0.mu * (
        np.sum(sq[..., 0]) + np.sum(sq[..., 1]) + 2.0 * np.sum(sq[..., 2])
    )
    return float(total) / (z_hat.shape[0] * z_hat.shape[1])


def cg_solve_reference(c_field, macro_strain, config, grid, green):
    """The conjugate-gradient cell solve written component-last, one einsum
    per tensor product over (T1, T2, 3) fields with fresh temporaries, with
    the nine-entry Green matrices and the energy of the Green product taken
    by its isotropic formula: the same iteration as solver.solve_unit_load
    in its plainest layout."""
    T1, T2 = c_field.shape[:2]
    g = green_matrices_reference(grid, green.lame0)
    macro = np.asarray(macro_strain, dtype=float).reshape(3)
    eps = np.broadcast_to(macro, (T1, T2, 3)).copy()
    sigma = _ref_stiffness(c_field, eps)
    sigma_hat = np.fft.fft2(sigma, axes=(0, 1))

    history = []
    n_updates = 0
    rz = 0.0

    while True:
        if n_updates > 0:
            tol_n = _ref_metric(sigma_hat, grid)
            history.append(tol_n)
            if tol_n <= config.tol:
                break
            if not np.isfinite(tol_n) or n_updates >= config.max_iter:
                raise NonConvergenceError(f"Tol = {tol_n} after {n_updates} iterations", history)

        z_hat = -_ref_apply_green(g, sigma_hat)
        rz_new = _ref_energy(z_hat, green.lame0)
        p_hat = z_hat if rz == 0.0 else z_hat + (rz_new / rz) * p_hat
        rz = rz_new
        p = np.fft.ifft2(p_hat, axes=(0, 1)).real
        curvature = _ref_contract(p, _ref_stiffness(c_field, p))
        if curvature > 0:
            eps += (rz / curvature) * p
        elif np.abs(p).max() > 0:
            raise NonConvergenceError(f"curvature {curvature:.3e} <= 0", history)
        sigma = _ref_stiffness(c_field, eps)
        sigma_hat = np.fft.fft2(sigma, axes=(0, 1))
        n_updates += 1

    return SolveResult(eps, sigma, n_updates, history, True)


def spinodal_labels_reference(params, domain, resolution, seed):
    """Phase labels of the semi-implicit spinodal evolution, with the spectral
    Laplacian's wavenumbers taken from np.fft.fftfreq rather than green.py."""
    T1, T2 = resolution
    rng = np.random.default_rng(seed)
    c = 0.5 + params.initial_noise_amplitude * rng.uniform(-1.0, 1.0, (T1, T2))
    k1 = 2.0 * np.pi * np.fft.fftfreq(T1, d=domain[0] / T1)
    k2 = 2.0 * np.pi * np.fft.fftfreq(T2, d=domain[1] / T2)
    ksq = k1[:, None] ** 2 + k2[None, :] ** 2
    rate = params.dt * params.mobility
    denom = 1.0 + rate * params.interface_width**2 * ksq**2
    c_hat = np.fft.fft2(c)
    for _ in range(params.steps):
        c = np.fft.ifft2(c_hat).real
        c_hat = (c_hat - rate * ksq * np.fft.fft2(2.0 * c * (1.0 - c) * (1.0 - 2.0 * c))) / denom
    c = np.fft.ifft2(c_hat).real
    return np.where(c > params.threshold, 0, 1).astype(np.uint8)


def relax_positions_loop(pos, radii, lengths, gap, rng, max_sweeps=4000):
    """Push overlapping discs apart along their center lines until all pairs
    satisfy dist >= r_i + r_j + gap under the periodic metric.

    Displacements are accumulated per sweep and applied together so the
    result does not depend on pair ordering.  Returns None when stuck.
    """
    n = len(radii)
    if n == 1:
        return pos
    req = radii[:, None] + radii[None, :] + gap
    np.fill_diagonal(req, 0.0)
    # Push toward a padded separation so the strict requirement is met with
    # margin instead of stalling at exact contact.
    padded = req + 1e-3 * radii.mean()
    for _ in range(max_sweeps):
        d = _min_image(pos[:, None, :] - pos[None, :, :], lengths)
        dist = np.sqrt((d * d).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if (req - dist <= 0.0).all():
            return pos
        short = padded - dist
        i_idx, j_idx = np.nonzero(np.triu(short > 0.0, k=1))
        disp = np.zeros_like(pos)
        for i, j in zip(i_idx, j_idx):
            u = d[i, j]
            norm = dist[i, j]
            if norm == 0.0 or not np.isfinite(norm):
                u = rng.standard_normal(2)
                norm = np.linalg.norm(u)
            u = u / norm
            push = 0.55 * short[i, j]
            disp[i] += push * u
            disp[j] -= push * u
        pos = (pos + disp) % lengths
    return None


def disc_rve(T, radius_px, contrast, center=None):
    """Single circular inclusion of the given pixel radius and E contrast on
    a T x T grid, or a T1 x T2 one for T = (T1, T2)."""
    T1, T2 = (T, T) if np.isscalar(T) else T
    cx, cy = center or (T2 // 2, T1 // 2 - 1)
    yy, xx = np.mgrid[0:T1, 0:T2]
    grid = ((xx - cx) ** 2 + (yy - cy) ** 2 <= radius_px**2).astype(np.uint8)
    return assign_properties(
        grid, IsotropicProps(contrast, 0.25), IsotropicProps(1.0, 0.35)
    )


# Parent-space shape gradients of the bilinear quad at its center, rows (d/dxi, d/deta).
_CENTER_GRAD = 0.25 * np.array([[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])


def _b_matrix(coords):
    """Engineering B matrix (rows e11, e22, gamma12), Jacobian determinant
    and physical shape gradients of one element at its center."""
    grad = _CENTER_GRAD
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


def element_stiffness_loop(coords, c_storage, hourglass_coef=0.005):
    """8x8 stiffness of one element, written out term by term: one-point
    integration with perturbation hourglass control."""
    c_eng = np.array(c_storage, dtype=float)
    c_eng[:, 2] *= 0.5  # engineering shear column
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


def assemble_stiffness_loop(mesh, tangents):
    """Dense global stiffness, one element at a time."""
    k = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for conn, tangent in zip(mesh.elems, tangents):
        dofs = _elem_dofs(conn)
        k[np.ix_(dofs, dofs)] += element_stiffness_loop(mesh.nodes[conn], tangent)
    return k


def element_strains_loop(mesh, displacement):
    """Tensorial centroid strain of each element, one element at a time."""
    out = np.empty((len(mesh.elems), 3))
    for e, conn in enumerate(mesh.elems):
        eng = _b_matrix(mesh.nodes[conn])[0] @ displacement[_elem_dofs(conn)]
        out[e] = (eng[0], eng[1], 0.5 * eng[2])
    return out


def solve_plate_dense(mesh, tangents, load_steps, s_total):
    """Displacements (load_steps, 2N) of the plate, one dense direct solve per
    step for that step's own edge displacement s_total * step / load_steps."""
    k = assemble_stiffness_loop(mesh, tangents)
    free = mesh.dof_free
    pres = np.concatenate([mesh.dof_fixed, mesh.dof_loaded])
    k_ff, k_fp = k[np.ix_(free, free)], k[np.ix_(free, pres)]
    u = np.zeros((load_steps, mesh.n_dofs))
    for step, u_s in enumerate(u, start=1):
        u_s[mesh.dof_loaded] = s_total * step / load_steps
        u_s[free] = np.linalg.solve(k_ff, -k_fp @ u_s[pres])
    return u
