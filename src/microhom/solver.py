"""Spectral cell solver: Green-preconditioned conjugate gradients.

Solves the strain field of a heterogeneous periodic cell under a prescribed
mean strain eps = ebar + eps~, where the fluctuation eps~ is a compatible,
zero-mean periodic field.  The equilibrium condition, <C:eps, d> = 0 for
every compatible zero-mean d, is a symmetric positive definite system for
eps~; it is solved by conjugate gradients, preconditioned by the
reference-medium Green operator Gamma0 (Zeman et al., J. Comput. Phys. 229,
2010; Brisard & Dormieux, Comput. Mater. Sci. 49, 2010).  Its solution is
the fixed point of the basic Moulinec-Suquet scheme
eps = ebar - Gamma0 (C - C0) eps, reached in far fewer iterations.

One iteration, from the stress sigma = C:eps (green.py for D and N):

    W = FFT(rho1 + i rho2),  rho = D . sigma    |W| = |xi . sigma_hat| gives Tol
    z = -sym(D^T (x) IFFT(N W))                 = -IFFT(Gamma0 sigma_hat)
    p = z + beta p,  beta = <z, C0:z> / <z_old, C0:z_old>
    eps += alpha p,  alpha = <z, C0:z> / <p, C:p>

so a load's iteration sends two complex planes through np.fft.fft2 (the
inverse as conj(FFT(conj(x))), its 1/(T1*T2) folded into the operator),
where transforming stress and strain took five.  Inner products are the
tensor contraction a:b (weights 1, 1, 2 on tensorial-shear vectors), and
<z, C0:z> = Re sum conj(N W) . W / (T1*T2) sums nonnegative terms.  The
stress is recomputed from the strain every iteration, so rounding does not
accumulate in it; p has zero mean, so the mean strain stays ebar.

Lockstep: solve_unit_load also takes a stack of L mean strains and iterates
them side by side, each numpy call covering every load still active.  Each
load keeps its own alpha, beta, Tol history and stopping point, and leaves
the stack when it converges.  Its iterates, history and iteration count are
bitwise those of its own solve: FFTs and elementwise products do the same
arithmetic on a plane whatever the number of planes, and each sum runs per
plane or per load.  This is not block CG; there is no shared Krylov space.
On a small cell an iteration is mostly per-call overhead, during which a
thread holds the GIL, and a stack of three pays it once.

Memory layout: strain, direction and stress are (L, 3, T1, T2), so C:eps
runs over contiguous planes (a stiffness field from assign_properties is
read without a copy).  The packed planes carry a pad row and column (see
green.wrap); the FFTs run in place on the unpadded view.  Per load a solve
holds the strain, p, a real scratch (C:p, alpha p, then C:eps, the returned
stress, and a stencil temporary), the packed plane and a complex scratch:
about 14 real planes.  Public (T1, T2, 3) shapes are transposed views.
The continuous frequencies of the original Moulinec-Suquet scheme are not
offered: on even grids they stall at a floor set by the unpaired Nyquist
lines (a 16^2 disc cell of contrast 10 near Tol 2e-4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Checked
from .errors import DomainError, NonConvergenceError, ZeroMeanStressError
from .green import (
    ROTATED,
    FreqGrid,
    GreenField,
    apply_green,
    pairs,
    wrap,
)


@dataclass(frozen=True)
class SolverConfig(Checked):
    """Settings of the conjugate-gradient cell solve.

    tol is the target of the equilibrium index Tol (convergence_metric);
    max_iter caps the iterations (one Green application each); scheme names
    the frequency grid of the Green operator and must be "rotated", the only
    one.
    """

    tol: float = 1e-6
    max_iter: int = 5000
    scheme: str = ROTATED
    RANGES = {"tol": "positive", "max_iter": ">= 1"}

    def __post_init__(self):
        super().__post_init__()
        if self.scheme != ROTATED:
            raise DomainError(f"unknown scheme {self.scheme!r}, expected {ROTATED!r}")


@dataclass
class SolveResult:
    """Converged micro fields plus the iteration record.

    For a stack of L mean strains, strain and stress gain a leading load
    axis, residual_history and mean_strain_history hold one entry per load,
    and iterations counts lockstep iterations (see solve_unit_load).
    """

    strain: np.ndarray  # (T1, T2, 3)
    stress: np.ndarray  # (T1, T2, 3)
    iterations: int
    residual_history: list
    converged: bool
    mean_strain_history: Optional[np.ndarray] = None  # (iterations, 3) if recorded


def convergence_metric(stress_hat: np.ndarray, freqs: FreqGrid) -> float:
    """Equilibrium error index of a Fourier-space stress field.

    Tol = sqrt( sum_xi |xi . sigma_hat(xi)|^2 / (T1*T2 * sigma_hat(0):sigma_hat(0)) )

    with the balance residual xi . sigma_hat = (xi1 s11 + xi2 s12, xi1 s12 +
    xi2 s22) on the grid's rotated-grid frequencies; stress_hat is (T1, T2,
    3), in any memory order.  The solver takes the same sum from its packed
    residual (green.py), so the two agree to round-off.
    """
    s = np.asarray(stress_hat)
    s0 = np.abs(s[0, 0]) ** 2
    mean_sq = s0[0] + s0[1] + 2.0 * s0[2]
    if mean_sq == 0.0:
        raise ZeroMeanStressError("mean stress is zero; equilibrium index undefined")
    r1 = freqs.xi1 * s[..., 0] + freqs.xi2 * s[..., 2]
    r2 = freqs.xi1 * s[..., 2] + freqs.xi2 * s[..., 1]
    sq = np.sum(r1.real**2 + r1.imag**2 + r2.real**2 + r2.imag**2)
    return float(np.sqrt(sq / (r1.size * mean_sq)))


def _packed_residual(sigma: np.ndarray, packed: np.ndarray, scratch: np.ndarray, ratio: float):
    """W = FFT(2 h1 (rho1 + i rho2)), rho = D . sigma, per stress field, into
    packed[:, :T1, :T2]; returns sum |W|^2 (that of the two residual spectra:
    their cross term is imaginary) and sigma_hat(0):sigma_hat(0).  With P =
    (s11, s12), Q = (s12, s22) and the backward shifts S1, S2, 2 h1 rho =
    (I - S1 S2)(P + ratio Q) + (S2 - S1)(P - ratio Q), ratio = h1 / h2.
    """
    n, _, T1, T2 = sigma.shape
    row, k = T2 + 1, T1 * (T2 + 1) - 1
    pair = scratch.view(float).reshape(n, 2, T1 + 1, row, copy=False)
    flat = pair.reshape(n, 2, -1)
    rho = pairs(packed.reshape(n, -1)[:, :k]).transpose(0, 2, 1)
    p, q = sigma[:, ::2], sigma[:, :0:-1]
    for sign in (1.0, -1.0):
        if ratio == 1.0:
            (np.add if sign > 0 else np.subtract)(p, q, out=pair[..., 1:, 1:])
        else:
            pair[..., 1:, 1:] = p + sign * ratio * q
        wrap(pair, lead=True)
        if sign > 0:
            np.subtract(flat[..., row + 1 : row + 1 + k], flat[..., :k], out=rho)
        else:
            rho += flat[..., row : row + k]
            rho -= flat[..., 1 : 1 + k]
    w = packed[:, :-1, :-1]
    np.fft.fft2(w, out=w)
    sq = np.einsum("lxyc,lxyc->l", pairs(w), pairs(w))  # row by row, see apply_green
    mean = np.einsum("lcxy->lc", sigma)
    return sq, mean[:, 0] ** 2 + mean[:, 1] ** 2 + 2.0 * mean[:, 2] ** 2


def _apply_stiffness(c: np.ndarray, strain: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma(x) = C(x) : eps(x) per field: c (3, 3, T1, T2), strain and out (L, 3, T1, T2)."""
    return np.einsum("ijxy,ljxy->lixy", c, strain, out=out)


def _update_direction(p, beta, packed, scratch, spare, ratio: float):
    """p = z + beta p in place, z = -sym(D^T (x) eta), from packed as
    apply_green leaves it: its FFT is eta' = (eta1 - i eta2) / (2 h1).  With
    the forward shifts S1^T, S2^T, E = I - S1^T S2^T and F = S2^T - S1^T,
    2 h1 D1^T = E + F and 2 h1 D2^T = ratio (E - F).  E eta' goes to scratch,
    F eta' to the first T1 (T2 + 1) complex entries of each row of spare.
    """
    n, _, T1, T2 = p.shape
    row, k = T2 + 1, T1 * (T2 + 1) - 1
    w = packed[:, :-1, :-1]
    np.fft.fft2(w, out=w)
    wrap(packed, lead=False)
    flat = packed.reshape(n, -1)
    rows = spare[:, : 2 * T1 * row].view(complex)
    e, f, s = scratch.reshape(n, -1)[:, :k], rows[:, :k], flat[:, :k]
    np.subtract(s, flat[:, row + 1 : row + 1 + k], out=e)
    np.subtract(flat[:, 1 : 1 + k], flat[:, row : row + k], out=f)
    np.add(e, f, out=s)  # 2 h1 D1^T eta'
    np.subtract(e, f, out=f)
    if ratio != 1.0:
        f *= ratio  # 2 h1 D2^T eta'
    s.imag -= f.real
    s.imag *= 0.5
    p *= beta[:, None, None, None]
    p[:, 0] -= w.real  # z11 = -D1^T eta1
    p[:, 1] += rows.reshape(n, T1, row)[:, :, :-1].imag  # z22 = -D2^T eta2
    p[:, 2] += w.imag  # z12 = -(D1^T eta2 + D2^T eta1) / 2


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pixel sum of the tensor contraction a:b per field of two real (L, 3, T1, T2) stacks."""
    per_component = np.einsum("lixy,lixy->li", a, b)
    return per_component[:, 0] + per_component[:, 1] + 2.0 * per_component[:, 2]


def _swap(i: int, j: int, order: list, arrays) -> None:
    """Exchange slots i and j of order and of every array."""
    if i != j:
        order[i], order[j] = order[j], order[i]
        for a in arrays:
            a[[i, j]] = a[[j, i]]


def _lower(failure, load: int, error: Exception):
    """The failure, (load, error), of the lower-index load."""
    return (load, error) if failure is None or load < failure[0] else failure


def _result(stacked, strain, stress, iterations, histories, means) -> SolveResult:
    if stacked:
        means = None if means is None else [np.array(h) for h in means]
        return SolveResult(strain, stress, iterations, histories, True, means)
    means = None if means is None else np.array(means[0])
    return SolveResult(strain[0], stress[0], iterations, histories[0], True, means)


def solve_unit_load(
    c_field: np.ndarray,
    macro_strain,
    config: SolverConfig,
    green: GreenField,
    record_history: bool = False,
) -> SolveResult:
    """Solve the periodic cell under a prescribed mean strain, or a stack of them.

    Args:
        c_field: (T1, T2, 3, 3) per-pixel stiffness, symmetric positive
            definite at every pixel.
        macro_strain: length-3 tensorial mean strain, or an (L, 3) stack of
            them solved in lockstep (see the module docstring).  A stack
            returns (L, T1, T2, 3) strain and stress, one residual history
            (and mean-strain history) per load, whose length is that load's
            iteration count, and as iterations the number of lockstep
            iterations, i.e. of Green applications.
        config: iteration settings.
        green: the cell's Green operator (homogenization.cell_operator),
            which carries its pixel sizes; it must match the field's
            (T1, T2), else DomainError.
        record_history: keep the mean strain of every iterate in
            mean_strain_history.

    Raises:
        NonConvergenceError: the cap was reached, Tol is not finite, or the
            curvature <p, C:p> of a nonzero search direction is not positive
            (the stiffness field is not positive definite); carries the
            residual history.  A stack raises the error of its lowest-index
            failed load, prefixed "load j: ", as a serial loop over the loads
            would: a failed load ends the loads above it, and the loads below
            it run on to their own end.
    """
    c_field = np.asarray(c_field, dtype=float)
    if c_field.ndim != 4 or c_field.shape[2:] != (3, 3):
        raise DomainError(f"stiffness field must be (T1, T2, 3, 3), got {c_field.shape}")
    T1, T2 = c_field.shape[:2]
    macro = np.asarray(macro_strain, dtype=float)
    stacked = macro.ndim == 2
    if macro.ndim > 2 or stacked and macro.shape[1] != 3:
        raise DomainError(f"macro strain must be (3,) or (L, 3), got {macro.shape}")
    loads = macro if stacked else macro.reshape(1, 3)
    n_loads = len(loads)
    # Slot k of every buffer holds load order[k], and slots [0, m) are the
    # loads still iterating, in ascending load order, so a failure skips
    # every slot after it.  A zero load has the zero solution and an
    # undefined equilibrium index, so it never enters.
    order = [j for j in range(n_loads) if loads[j].any()]
    m = len(order)
    order += [j for j in range(n_loads) if not loads[j].any()]
    histories = [[] for _ in range(n_loads)]
    if m == 0:
        zeros = np.zeros((n_loads, T1, T2, 3))
        return _result(stacked, zeros, zeros.copy(), 0, histories, None)
    means = [[] for _ in range(n_loads)] if record_history else None
    prefix = "load {}: " if stacked else ""

    if green.shape != (T1, T2):
        raise DomainError(f"Green operator {green.shape} does not match the {(T1, T2)} field")

    c = np.ascontiguousarray(c_field.transpose(2, 3, 0, 1))
    ratio, scale = green.h[0] / green.h[1], (2.0 * green.h[0]) ** 2 * T1 * T2
    eps = np.empty((n_loads, 3, T1, T2))
    eps[...] = loads[order][:, :, None, None]
    p = np.zeros_like(eps)
    # C:p, then alpha p, then C:eps (the stress); also _update_direction's F
    spare = np.zeros((n_loads, max(3 * T1 * T2, 2 * T1 * (T2 + 1))))
    work = spare[:, : 3 * T1 * T2].reshape(n_loads, 3, T1, T2, copy=False)
    packed = np.zeros((n_loads, T1 + 1, T2 + 1), complex)  # W, then the Green product
    scratch = np.zeros_like(packed)
    rz = np.zeros(n_loads)  # <z, C0:z> of the previous iteration; 0 restarts p from z
    _apply_stiffness(c, eps[:m], work[:m])
    sq, mean_sq = _packed_residual(work[:m], packed[:m], scratch[:m], ratio)

    failure = None  # (load, error) of the lowest-index load that failed
    n_updates = 0
    while True:
        if n_updates > 0:
            defined = mean_sq != 0.0
            tols = np.sqrt(sq / (scale * np.where(defined, mean_sq, np.nan)))
            keep = []
            for k in range(m):
                j = order[k]
                if failure is not None and j >= failure[0]:
                    continue
                if not defined[k]:
                    error = ZeroMeanStressError(
                        prefix.format(j) + "mean stress is zero; equilibrium index undefined"
                    )
                else:
                    tol_n = float(tols[k])
                    histories[j].append(tol_n)
                    if tol_n <= config.tol:
                        continue
                    if not np.isfinite(tol_n):
                        message = (
                            f"Tol = {tol_n} after {n_updates} iterations: "
                            "the iterate is not finite"
                        )
                    elif n_updates >= config.max_iter:
                        message = (
                            f"no convergence after {config.max_iter} iterations "
                            f"(Tol = {tol_n:.3e}, target {config.tol:.1e})"
                        )
                    else:
                        keep.append(k)
                        continue
                    error = NonConvergenceError(prefix.format(j) + message, histories[j])
                failure = _lower(failure, j, error)
            for new, k in enumerate(keep):
                _swap(new, k, order, (eps, p, work, packed, rz))
            m = len(keep)
            if m == 0:
                break

        rz_new = apply_green(green, packed[:m], scratch[:m])
        beta = np.divide(rz_new, rz[:m], out=np.zeros(m), where=rz[:m] != 0.0)
        rz[:m] = rz_new
        _update_direction(p[:m], beta, packed[:m], scratch[:m], spare[:m], ratio)
        curvature = _contract(p[:m], _apply_stiffness(c, p[:m], work[:m]))
        positive = curvature > 0
        for k in np.flatnonzero(~positive):
            if np.abs(p[k]).max() > 0:
                j = order[k]
                message = (
                    f"curvature <p, C:p> = {curvature[k]:.3e} <= 0 at iteration {n_updates + 1}: "
                    "the stiffness field is not positive definite"
                )
                error = NonConvergenceError(prefix.format(j) + message, histories[j])
                failure = _lower(failure, j, error)
        alpha = np.divide(rz[:m], curvature, out=np.zeros(m), where=positive)
        eps[:m] += np.multiply(p[:m], alpha[:, None, None, None], out=work[:m])
        _apply_stiffness(c, eps[:m], work[:m])
        sq, mean_sq = _packed_residual(work[:m], packed[:m], scratch[:m], ratio)
        n_updates += 1
        if means is not None:
            for k in range(m):
                means[order[k]].append(eps[k].mean(axis=(1, 2)))

    if failure is not None:
        raise failure[1]
    for k in range(n_loads):  # back to load order
        while order[k] != k:
            _swap(k, order[k], order, (eps, work))
    return _result(
        stacked, eps.transpose(0, 2, 3, 1), work.transpose(0, 2, 3, 1), n_updates, histories, means
    )
