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

One iteration, from the stress spectrum sigma_hat = FFT(C:eps):

    r = xi . sigma_hat               balance residual; Tol is its norm
    z = -IFFT(Gamma0 sigma_hat)      preconditioned residual (zero mean),
                                     with Gamma0 sigma_hat = sym(xi (x) N r)
    p = z + beta p,  beta = <z, C0:z> / <z_old, C0:z_old>
    eps += alpha p,  alpha = <z, C0:z> / <p, C:p>
    sigma = C:eps,   sigma_hat = FFT(sigma)

so it costs one Green application, one inverse and one forward FFT and one
equilibrium index.  Inner products are the tensor contraction a:b, i.e.
weights (1, 1, 2) on tensorial-shear vectors.  The Green operator starts
from the residual r that Tol needs anyway (green.py), and <z, C0:z> is
sum Re(conj(N r) . r) / (T1*T2), a sum over the spectrum of nonnegative
terms; the stress is recomputed from the strain every iteration rather than
updated, so rounding does not accumulate in it.  Because p has zero mean,
the mean strain equals ebar at every iteration.  The inverse FFT transforms
the three components of the real field z as two complex planes,
[W0 + i W1, W2] for W = Gamma0 sigma_hat, which apply_green writes in
place of r: the real and imaginary parts of the first plane's inverse are
-z0 and -z1.  It runs in place, as conj(FFT(conj(x) / (T1*T2))): bitwise
numpy's ifft2 on power-of-two grids, equal to round-off elsewhere.

Lockstep: solve_unit_load also takes a stack of L mean strains and iterates
them side by side, so each numpy call of an iteration covers every load
still active.  Each load keeps its own alpha, beta, Tol history and
stopping point, and leaves the stack when it converges.  Loads share the
calls and nothing else, so each load's iterates, history and iteration
count are bitwise those of its own solve: the FFTs, the elementwise
products and the per-plane einsum sums do the same arithmetic on a plane
whatever the number of planes in the call.  This is not block CG; there is
no shared Krylov space.  On a small cell most of an iteration is per-call
overhead, during which a thread holds the GIL, and a stack of three pays it
once.

The FFT pair is numpy's unnormalized forward / 1/(T1*T2)-normalized inverse;
the convergence metric depends on that normalization, so it is fixed here.

Memory layout: fields are held component-major and load-major,
(L, 3, T1, T2), so the FFTs, C:eps and the Green product each run over
contiguous planes.  A stiffness field from assign_properties already has
that layout, so the solve reads it without a copy.  Per load, a solve holds
the strain, the search direction p, one real scratch (C:p, alpha p, then
C:eps, which ends as the returned stress), the stress spectrum (whose
planes then take xi2-scaled stresses and d = N r) and the residual, which
becomes the packed Green product and then its inverse FFT: 21 real planes
with the Green product's temporary.  Both FFTs run in place as numpy's
fft2 (numpy >= 2.0), bitwise equal to the out-of-place call.  numpy's
ifft2 ignores out= (it passes out=None on), and its output and
intermediate would add 8 planes; ifftn(x, axes=(-2, -1), out=...) writes
in place, but perfbench traces fft2 and ifft2 only and would lose the
inverse from its FFT counts.  Sums reduce per plane with einsum, not BLAS,
whose split of a sum follows the thread count.  Public (T1, T2, 3) shapes
are transposed views.

The Green operator and Tol use rotated-grid frequencies, which balance every
mode of an even or odd grid, so any tolerance is reachable.  The continuous
frequencies of the original Moulinec-Suquet scheme are not offered: on even
grids they stall at a floor set by the unpaired Nyquist lines, whose
one-sided frequencies no real stress field can balance (a 16^2 disc cell of
contrast 10 stalls near Tol 2e-4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NonConvergenceError, ZeroMeanStressError
from .green import (
    ROTATED,
    FreqGrid,
    GreenField,
    apply_green,
    green_operator,
    lame_fields_from_stiffness,
    make_freq_grid,
    reference_material,
)


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the conjugate-gradient cell solve.

    tol is the target of the equilibrium index Tol (convergence_metric);
    max_iter caps the iterations (one Green application each); scheme names
    the frequency grid of the Green operator and must be "rotated", the only
    one; record_history keeps the mean strain of every iterate.
    """

    tol: float = 1e-6
    max_iter: int = 5000
    scheme: str = ROTATED
    record_history: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
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
    metadata: dict = field(default_factory=dict)


def convergence_metric(stress_hat: np.ndarray, freqs: FreqGrid) -> float:
    """Equilibrium error index of a Fourier-space stress field.

    Tol = sqrt( sum_xi |xi . sigma_hat(xi)|^2 / (T1*T2 * sigma_hat(0):sigma_hat(0)) )

    where xi . sigma_hat is the two-component balance residual
    (xi1*s11 + xi2*s12, xi1*s12 + xi2*s22) and the denominator contracts the
    zero-frequency stress with itself.  The grid's rotated-grid frequencies
    measure balance in their own finite-difference sense.  stress_hat is
    (T1, T2, 3), in any memory order.  The solver computes its Tol with the
    same helpers, so this recomputes it with the solver's arithmetic.
    """
    s = np.asarray(stress_hat).transpose(2, 0, 1)[None]
    mean_sq = _mean_stress_sq(s)
    if mean_sq[0] == 0.0:
        raise ZeroMeanStressError("mean stress is zero; equilibrium index undefined")
    residual = np.empty((1, 2) + s.shape[2:], complex)
    _balance_residual(freqs.xi1, freqs.xi2, s, residual, np.empty_like(residual))
    return float(_equilibrium_index(residual, mean_sq)[0])


def _mean_stress_sq(s_hat: np.ndarray) -> np.ndarray:
    """sigma_hat(0):sigma_hat(0) per spectrum of an (L, 3, T1, T2) stack."""
    sq = np.abs(s_hat[:, :, 0, 0]) ** 2
    return sq[:, 0] + sq[:, 1] + 2.0 * sq[:, 2]


def _balance_residual(xi1, xi2, s_hat: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """out = xi . s_hat = [xi1 s11 + xi2 s12, xi1 s12 + xi2 s22] for an
    (L, 3, T1, T2) stack of stress spectra.  scratch, (L, 2, T1, T2),
    receives xi2 [s22, s12]; it may be s_hat[:, 1:] itself."""
    np.multiply(xi1, s_hat[:, ::2], out=out)
    out += np.multiply(xi2, s_hat[:, 1:], out=scratch)[:, ::-1]
    return out


def _equilibrium_index(residual: np.ndarray, mean_sq: np.ndarray) -> np.ndarray:
    """Tol per field of an (L, 2, T1, T2) residual stack, given each mean_sq."""
    v = residual.view(float)
    sq = np.einsum("lcxy,lcxy->lc", v, v)
    n_pix = residual.shape[2] * residual.shape[3]
    return np.sqrt((sq[:, 0] + sq[:, 1]) / (n_pix * mean_sq))


def _apply_stiffness(c: np.ndarray, strain: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma(x) = C(x) : eps(x) per field: c (3, 3, T1, T2), strain and out (L, 3, T1, T2)."""
    return np.einsum("ijxy,ljxy->lixy", c, strain, out=out)


def _stress_spectrum(c: np.ndarray, eps: np.ndarray, sigma: np.ndarray, sigma_hat: np.ndarray):
    """sigma = C:eps and, in place in the complex buffer sigma_hat, its FFT."""
    sigma_hat[...] = _apply_stiffness(c, eps, sigma)
    np.fft.fft2(sigma_hat, out=sigma_hat)


def _update_direction(p: np.ndarray, beta: np.ndarray, packed: np.ndarray):
    """p = z + beta p in place, per field, for z = -IFFT(Gamma0 sigma_hat)
    given packed as apply_green writes it, which ends as conj(IFFT(packed))."""
    np.conjugate(packed, out=packed)
    packed *= 1.0 / (packed.shape[2] * packed.shape[3])
    np.fft.fft2(packed, out=packed)
    p *= beta[:, None, None, None]
    p[:, 0] -= packed[:, 0].real
    p[:, 1] += packed[:, 0].imag
    p[:, 2] -= packed[:, 1].real


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


def _result(stacked, strain, stress, iterations, histories, means, metadata) -> SolveResult:
    if stacked:
        means = None if means is None else [np.array(h) for h in means]
        return SolveResult(strain, stress, iterations, histories, True, means, metadata)
    means = None if means is None else np.array(means[0])
    return SolveResult(strain[0], stress[0], iterations, histories[0], True, means, metadata)


def solve_unit_load(
    c_field: np.ndarray,
    macro_strain,
    config: SolverConfig,
    domain=None,
    grid: Optional[FreqGrid] = None,
    green: Optional[GreenField] = None,
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
        domain: physical cell size (L1, L2); defaults to unit pixels.
        grid, green: optional precomputed frequency grid and Green operator
            (they are reused across the three unit loads of a concentration
            solve); must match the field's (T1, T2), else DomainError, and
            the reference medium.

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
        return _result(stacked, zeros, zeros.copy(), 0, histories, None, {})
    means = [[] for _ in range(n_loads)] if config.record_history else None
    prefix = "load {}: " if stacked else ""

    if domain is None:
        domain = (float(T1), float(T2))
    if grid is None:
        grid = make_freq_grid((T1, T2), domain)
    if green is None:
        lam, mu = lame_fields_from_stiffness(c_field)
        green = green_operator(grid, reference_material(lam, mu))
    if grid.shape != (T1, T2) or green.shape != (T1, T2):
        raise DomainError(
            f"grid {grid.shape} or Green operator {green.shape} "
            f"does not match the {(T1, T2)} field"
        )

    c = np.ascontiguousarray(c_field.transpose(2, 3, 0, 1))
    eps = np.empty((n_loads, 3, T1, T2))
    eps[...] = loads[order][:, :, None, None]
    p = np.zeros_like(eps)
    work = np.zeros_like(eps)  # C:p, then alpha p, then C:eps (the stress)
    sigma_hat = np.empty(eps.shape, complex)  # then xi2 [s22, s12], and d = N r
    residual = np.empty((n_loads, 2, T1, T2), complex)
    rz = np.zeros(n_loads)  # <z, C0:z> of the previous iteration; 0 restarts p from z
    _stress_spectrum(c, eps[:m], work[:m], sigma_hat[:m])

    failure = None  # (load, error) of the lowest-index load that failed
    n_updates = 0
    while True:
        s_hat, r = sigma_hat[:m], residual[:m]
        mean_sq = _mean_stress_sq(s_hat)
        _balance_residual(green.xi[0], green.xi[1], s_hat, r, s_hat[:, 1:])
        if n_updates > 0:
            defined = mean_sq != 0.0
            tols = _equilibrium_index(r, np.where(defined, mean_sq, np.nan))
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
                _swap(new, k, order, (eps, p, work, residual, rz))
            m = len(keep)
            if m == 0:
                break
            s_hat, r = sigma_hat[:m], residual[:m]

        rz_new = apply_green(green, r, d=s_hat[:, :2]) / (T1 * T2)
        beta = np.divide(rz_new, rz[:m], out=np.zeros(m), where=rz[:m] != 0.0)
        rz[:m] = rz_new
        _update_direction(p[:m], beta, r)
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
        _stress_spectrum(c, eps[:m], work[:m], sigma_hat[:m])
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
        stacked,
        eps.transpose(0, 2, 3, 1),
        work.transpose(0, 2, 3, 1),
        n_updates,
        histories,
        means,
        {"lame0": (green.lame0.lam, green.lame0.mu)},
    )
