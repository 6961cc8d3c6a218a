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

    z = -IFFT(Gamma0 sigma_hat)      preconditioned residual (zero mean)
    p = z + beta p,  beta = <z, C0:z> / <z_old, C0:z_old>
    eps += alpha p,  alpha = <z, C0:z> / <p, C:p>
    sigma = C:eps,   sigma_hat = FFT(sigma)

so it costs one Green application, one inverse and one forward FFT and one
convergence metric.  Inner products are the tensor contraction a:b, i.e.
weights (1, 1, 2) on tensorial-shear vectors.  <z, C0:z> is taken on the
spectrum, where it is a sum of squares; the stress is recomputed from the
strain every iteration rather than updated, so rounding does not accumulate
in it.  Because p has zero mean, the mean strain equals ebar at every
iteration.  The inverse FFT transforms the three components of the real
field z as two complex planes, [W0 + i W1, W2] for W = Gamma0 sigma_hat:
the real and imaginary parts of the first plane's inverse are z0 and z1.

The FFT pair is numpy's unnormalized forward / 1/(T1*T2)-normalized inverse;
the convergence metric depends on that normalization, so it is fixed here.

Memory layout: cell fields are held component-major, (3, T1, T2) and
(3, 3, T1, T2), so the FFTs, C:eps and the Green product each run over
contiguous planes.  A stiffness field from assign_properties already has
that layout, so the solve reads it without a copy.  Besides the strain and
the search direction p, one solve holds one real scratch (C:p, alpha p,
then C:eps, which ends as the returned stress), the stress spectrum (whose
first two planes carry the packed inverse-FFT input) and the Green product
(scratch for Tol): 29 real planes at its peak, 33 with an unpacked
three-plane inverse and 51 before the direction moved to real space.  The
forward FFT runs in place on the spectrum buffer (numpy >= 2.0), bitwise
equal to the out-of-place call.  The inverse returns a new array: numpy's
ifft2 and irfft2 ignore out= (they pass out=None on to the transform and
leave the buffer untouched), while ifftn(x, axes=(-2, -1), out=...) does
write into it.  Sums reduce per plane with
einsum, not BLAS, whose split of a sum follows the thread count.  Public
(T1, T2, 3) shapes are transposed views.

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
from .voigt import Lame


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
    """Converged micro fields plus the iteration record."""

    strain: np.ndarray  # (T1, T2, 3)
    stress: np.ndarray  # (T1, T2, 3)
    iterations: int
    residual_history: list
    converged: bool
    mean_strain_history: Optional[np.ndarray] = None  # (iterations, 3) if recorded
    metadata: dict = field(default_factory=dict)


def convergence_metric(
    stress_hat: np.ndarray, freqs: FreqGrid, work: Optional[np.ndarray] = None
) -> float:
    """Equilibrium error index of a Fourier-space stress field.

    Tol = sqrt( sum_xi |xi . sigma_hat(xi)|^2 / (T1*T2 * sigma_hat(0):sigma_hat(0)) )

    where xi . sigma_hat is the two-component balance residual
    (xi1*s11 + xi2*s12, xi1*s12 + xi2*s22) and the denominator contracts the
    zero-frequency stress with itself.  The grid's rotated-grid frequencies
    measure balance in their own finite-difference sense.  stress_hat is
    (T1, T2, 3), in any memory order.  work, if given, is a complex
    (3, T1, T2) scratch that receives the residual planes instead of
    temporaries.
    """
    s = stress_hat.transpose(2, 0, 1)
    s0 = stress_hat[0, 0]
    denom = abs(s0[0]) ** 2 + abs(s0[1]) ** 2 + 2.0 * abs(s0[2]) ** 2
    if denom == 0.0:
        raise ZeroMeanStressError("mean stress is zero; equilibrium index undefined")
    if work is None:
        work = np.empty(s.shape, complex)
    r1, r2, term = work
    np.multiply(freqs.xi1, s[0], out=r1)
    r1 += np.multiply(freqs.xi2, s[2], out=term)
    np.multiply(freqs.xi1, s[2], out=r2)
    r2 += np.multiply(freqs.xi2, s[1], out=term)
    num = _sum_sq(r1) + _sum_sq(r2)
    return float(np.sqrt(num / (s.shape[1] * s.shape[2] * denom)))


def _sum_sq(a: np.ndarray):
    """Sum of |a|^2 over the last two axes of a real or complex array."""
    v = np.ascontiguousarray(a).view(float)
    return np.einsum("...xy,...xy->...", v, v)


def _apply_stiffness(c: np.ndarray, strain: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigma(x) = C(x) : eps(x), component-major: c (3, 3, T1, T2), strain and out (3, T1, T2)."""
    return np.einsum("ijxy,jxy->ixy", c, strain, out=out)


def _stress_spectrum(c: np.ndarray, eps: np.ndarray, sigma: np.ndarray, sigma_hat: np.ndarray):
    """sigma = C:eps and, in place in the complex buffer sigma_hat, its FFT."""
    sigma_hat[...] = _apply_stiffness(c, eps, sigma)
    np.fft.fft2(sigma_hat, out=sigma_hat)


def _update_direction(p: np.ndarray, beta: float, gs_hat: np.ndarray, packed: np.ndarray):
    """p = z + beta p in place, for z = -IFFT(gs_hat) with gs_hat = Gamma0 sigma_hat.

    z is real, so its three planes are transformed as two: packed, a complex
    (2, T1, T2) scratch, takes [W0 + i W1, W2] for W = gs_hat, and the real
    and imaginary parts of the first plane's inverse are then -z0 and -z1.
    """
    np.subtract(gs_hat[0].real, gs_hat[1].imag, out=packed[0].real)
    np.add(gs_hat[0].imag, gs_hat[1].real, out=packed[0].imag)
    packed[1] = gs_hat[2]
    gs = np.fft.ifft2(packed)
    p *= beta
    p[0] -= gs[0].real
    p[1] -= gs[0].imag
    p[2] -= gs[1].real


def _contract(a: np.ndarray, b: np.ndarray) -> float:
    """sum over pixels of the tensor contraction a:b of two real component-major fields."""
    per_component = np.einsum("ixy,ixy->i", a, b)
    return float(per_component[0] + per_component[1] + 2.0 * per_component[2])


def _reference_energy(z_hat: np.ndarray, lame0: Lame, work: np.ndarray) -> float:
    """sum over pixels of z:C0:z for a real field given by its (3, T1, T2) spectrum.

    With C0 isotropic, z:C0:z = lam0 (z11 + z22)^2 + 2 mu0 z:z; by Parseval
    the pixel sum is the frequency sum over T1*T2.  work is a complex
    (T1, T2) scratch plane for the trace.
    """
    sq = _sum_sq(z_hat)
    trace = np.add(z_hat[0], z_hat[1], out=work)
    total = lame0.lam * _sum_sq(trace) + 2.0 * lame0.mu * (
        sq[0] + sq[1] + 2.0 * sq[2]
    )
    return float(total) / (z_hat.shape[1] * z_hat.shape[2])


def solve_unit_load(
    c_field: np.ndarray,
    macro_strain,
    config: SolverConfig,
    domain=None,
    grid: Optional[FreqGrid] = None,
    green: Optional[GreenField] = None,
) -> SolveResult:
    """Solve the periodic cell under a prescribed mean strain.

    Args:
        c_field: (T1, T2, 3, 3) per-pixel stiffness, symmetric positive
            definite at every pixel.
        macro_strain: length-3 tensorial mean strain.
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
            residual history.
    """
    c_field = np.asarray(c_field, dtype=float)
    if c_field.ndim != 4 or c_field.shape[2:] != (3, 3):
        raise DomainError(f"stiffness field must be (T1, T2, 3, 3), got {c_field.shape}")
    T1, T2 = c_field.shape[:2]
    macro = np.asarray(macro_strain, dtype=float).reshape(3)

    # Pure zero loading: the solution is identically zero and the equilibrium
    # index would divide by zero, so return immediately.
    if not macro.any():
        zeros = np.zeros((T1, T2, 3))
        return SolveResult(zeros, zeros.copy(), 0, [], True)

    if domain is None:
        domain = (float(T1), float(T2))
    if grid is None:
        grid = make_freq_grid((T1, T2), domain)
    if green is None:
        lam, mu = lame_fields_from_stiffness(c_field)
        green = green_operator(grid, reference_material(lam, mu))
    if grid.shape != (T1, T2) or green.g.shape[:2] != (T1, T2):
        raise DomainError(
            f"grid {grid.shape} or Green operator {green.g.shape[:2]} "
            f"does not match the {(T1, T2)} field"
        )

    c = np.ascontiguousarray(c_field.transpose(2, 3, 0, 1))
    eps = np.repeat(macro, T1 * T2).reshape(3, T1, T2)
    p = np.zeros_like(eps)
    work = np.empty_like(eps)  # C:p, then alpha p, then C:eps (the stress)
    sigma_hat = np.empty(eps.shape, complex)
    gs_hat = np.empty(eps.shape, complex)  # Gamma0 sigma_hat = -FFT(z); Tol's scratch
    _stress_spectrum(c, eps, work, sigma_hat)

    history = []
    mean_history = [] if config.record_history else None
    n_updates = 0
    rz = 0.0  # <z, C0:z> of the previous iteration; 0 restarts the direction from z

    while True:
        if n_updates > 0:
            tol_n = convergence_metric(sigma_hat.transpose(1, 2, 0), grid, gs_hat)
            history.append(tol_n)
            if tol_n <= config.tol:
                break
            if not np.isfinite(tol_n):
                raise NonConvergenceError(
                    f"Tol = {tol_n} after {n_updates} iterations: the iterate is not finite",
                    history,
                )
            if n_updates >= config.max_iter:
                raise NonConvergenceError(
                    f"no convergence after {config.max_iter} iterations "
                    f"(Tol = {tol_n:.3e}, target {config.tol:.1e})",
                    history,
                )

        apply_green(green.g, sigma_hat.transpose(1, 2, 0), out=gs_hat.transpose(1, 2, 0))
        # The stress spectrum is spent until the next FFT: it is the scratch here.
        rz_new = _reference_energy(gs_hat, green.lame0, sigma_hat[0])
        _update_direction(p, rz_new / rz if rz else 0.0, gs_hat, sigma_hat[:2])
        rz = rz_new
        curvature = _contract(p, _apply_stiffness(c, p, work))
        if curvature > 0:
            eps += np.multiply(p, rz / curvature, out=work)
        elif np.abs(p).max() > 0:
            raise NonConvergenceError(
                f"curvature <p, C:p> = {curvature:.3e} <= 0 at iteration {n_updates + 1}: "
                "the stiffness field is not positive definite",
                history,
            )
        _stress_spectrum(c, eps, work, sigma_hat)
        n_updates += 1
        if mean_history is not None:
            mean_history.append(eps.mean(axis=(1, 2)))

    return SolveResult(
        strain=eps.transpose(1, 2, 0),
        stress=work.transpose(1, 2, 0),
        iterations=n_updates,
        residual_history=history,
        converged=True,
        mean_strain_history=None if mean_history is None else np.array(mean_history),
        metadata={"lame0": (green.lame0.lam, green.lame0.mu)},
    )
