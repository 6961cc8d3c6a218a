"""Discrete frequency grids and the periodic isotropic Green operator.

The operator is assembled in Fourier space on the full FFT grid from
rotated-grid modified frequencies (Willot, C. R. Mecanique 343, 2015): a
finite-difference-consistent discretization that suppresses ringing and,
unlike the continuous frequencies of the original Moulinec-Suquet scheme,
balances every mode of an even grid.

For an isotropic reference medium C0 the operator factors through the
acoustic tensor K0(xi) = C0 : (xi (x) xi), a symmetric 2x2 matrix per
frequency: with r = xi . sigma_hat the balance residual of a stress
spectrum (the quantity the equilibrium index Tol measures) and d = N r for
N = K0^-1,

    Gamma0 sigma_hat = sym(xi (x) d).

So GreenField stores the three distinct entries of N, not the nine of a
3x3 Voigt matrix, and :func:`apply_green` starts from r.  The pairing of d
with r is the reference energy: for z = -IFFT(Gamma0 sigma_hat), the pixel
sum of z : C0 : z is sum Re(conj(d) . r) / (T1*T2), so apply_green returns
that sum, taken before it overwrites r with Gamma0 sigma_hat.

Storage: every plane is component-major, (k, T1, T2), and complex with a
zero imaginary part.  numpy has no real-by-complex multiply loop: a real
plane times a spectrum is cast to complex on every call, which costs about
as much as the product itself.  The frequency planes (xi1, xi2) sit beside
N for the same reason.  All five are built once per cell and shared by
every load and lane; the products they enter equal, bit for bit, those of
the real planes (xi + 0j times s is xi times s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMediumError, DomainError
from .voigt import Lame

ROTATED = "rotated"


@dataclass(frozen=True)
class FreqGrid:
    """Per-pixel modified frequency components (rad/length) of a T1 x T2 FFT grid."""

    xi1: np.ndarray
    xi2: np.ndarray

    @property
    def shape(self):
        return self.xi1.shape


@dataclass(frozen=True)
class GreenField:
    """Precomputed Green operator of one reference medium on one grid.

    xi holds the frequency planes (xi1, xi2) and n the entries (N11, N22,
    N12) of the inverse acoustic tensor, all complex with zero imaginary
    part; n is exactly zero where |xi| == 0.  Immutable after construction;
    safe to share across concurrent solves.
    """

    xi: np.ndarray  # (2, T1, T2) complex
    n: np.ndarray  # (3, T1, T2) complex
    lame0: Lame

    @property
    def shape(self):
        return self.n.shape[1:]


def frequency_vector(T: int, h: float) -> np.ndarray:
    """FFT-ordered angular frequencies for T pixels of size h.

    (2*pi/(h*T)) * [0, 1, ..., T/2-1, -T/2, ..., -1]        for even T
    (2*pi/(h*T)) * [0, 1, ..., (T-1)/2, -(T-1)/2, ..., -1]  for odd T

    Entry 0 is exactly 0.0.
    """
    if T < 1:
        raise DomainError(f"pixel count must be >= 1, got {T}")
    if not h > 0:
        raise DomainError(f"pixel size must be positive, got {h}")
    if T % 2 == 0:
        k = np.concatenate([np.arange(0, T // 2), np.arange(-T // 2, 0)])
    else:
        k = np.concatenate([np.arange(0, (T - 1) // 2 + 1), np.arange(-(T - 1) // 2, 0)])
    return (2.0 * np.pi / (h * T)) * k.astype(float)


def make_freq_grid(resolution, domain, scheme: str = ROTATED) -> FreqGrid:
    """Build the rotated-grid frequencies of a periodic cell.

    With h_i = L_i / T_i the pixel sizes and theta_i = h_i * xi_i the
    per-pixel phase angle of the frequency_vector entries,

        xi1~ = (2/h1) sin(theta1/2) cos(theta2/2)
        xi2~ = (2/h2) cos(theta1/2) sin(theta2/2)

    The trig factors are built per axis so that the analytic zeros (the DC bin
    and, on even grids, the Nyquist cosine) are exact rather than ~1e-16; the
    Green operator relies on |xi~| == 0 being an exact test.

    Args:
        resolution: (T1, T2) pixel counts.
        domain: (L1, L2) physical cell size.
        scheme: must be "rotated", the only frequency scheme.
    """
    if scheme != ROTATED:
        raise DomainError(f"unknown scheme {scheme!r}, expected {ROTATED!r}")
    T1, T2 = int(resolution[0]), int(resolution[1])
    h1, h2 = float(domain[0]) / T1, float(domain[1]) / T2
    half1 = 0.5 * h1 * frequency_vector(T1, h1)
    half2 = 0.5 * h2 * frequency_vector(T2, h2)
    s1, c1 = np.sin(half1), np.cos(half1)
    s2, c2 = np.sin(half2), np.cos(half2)
    if T1 % 2 == 0:
        c1[T1 // 2] = 0.0  # cos(-pi/2), exact zero at the Nyquist bin
    if T2 % 2 == 0:
        c2[T2 // 2] = 0.0
    return FreqGrid((2.0 / h1) * np.outer(s1, c2), (2.0 / h2) * np.outer(c1, s2))


def green_operator(grid: FreqGrid, lame0: Lame) -> GreenField:
    """Assemble the periodic isotropic Green operator for a reference medium.

    The acoustic tensor K0 = mu0 |xi|^2 I + (lam0 + mu0) xi xi^T has the
    inverse

        N = (1/mu0) I / |xi|^2 - ((lam0 + mu0) / (mu0 (lam0 + 2 mu0))) xi xi^T / |xi|^4

    at nonzero frequency.  Frequencies with |xi| == 0 (the DC bin, plus the
    Nyquist corner of an even grid) get N = 0, so Gamma0 vanishes there.
    """
    lam0, mu0 = lame0.lam, lame0.mu
    if mu0 == 0.0 or 2.0 * mu0 + lam0 == 0.0:
        raise DegenerateMediumError("reference medium has mu0 == 0 or 2*mu0 + lam0 == 0")
    x1, x2 = grid.xi1, grid.xi2
    nsq = x1 * x1 + x2 * x2
    inv = np.divide(1.0, nsq, out=np.zeros_like(nsq), where=nsq != 0.0)
    a = inv / mu0
    b = ((mu0 + lam0) / (mu0 * (2.0 * mu0 + lam0))) * inv * inv
    xi = np.zeros((2,) + x1.shape, complex)
    xi.real = x1, x2
    n = np.zeros((3,) + x1.shape, complex)
    n.real = a - b * x1 * x1, a - b * x2 * x2, -b * x1 * x2
    return GreenField(xi, n, lame0)


def apply_green(green: GreenField, residual: np.ndarray, d: np.ndarray = None) -> np.ndarray:
    """Apply Gamma0, in place, to stress spectra given by their balance residuals.

    residual: (L, 2, T1, T2) complex, r = xi . sigma_hat of one stress
    spectrum per leading index.  It is overwritten with Gamma0 sigma_hat =
    sym(xi (x) d), packed for one inverse FFT of a real strain field:

        residual[:, 0] = G11 + i G22,    residual[:, 1] = G12,

    with G12 the tensorial shear.  G11, G22 and G12 are Hermitian spectra, so
    the real and imaginary parts of IFFT(residual[:, 0]) are the inverse
    transforms of G11 and G22.  d, if given, an (L, 2, T1, T2) complex
    buffer, receives d = N r.

    Returns the (L,) sums over frequencies of Re(conj(d) . r): T1*T2 times
    the pixel sum of z : C0 : z for z = -IFFT(Gamma0 sigma_hat), taken here
    because r is gone afterwards.  Each field's arithmetic is the same
    whatever L.
    """
    if d is None:
        d = np.empty_like(residual)
    xi1, xi2 = green.xi
    n12 = green.n[2]
    d1, d2 = d[:, 0], d[:, 1]
    packed, shear = residual[:, 0], residual[:, 1]
    # d = [N11 r1, N22 r2] + N12 [r2, r1]
    np.multiply(green.n[:2], residual, out=d)
    term = np.multiply(n12, residual[:, 1])
    d1 += term
    d2 += np.multiply(n12, residual[:, 0], out=term)
    per_component = np.einsum("lcxy,lcxy->lc", d.view(float), residual.view(float))
    energy = per_component[:, 0] + per_component[:, 1]
    # [xi1 d1 + i xi2 d2, (xi1 d2 + xi2 d1) / 2]
    np.multiply(xi1, d, out=residual)
    np.multiply(xi2, d2, out=term)
    packed.real -= term.imag
    packed.imag += term.real
    shear += np.multiply(xi2, d1, out=term)
    shear *= 0.5
    return energy


def reference_material(lam_grid: np.ndarray, mu_grid: np.ndarray) -> Lame:
    """Midpoint reference medium: lam0 = (min lam + max lam)/2, same for mu."""
    lam_grid = np.asarray(lam_grid)
    mu_grid = np.asarray(mu_grid)
    if lam_grid.size == 0 or mu_grid.size == 0:
        raise DomainError("reference_material needs a nonempty field")
    lam0 = 0.5 * (lam_grid.min() + lam_grid.max())
    mu0 = 0.5 * (mu_grid.min() + mu_grid.max())
    return Lame(float(lam0), float(mu0))


def lame_fields_from_stiffness(c_field: np.ndarray):
    """Recover per-pixel (lam, mu) grids from an isotropic stiffness field."""
    c_field = np.asarray(c_field)
    lam = c_field[..., 0, 1]
    mu = 0.5 * c_field[..., 2, 2]
    return lam, mu
