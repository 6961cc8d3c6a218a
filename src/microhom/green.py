"""Discrete frequency grids and the periodic isotropic Green operator.

The operator is assembled in Fourier space on the full FFT grid from
rotated-grid modified frequencies (Willot, C. R. Mecanique 343, 2015): a
finite-difference-consistent discretization that suppresses ringing and,
unlike the continuous frequencies of the original Moulinec-Suquet scheme,
balances every mode of an even grid.

Storage convention: the per-frequency 3x3 matrices are the symmetric Voigt
form in which both the shear row and the shear column carry the pair factor 2.
Contracting such a matrix with a tensorial-shear 3-vector therefore requires
halving the third component of the plain matrix-vector product; that is what
:func:`apply_green` does.  The stiffness matrices of :mod:`.voigt` only carry
the column factor, so they contract by plain product.

Memory layout: ``GreenField.g`` is a (T1, T2, 3, 3) view of a component-major
(3, 3, T1, T2) array, so each entry is one contiguous plane for the einsum of
:func:`apply_green`; component-last arrays work too, through strided access.
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
    """Precomputed Green operator: one symmetric 3x3 matrix per frequency.

    Immutable after construction; safe to share across concurrent solves.
    """

    g: np.ndarray  # (T1, T2, 3, 3)
    lame0: Lame


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

    At nonzero frequency,

        G0 = (1/(4*mu0)) * G1 + ((mu0+lam0)/(mu0*(2*mu0+lam0))) * G2

    with the symmetric Voigt matrices

        G1 = [[4 x1^2,  0,      4 x1 x2 ],          G2 = -[[x1^4,      x1^2 x2^2, 2 x1^3 x2],
              [0,       4 x2^2, 4 x1 x2 ],  / |x|^2       [x1^2 x2^2, x2^4,      2 x1 x2^3],   / |x|^4
              [4 x1 x2, 4 x1 x2, 4|x|^2 ]]               [2 x1^3 x2, 2 x1 x2^3, 4 x1^2 x2^2]]

    that is, G1 = 4 (u u^T + v v^T) and G2 = -w w^T for u = (x1, 0, x2),
    v = (0, x2, x1) and w = (x1^2, x2^2, 2 x1 x2), so G0 is one weighted sum of
    outer products, written straight into component-major planes.
    Frequencies with |xi| == 0 (the DC bin, plus the Nyquist corner of an
    even grid) have u = v = w = 0 and so get the zero matrix.
    """
    lam0, mu0 = lame0.lam, lame0.mu
    if 2.0 * mu0 + lam0 == 0.0:
        raise DegenerateMediumError("reference medium has 2*mu0 + lam0 == 0")
    x1, x2 = grid.xi1, grid.xi2
    nsq = x1 * x1 + x2 * x2
    inv = 1.0 / np.where(nsq == 0.0, 1.0, nsq)
    zero = np.zeros_like(x1)
    uvw = np.array([[x1, zero, x2], [zero, x2, x1], [x1 * x1, x2 * x2, 2.0 * x1 * x2]])
    c1 = 1.0 / (4.0 * mu0)
    c2 = (mu0 + lam0) / (mu0 * (2.0 * mu0 + lam0))
    weights = np.array([4.0 * c1 * inv, 4.0 * c1 * inv, -c2 * inv * inv])
    g = np.einsum("kxy,kixy,kjxy->ijxy", weights, uvw, uvw)

    return GreenField(g.transpose(2, 3, 0, 1), lame0)


def apply_green(g: np.ndarray, field: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Contract the stored Green matrices with a tensorial-shear vector field.

    g (T1, T2, 3, 3) and field (T1, T2, 3) may be in any memory order; a new
    result is component-major in memory when both are.  out, if given, is a
    (T1, T2, 3) array that receives the result and is returned.  The
    symmetric storage doubles the shear row as well as the shear column, so
    the tensor contraction is the plain product with its third component
    halved.
    """
    major = np.einsum(
        "ijxy,jxy->ixy",
        g.transpose(2, 3, 0, 1),
        field.transpose(2, 0, 1),
        out=None if out is None else out.transpose(2, 0, 1),
    )
    major[2] *= 0.5
    return major.transpose(1, 2, 0)


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
