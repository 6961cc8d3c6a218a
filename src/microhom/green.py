"""Discrete frequency grids and the periodic isotropic Green operator.

The operator is built on the full FFT grid from rotated-grid modified
frequencies (Willot, C. R. Mecanique 343, 2015): a finite-difference
discretization that suppresses ringing and, unlike the continuous
frequencies of the original Moulinec-Suquet scheme, balances every mode of
an even grid.  With h_i the pixel sizes, theta_i = h_i xi_i and periodic
indices, the half-pixel stencils

    D1 x = (x - x(i-1,j) + x(i,j-1) - x(i-1,j-1)) / (2 h1)
    D2 x = (x + x(i-1,j) - x(i,j-1) - x(i-1,j-1)) / (2 h2)

have the symbols i phi xi1~ and i phi xi2~, phi = exp(-i (theta1 + theta2)/2).
So the balance residual xi~ . sigma_hat is, up to phi, the spectrum of the
real field rho = D . sigma = (D1 s11 + D2 s12, D1 s12 + D2 s22), and the
phases cancel in the Green product, N = (C0 : (xi~ (x) xi~))^-1:

    Gamma0 sigma_hat = sym(xi~ (x) N (xi~ . sigma_hat)) = FFT(sym(D^T (x) eta)),
    eta = IFFT(N FFT(rho)).

The solver packs rho into one complex plane, W = FFT(rho1 + i rho2).  Its
two components are the Hermitian and anti-Hermitian parts of W, so the
symmetric N acts on it as N W = tr(N)/2 W + ((N11 - N22)/2 + i N12)
conj(W(-k)).  GreenField stores those two multiplier planes (four real
planes, where xi and N took ten), and apply_green also returns the
reference energy Re sum conj(N W) . W / (T1*T2), the pixel sum of
z : C0 : z for z = -IFFT(Gamma0 sigma_hat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMediumError, DomainError
from .voigt import Lame

ROTATED = "rotated"


@dataclass(frozen=True)
class FreqGrid:
    """Per-pixel modified frequency components (rad/length) of a T1 x T2 FFT
    grid of pixels of size h = (h1, h2)."""

    xi1: np.ndarray
    xi2: np.ndarray
    h: tuple


@dataclass(frozen=True)
class GreenField:
    """Precomputed Green operator of one reference medium on one grid.

    For s = 1 / ((2 h1)^2 T1 T2), iso holds s tr(N)/2 twice per pixel (it
    scales real and imaginary parts alike) and dev s ((N11 - N22)/2 - i N12);
    s makes the solver's stencils unit-free (2 h1 D) and carries the inverse
    FFT's 1/(T1*T2).  Both sit on the solver's padded grid, with zero last
    row and column, and are zero where |xi| == 0.  Read-only, so safe to
    share across concurrent solves."""

    iso: np.ndarray  # (T1 + 1, T2 + 1, 2) real
    dev: np.ndarray  # (T1 + 1, T2 + 1) complex
    lame0: Lame
    h: tuple  # the grid's pixel sizes

    def __post_init__(self):
        self.iso.flags.writeable = False
        self.dev.flags.writeable = False

    @property
    def shape(self):
        return (self.dev.shape[0] - 1, self.dev.shape[1] - 1)


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
    return FreqGrid((2.0 / h1) * np.outer(s1, c2), (2.0 / h2) * np.outer(c1, s2), (h1, h2))


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
    s = 1.0 / ((2.0 * grid.h[0]) ** 2 * nsq.size)
    a = (s / mu0) * inv
    b = (s * (mu0 + lam0) / (mu0 * (2.0 * mu0 + lam0))) * inv * inv
    # N = a I - b xi xi^T: tr(N)/2 = a - b |xi|^2 / 2, (N11 - N22)/2 - i N12
    iso = np.zeros((nsq.shape[0] + 1, nsq.shape[1] + 1, 2))
    iso[:-1, :-1] = (a - 0.5 * b * nsq)[..., None]
    dev = np.zeros(iso.shape[:2], complex)
    dev[:-1, :-1] = b * (0.5 * (x2 * x2 - x1 * x1) + 1j * x1 * x2)
    return GreenField(iso, dev, lame0, grid.h)


def wrap(x: np.ndarray, lead: bool) -> None:
    """Fill the pad row and column of a field held in x[..., 1:, 1:] (lead) or
    x[..., :-1, :-1] periodically.  A shift by (a, b) pixels is then an offset
    of a (T2 + 1) + b in the flat plane: a stencil is one contiguous operation."""
    if lead:
        x[..., 1:, 0] = x[..., 1:, -1]
        x[..., 0, :] = x[..., -1, :]
    else:
        x[..., :-1, -1] = x[..., :-1, 0]
        x[..., -1, :] = x[..., 0, :]


def pairs(x: np.ndarray) -> np.ndarray:
    """The (..., 2) real view of a complex array whose last axis is contiguous."""
    return x.view(float).reshape(x.shape + (2,), copy=False)


def apply_green(green: GreenField, packed: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Apply Gamma0 in place to packed residual spectra; return their energies.

    packed: (L, T1 + 1, T2 + 1) complex with W = FFT(2 h1 (rho1 + i rho2))
    of one stress field per load in [:, :T1, :T2] (solver.py); scratch is a
    second such buffer.  packed ends holding conj(V), V = iso W + conj(dev)
    conj(W(-k)) = s N W, whose forward FFT is conj(eta) / (2 h1).  With the
    trailing pad filled, W(-k) is the flat padded plane reversed, and the
    zero pads of the operator keep the pad entries out of every product.
    Returns Re sum conj(V) . W per load, the pixel sum of z : C0 : z; its
    two-operand sum runs row by row, as over whole planes einsum would group
    it differently for one load than for several.
    """
    wrap(packed, lead=False)
    n = len(packed)
    w, t = packed.reshape(n, -1), scratch.reshape(n, -1)
    np.multiply(green.dev.reshape(-1), w[:, ::-1], out=t)
    np.conjugate(w, out=w)
    wv, iso = pairs(w), green.iso.reshape(-1, 2)
    energy = np.einsum("lxyc,lxyc->l", pairs(scratch)[:, :-1, :-1], pairs(packed)[:, :-1, :-1])
    energy += np.einsum("nc,lnc,lnc->l", iso, wv, wv)
    wv *= iso
    w += t
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
