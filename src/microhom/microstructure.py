"""Periodic two-phase microstructure generation.

Two families: random non-overlapping fiber packings (random placement plus a
pairwise push-apart stirring loop, periodic throughout) and spinodal
morphologies from semi-implicit spectral evolution of a conserved phase
field.  Both are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import Checked
from .errors import DomainError, InstabilityError, PackingError
from .green import frequency_vector
from .voigt import IsotropicProps, stiffness_from_enu

VOF_MAX = 0.65  # densest fiber volume fraction generate_fiber_rve packs
_MAX_SWEEPS = 4000  # stirring sweeps per _relax_positions call
_MAX_RESTARTS = 20  # fresh radius and position draws per generate_fiber_rve call


@dataclass
class Microstructure:
    """Periodic boolean pixel grid (1 = fiber/hard phase) plus provenance."""

    grid: np.ndarray  # (T1, T2) uint8
    domain_size: tuple
    achieved_vof: float
    seed: int
    centers_radii: Optional[np.ndarray] = None  # (n, 3) rows (x, y, r)
    kind: str = "fiber"
    metadata: dict = field(default_factory=dict)  # a spinodal cell's mean_concentration


@dataclass(frozen=True)
class SpinodalParams(Checked):
    """Knobs of the conserved phase-field evolution.

    Lengths are in the same units as the domain; defaults give visibly
    coarsened patterns within 500 steps on a 256^2 grid of a 50 x 50 cell.
    """

    steps: int = 500
    dt: float = 0.05
    interface_width: float = 0.5
    mobility: float = 1.0
    threshold: float = 0.6
    initial_noise_amplitude: float = 0.05
    RANGES = {"steps": ">= 1", "dt": "positive", "interface_width": "positive",
              "mobility": "positive", "threshold": "in (0, 1)", "initial_noise_amplitude": ">= 0"}


def _min_image(delta: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Wrap coordinate differences into the nearest periodic image."""
    return delta - lengths * np.round(delta / lengths)


def rasterize_discs(centers_radii: np.ndarray, domain, resolution) -> np.ndarray:
    """Pixel grid of a periodic disc set: a pixel is fiber iff its center
    lies inside some disc under the minimum-image metric."""
    L = np.asarray(domain, dtype=float)
    T1, T2 = int(resolution[0]), int(resolution[1])
    x = (np.arange(T1) + 0.5) * (L[0] / T1)
    y = (np.arange(T2) + 0.5) * (L[1] / T2)
    grid = np.zeros((T1, T2), dtype=np.uint8)
    for cx, cy, r in np.asarray(centers_radii, dtype=float):
        dx = np.abs(x - cx) % L[0]
        dx = np.minimum(dx, L[0] - dx)
        dy = np.abs(y - cy) % L[1]
        dy = np.minimum(dy, L[1] - dy)
        inside = dx[:, None] ** 2 + dy[None, :] ** 2 <= r * r
        grid[inside] = 1
    return grid


def _relax_positions(pos, radii, lengths, gap, rng):
    """Push overlapping discs apart along their center lines until all pairs
    satisfy dist >= r_i + r_j + gap under the periodic metric.

    Each sweep works on the fixed list of pairs i < j in row-major order.
    The pushes of the overlapping pairs are summed into each disc in that
    order, +push*u to i then -push*u to j, pair after pair, and applied
    together.  Floating-point sums depend on their order, and this order is
    what keeps the packings bit for bit those of the plain per-pair loop,
    random directions of coincident pairs included.  Returns None when stuck.
    """
    n = len(radii)
    if n == 1:
        return pos
    i_idx, j_idx = np.triu_indices(n, 1)
    ends = np.column_stack([i_idx, j_idx])  # row p: the two discs of pair p
    req = radii[i_idx] + radii[j_idx] + gap
    # Push toward a padded separation so the strict requirement is met with
    # margin instead of stalling at exact contact.
    padded = req + 1e-3 * radii.mean()
    for _ in range(_MAX_SWEEPS):
        x, y = pos[:, 0], pos[:, 1]
        dx = _min_image(x[i_idx] - x[j_idx], lengths[0])
        dy = _min_image(y[i_idx] - y[j_idx], lengths[1])
        dist = np.sqrt(dx * dx + dy * dy)
        if (req - dist <= 0.0).all():
            return pos
        short = padded - dist
        hit = np.flatnonzero(short > 0.0)
        ux, uy, norm = dx[hit], dy[hit], dist[hit]
        # A coincident pair has no center line: it is pushed along a random
        # direction, drawn in pair order.  (A non-finite distance never has
        # short > 0.)
        for p in np.flatnonzero(norm == 0.0):
            u = rng.standard_normal(2)
            ux[p], uy[p], norm[p] = u[0], u[1], np.linalg.norm(u)
        # Pair p adds +push*u to disc i and -push*u to disc j; bincount sums
        # each disc's terms in the order i0, j0, i1, j1, ...
        scale = 0.55 * short[hit]
        idx = ends[hit].ravel()
        signed = np.empty(2 * hit.size)
        disp = np.empty_like(pos)
        for k, uk in enumerate((ux, uy)):
            signed[0::2] = scale * (uk / norm)
            np.negative(signed[0::2], out=signed[1::2])
            disp[:, k] = np.bincount(idx, signed, minlength=n)
        pos = (pos + disp) % lengths
    return None


def check_fiber_fits(r_mean: float, gap_frac: float, domain) -> None:
    """Raise DomainError unless one fiber and its gap fit the periodic cell:
    (2 + gap_frac) * r_mean < min(domain)."""
    span = 2.0 * r_mean + gap_frac * r_mean
    if span >= min(domain):
        raise DomainError(f"r_mean too large: a fiber and its gap span (2 + gap_frac) * r_mean "
                          f"= {span:g}, not less than the cell's shorter side {min(domain):g}")


def check_vof_order(vof_range) -> None:
    """Raise DomainError unless vof_range is ordered lo <= hi."""
    if vof_range[0] > vof_range[1]:
        raise DomainError(f"vof_range must be ordered lo <= hi, got {tuple(vof_range)}")


def generate_fiber_rve(
    vof_target: float,
    r_mean: float,
    r_std_frac: float,
    domain,
    resolution,
    seed: int,
    gap_frac: float = 0.1,
) -> Microstructure:
    """Generate a periodic random fiber packing hitting a target volume fraction.

    Radii are drawn from a normal distribution (mean r_mean, std
    r_std_frac * r_mean, clipped to +-3 sigma) and rescaled by a common factor
    so the rasterized fraction matches vof_target within 0.5 percentage
    points.  Placement is random followed by stirring sweeps that resolve
    near-misses; everything is periodic and deterministic per seed.

    Raises:
        PackingError: the stir/retry budget ran out before reaching the target.
    """
    if not 0.0 < vof_target <= VOF_MAX:
        raise DomainError(f"vof_target must lie in (0, {VOF_MAX}], got {vof_target}")
    if len(resolution) != 2:
        raise DomainError(f"resolution must have two entries, got {resolution}")
    T1, T2 = int(resolution[0]), int(resolution[1])
    if min(T1, T2) < 32:
        raise DomainError(f"resolution must be >= 32 per axis, got {resolution}")
    if not 0.0 < r_mean < np.inf:
        raise DomainError(f"r_mean must be positive and finite, got {r_mean}")
    if not 0.0 <= r_std_frac < np.inf:
        raise DomainError(f"r_std_frac must be >= 0 and finite, got {r_std_frac}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    lengths = np.asarray(domain, dtype=float)
    if not ((lengths > 0.0) & (lengths < np.inf)).all():
        raise DomainError(f"domain lengths must be positive and finite, got {domain}")
    check_fiber_fits(r_mean, gap_frac, lengths)
    area = float(lengths[0] * lengths[1])
    gap = gap_frac * r_mean

    rng = np.random.default_rng(seed)
    sigma = r_std_frac * r_mean
    n_fibers = max(1, round(vof_target * area / (np.pi * r_mean**2 * (1.0 + r_std_frac**2))))

    for _ in range(_MAX_RESTARTS):
        radii = rng.normal(r_mean, sigma, n_fibers)
        radii = np.clip(radii, r_mean - 3.0 * sigma, r_mean + 3.0 * sigma)
        radii *= np.sqrt(vof_target * area / (np.pi * radii**2).sum())
        pos = rng.uniform([0.0, 0.0], lengths, (n_fibers, 2))

        # Alternate stirring with a rasterization feedback: scaling all radii
        # by sqrt(target/achieved) walks the pixel fraction onto the target.
        snapshot = None
        for _ in range(12):
            if 2.0 * radii.max() + gap >= lengths.min():
                break
            pos = _relax_positions(pos, radii, lengths, gap, rng)
            if pos is None:
                break
            grid = rasterize_discs(np.column_stack([pos, radii]), lengths, (T1, T2))
            achieved = float(grid.mean())
            if snapshot is None or abs(achieved - vof_target) < abs(snapshot[2] - vof_target):
                snapshot = (grid, pos.copy(), achieved, radii.copy())
            if abs(achieved - vof_target) <= 0.001 or achieved == 0.0:
                break
            radii = radii * np.sqrt(vof_target / achieved)
        if snapshot is not None and abs(snapshot[2] - vof_target) <= 0.005:
            grid, pos, achieved, radii = snapshot
            return Microstructure(
                grid=grid,
                domain_size=(float(lengths[0]), float(lengths[1])),
                achieved_vof=achieved,
                seed=seed,
                centers_radii=np.column_stack([pos, radii]),
                kind="fiber",
            )
    raise PackingError(
        f"could not pack vof={vof_target} with r_mean={r_mean} "
        f"after {_MAX_RESTARTS} restarts"
    )


def generate_spinodal_rve(
    params: SpinodalParams, domain, resolution, seed: int
) -> Microstructure:
    """Generate a bicontinuous two-phase morphology by phase separation.

    A concentration field starting at 0.5 plus noise evolves under conserved
    dynamics with a double-well free energy c^2(1-c)^2 and gradient penalty
    interface_width^2, stepped semi-implicitly in Fourier space (the linear
    fourth-order term implicit, the nonlinearity explicit).  The zero mode is
    untouched by construction, so the mean concentration is conserved
    exactly.  Pixels are labeled 0 (soft) where the final concentration
    exceeds the threshold and 1 (hard) otherwise.

    Raises:
        DomainError: a resolution without two entries, an axis below 1 pixel, or a negative seed.
        InstabilityError: the concentration left [-0.5, 1.5].
    """
    if len(resolution) != 2:
        raise DomainError(f"resolution must have two entries, got {resolution}")
    T1, T2 = int(resolution[0]), int(resolution[1])
    if min(T1, T2) < 1:
        raise DomainError(f"resolution must be >= 1 per axis, got {resolution}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    c = 0.5 + params.initial_noise_amplitude * rng.uniform(-1.0, 1.0, (T1, T2))
    _check_range(c, 0)

    # the exact Laplacian symbol |k|^2, not the solver's rotated-grid frequencies
    xi1 = frequency_vector(T1, float(domain[0]) / T1)
    xi2 = frequency_vector(T2, float(domain[1]) / T2)
    ksq = xi1[:, None] ** 2 + xi2[None, :] ** 2
    kappa = params.interface_width**2
    denom = 1.0 + params.dt * params.mobility * kappa * ksq * ksq

    c_hat = np.fft.fft2(c)
    for step in range(params.steps):
        c = np.fft.ifft2(c_hat).real
        _check_range(c, step)
        dfdc = 2.0 * c * (1.0 - c) * (1.0 - 2.0 * c)
        c_hat = (c_hat - params.dt * params.mobility * ksq * np.fft.fft2(dfdc)) / denom
    c = np.fft.ifft2(c_hat).real
    _check_range(c, params.steps)

    grid = np.where(c > params.threshold, 0, 1).astype(np.uint8)
    return Microstructure(
        grid=grid,
        domain_size=(float(domain[0]), float(domain[1])),
        achieved_vof=float(grid.mean()),
        seed=seed,
        centers_radii=None,
        kind="spinodal",
        metadata={"mean_concentration": float(c.mean())},
    )


def _check_range(c: np.ndarray, step: int):
    lo, hi = c.min(), c.max()
    if lo < -0.5 or hi > 1.5:
        raise InstabilityError(
            f"concentration left [-0.5, 1.5] at step {step} (range [{lo:.3g}, {hi:.3g}])"
        )


def checked_grid(array: np.ndarray, source) -> np.ndarray:
    """A stored cell grid as uint8, once it is known to be 2-D and to hold
    only 0 and 1; else DomainError naming `source`."""
    if array.ndim != 2:
        raise DomainError(f"{source}: grid must be 2-D, got shape {array.shape}")
    if not np.isin(array, (0, 1)).all():
        raise DomainError(f"{source}: grid values must be 0 or 1")
    return array.astype(np.uint8, copy=False)


def assign_properties(m, fiber: IsotropicProps, matrix: IsotropicProps) -> np.ndarray:
    """Per-pixel stiffness field from the characteristic function.

    Fiber pixels (grid == 1) get the fiber stiffness, the rest the matrix
    stiffness.  Accepts a Microstructure or a bare grid.  The (T1, T2, 3, 3)
    result is a view of component-major (3, 3, T1, T2) memory, the cell
    solver's layout, so no solve copies it.
    """
    grid = np.asarray(m.grid if isinstance(m, Microstructure) else m)
    c_fiber = stiffness_from_enu(fiber)[..., None, None]
    c_matrix = stiffness_from_enu(matrix)[..., None, None]
    return np.where(grid == 1, c_fiber, c_matrix).transpose(2, 3, 0, 1)
