"""Voigt tensor algebra and isotropic elasticity conversions for 2D plane strain.

Conventions used throughout the package:

* Second-order symmetric tensors (strain, stress, polarization) are stored as
  3-vectors ``(a11, a22, a12)`` with the *tensorial* shear component, i.e. the
  12 entry is not doubled.
* Fourth-order tensors are stored as 3x3 matrices that act on such vectors by
  plain matrix-vector product.  For an isotropic stiffness this puts ``2*mu``
  in the (2, 2) slot so that ``sigma12 = 2*mu*eps12`` holds; the tensor
  component ``C1212`` is therefore ``m[2, 2] / 2``.

Moduli are in GPa everywhere; there is no unit-conversion layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError


@dataclass(frozen=True)
class IsotropicProps:
    """Isotropic phase described by Young's modulus (GPa) and Poisson ratio."""

    E: float
    nu: float

    def __post_init__(self):
        if not self.E > 0:
            raise DomainError(f"Young's modulus must be positive, got {self.E}")
        # Strict bounds keep the Lame conversion finite.
        if not -1.0 < self.nu < 0.5:
            raise DomainError(f"Poisson ratio must lie in (-1, 0.5), got {self.nu}")


@dataclass(frozen=True)
class Lame:
    """First Lame constant and shear modulus, both in GPa."""

    lam: float
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise DomainError(f"shear modulus must be positive, got {self.mu}")


def lame_from_enu(props: IsotropicProps) -> Lame:
    """Convert (E, nu) to Lame constants.

    lam = E*nu / ((1+nu)(1-2nu)),  mu = E / (2(1+nu))
    """
    E, nu = props.E, props.nu
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return Lame(lam, mu)


def stiffness_from_lame(lame: Lame) -> np.ndarray:
    """Isotropic stiffness acting on tensorial-shear Voigt vectors.

    Returns [[lam+2mu, lam, 0], [lam, lam+2mu, 0], [0, 0, 2mu]].
    """
    lam, mu = lame.lam, lame.mu
    return np.array(
        [
            [lam + 2.0 * mu, lam, 0.0],
            [lam, lam + 2.0 * mu, 0.0],
            [0.0, 0.0, 2.0 * mu],
        ]
    )


def effective_enu(cbar: np.ndarray) -> IsotropicProps:
    """Effective Young's modulus and Poisson ratio of a homogenized stiffness.

    Extracts C1111 = m[0, 0] and C1212 = m[2, 2] / 2, then

        nu = (C1111 - 2*C1212) / (2*(C1111 - C1212))
        E  = C1212 * (3*C1111 - 4*C1212) / (C1111 - C1212)
    """
    cbar = np.asarray(cbar, dtype=float)
    c1111 = cbar[0, 0]
    c1212 = cbar[2, 2] / 2.0
    denom = c1111 - c1212
    if denom == 0.0:
        raise SingularityError("effective properties undefined: C1111 == C1212")
    nu = (c1111 - 2.0 * c1212) / (2.0 * denom)
    E = c1212 * (3.0 * c1111 - 4.0 * c1212) / denom
    return IsotropicProps(E, nu)


def stiffness_from_enu(props: IsotropicProps) -> np.ndarray:
    """Shorthand for stiffness_from_lame(lame_from_enu(props))."""
    return stiffness_from_lame(lame_from_enu(props))
