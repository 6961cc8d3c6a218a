"""Elasticity conversions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from microhom.errors import DomainError, SingularityError
from microhom.voigt import (
    IsotropicProps,
    Lame,
    effective_enu,
    lame_from_enu,
    stiffness_from_lame,
)


class TestLameFromEnu:
    def test_zero_poisson(self):
        lame = lame_from_enu(IsotropicProps(1.0, 0.0))
        assert lame.lam == 0.0
        assert lame.mu == 0.5

    def test_glass_fiber(self):
        # hand evaluation: 74*0.2/(1.2*0.6), 74/2.4
        lame = lame_from_enu(IsotropicProps(74.0, 0.2))
        assert_allclose(lame.lam, 14.8 / 0.72, rtol=1e-12)
        assert_allclose(lame.mu, 74.0 / 2.4, rtol=1e-12)

    def test_epoxy_matrix(self):
        # hand evaluation: 2.5*0.3/(1.3*0.4), 2.5/2.6
        lame = lame_from_enu(IsotropicProps(2.5, 0.3))
        assert_allclose(lame.lam, 0.75 / 0.52, rtol=1e-12)
        assert_allclose(lame.mu, 2.5 / 2.6, rtol=1e-12)

    @pytest.mark.parametrize("E,nu", [(-1.0, 0.2), (0.0, 0.2), (1.0, 0.5), (1.0, -1.0), (1.0, 0.7)])
    def test_rejects_invalid(self, E, nu):
        with pytest.raises(DomainError):
            IsotropicProps(E, nu)


class TestStiffness:
    def test_identity_at_unit_shear_modulus(self):
        assert_allclose(stiffness_from_lame(Lame(0.0, 0.5)), np.eye(3))

    def test_hand_values(self):
        c = stiffness_from_lame(Lame(20.5556, 30.8333))
        expected = np.array(
            [[82.2222, 20.5556, 0.0], [20.5556, 82.2222, 0.0], [0.0, 0.0, 61.6666]]
        )
        assert_allclose(c, expected, atol=1e-4)

    def test_symmetry_and_spd(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            E = rng.uniform(0.1, 300.0)
            nu = rng.uniform(-0.9, 0.45)
            c = stiffness_from_lame(lame_from_enu(IsotropicProps(E, nu)))
            assert_allclose(c, c.T, rtol=1e-12)
            lame = lame_from_enu(IsotropicProps(E, nu))
            if lame.lam + lame.mu > 0:
                assert np.linalg.eigvalsh(c).min() > 0


class TestEffectiveEnu:
    def test_round_trip_glass(self):
        c = stiffness_from_lame(lame_from_enu(IsotropicProps(74.0, 0.2)))
        props = effective_enu(c)
        assert_allclose(props.E, 74.0, rtol=1e-12)
        assert_allclose(props.nu, 0.2, atol=1e-12)

    def test_round_trip_trivial(self):
        props = effective_enu(stiffness_from_lame(Lame(0.0, 0.5)))
        assert_allclose(props.E, 1.0, rtol=1e-12)
        assert_allclose(props.nu, 0.0, atol=1e-12)

    def test_singular(self):
        # C1111 == C1212: m[0,0] == m[2,2]/2
        c = np.diag([1.0, 1.0, 2.0])
        with pytest.raises(SingularityError):
            effective_enu(c)

    def test_round_trip_property(self):
        # full conversion chain recovers inputs to 1e-12 relative
        rng = np.random.default_rng(42)
        for _ in range(1000):
            E = rng.uniform(1e-2, 500.0)
            nu = rng.uniform(-0.99, 0.49)
            props = effective_enu(stiffness_from_lame(lame_from_enu(IsotropicProps(E, nu))))
            assert_allclose(props.E, E, rtol=1e-12)
            assert_allclose(props.nu, nu, rtol=1e-12, atol=1e-14)

