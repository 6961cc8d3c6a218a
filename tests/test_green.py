"""Frequency grids and the periodic Green operator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from microhom.errors import DegenerateMediumError, DomainError
from microhom.green import (
    ROTATED,
    FreqGrid,
    apply_green,
    frequency_vector,
    green_operator,
    make_freq_grid,
    reference_material,
)
from microhom.voigt import Lame


class TestFrequencyVector:
    def test_single_bin(self):
        assert_allclose(frequency_vector(1, 1.0), [0.0])

    def test_even(self):
        assert_allclose(frequency_vector(4, 1.0), [0.0, np.pi / 2, -np.pi, -np.pi / 2])

    def test_odd(self):
        assert_allclose(frequency_vector(3, 0.5), (4 * np.pi / 3) * np.array([0.0, 1.0, -1.0]))

    def test_dc_exact_zero(self):
        for T in (1, 2, 5, 64, 129):
            assert frequency_vector(T, 0.3)[0] == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            frequency_vector(0, 1.0)
        with pytest.raises(DomainError):
            frequency_vector(4, 0.0)


class TestModifiedFrequencies:
    def test_zero_frequency(self):
        grid = make_freq_grid((8, 8), (8.0, 8.0))
        assert grid.xi1[0, 0] == 0.0
        assert grid.xi2[0, 0] == 0.0

    def test_half_phase(self):
        # theta = (pi, 0): xi1~ = (2/h1) sin(pi/2) cos(0) = 2/h1
        h = 0.25
        grid = make_freq_grid((4, 4), (4 * h, 4 * h))
        nyq = 2  # bin holding theta1 = -pi; sin(-pi/2)cos(0) = -1
        assert_allclose(grid.xi1[nyq, 0], -2.0 / h, rtol=1e-12)
        assert_allclose(grid.xi2[nyq, 0], 0.0, atol=1e-15)

    def test_small_angle_limit(self):
        # first-order agreement with the continuous frequencies at the four
        # lowest nonzero bins of a 64x64 grid
        grid = make_freq_grid((64, 64), (64.0, 64.0))
        f = frequency_vector(64, 1.0)
        for i, j in [(1, 0), (0, 1), (63, 0), (0, 63)]:
            xim = np.array([grid.xi1[i, j], grid.xi2[i, j]])
            assert_allclose(xim, [f[i], f[j]], rtol=2e-3, atol=1e-15)

    def test_nyquist_corner_exact_zero(self):
        grid = make_freq_grid((8, 6), (8.0, 6.0))
        assert grid.xi1[4, 3] == 0.0
        assert grid.xi2[4, 3] == 0.0

    def test_rejects_continuous_scheme(self):
        with pytest.raises(DomainError, match="unknown scheme"):
            make_freq_grid((8, 8), (8.0, 8.0), "continuous")
        assert make_freq_grid((8, 8), (8.0, 8.0), ROTATED).shape == (8, 8)


class TestGreenOperator:
    def test_zero_bin_is_zero_matrix(self):
        grid = make_freq_grid((8, 8), (8.0, 8.0))
        gf = green_operator(grid, Lame(1.3, 0.7))
        assert np.all(gf.g[0, 0] == 0.0)

    def test_unit_axis_frequency(self):
        # xi = (1, 0) with lam0 = 0, mu0 = 0.5:
        # G1 = [[4,0,0],[0,0,0],[0,0,4]], G2 = -[[1,0,0],[0,0,0],[0,0,0]]
        # G = 0.5*G1 + 1*G2 = [[1,0,0],[0,0,0],[0,0,2]]
        grid = FreqGrid(np.array([[1.0]]), np.array([[0.0]]))
        gf = green_operator(grid, Lame(0.0, 0.5))
        assert_allclose(gf.g[0, 0], [[1, 0, 0], [0, 0, 0], [0, 0, 2]], atol=1e-14)

    def test_symmetry_every_frequency(self):
        grid = make_freq_grid((16, 16), (3.0, 5.0))
        gf = green_operator(grid, Lame(2.0, 1.5))
        assert_allclose(gf.g, np.swapaxes(gf.g, -1, -2), atol=1e-12)

    def test_even_in_frequency(self):
        grid = make_freq_grid((16, 16), (16.0, 16.0))
        gf = green_operator(grid, Lame(1.0, 2.0))
        # G(-xi) = G(xi): compare bin (i, j) against (-i, -j)
        flipped = np.roll(gf.g[::-1, ::-1], shift=(1, 1), axis=(0, 1))
        assert_allclose(gf.g, flipped, atol=1e-12)

    def test_real_field_stays_real(self):
        rng = np.random.default_rng(5)
        field = rng.standard_normal((17, 16, 3))
        for T in (16, 17):
            grid = make_freq_grid((T, 16), (float(T), 16.0))
            gf = green_operator(grid, Lame(1.0, 2.0))
            out = np.fft.ifft2(
                apply_green(gf.g, np.fft.fft2(field[:T], axes=(0, 1))), axes=(0, 1)
            )
            assert np.abs(out.imag).max() <= 1e-10 * np.abs(out.real).max()

    def test_degenerate_medium(self):
        grid = make_freq_grid((4, 4), (4.0, 4.0))
        with pytest.raises(DegenerateMediumError):
            green_operator(grid, Lame(-1.0, 0.5))


class TestApplyGreen:
    @pytest.mark.parametrize("layout", ["component-last", "component-major"])
    def test_matches_einsum_formula(self, layout):
        rng = np.random.default_rng(3)
        grid = make_freq_grid((12, 20), (6.0, 10.0))
        g = green_operator(grid, Lame(1.3, 0.7)).g
        field = rng.standard_normal((12, 20, 3)) + 1j * rng.standard_normal((12, 20, 3))
        want = np.einsum("...ij,...j->...i", g, field)
        want[..., 2] *= 0.5
        if layout == "component-last":
            g, field = np.ascontiguousarray(g), np.ascontiguousarray(field)
        else:
            field = np.ascontiguousarray(field.transpose(2, 0, 1)).transpose(1, 2, 0)
        got = apply_green(g, field)
        assert got.shape == (12, 20, 3)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        if layout == "component-major":
            assert got.transpose(2, 0, 1).flags.c_contiguous

    def test_halves_shear_component(self):
        g = np.zeros((1, 1, 3, 3))
        g[0, 0] = [[2.0, 0.0, 4.0], [0.0, 2.0, 4.0], [4.0, 4.0, 8.0]]
        out = apply_green(g, np.array([[[1.0, 1.0, 1.0]]]))
        # rows contract as stored; the shear output row carries the doubled
        # storage and is halved back to the tensorial component
        assert_allclose(out[0, 0], [6.0, 6.0, 8.0])


class TestReferenceMaterial:
    def test_homogeneous(self):
        lam = np.full((4, 4), 2.0)
        mu = np.full((4, 4), 0.7)
        ref = reference_material(lam, mu)
        assert ref.lam == 2.0 and ref.mu == 0.7

    def test_two_phase_midpoint(self):
        lam = np.array([1.0, 3.0, 3.0, 1.0])
        mu = np.array([0.5, 2.5, 0.5, 2.5])
        ref = reference_material(lam, mu)
        assert ref.lam == 2.0 and ref.mu == 1.5

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(1, 5, 50)
        mu = rng.uniform(0.2, 4, 50)
        perm = rng.permutation(50)
        a = reference_material(lam, mu)
        b = reference_material(lam[perm], mu[perm])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            reference_material(np.array([]), np.array([]))
