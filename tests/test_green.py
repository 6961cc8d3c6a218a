"""Frequency grids and the periodic Green operator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import _ref_apply_green, _ref_energy, green_matrices_reference

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
from microhom.solver import _balance_residual
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


def _operator_matrices(gf):
    """(T1, T2, 3, 3) tensorial matrices of sym(xi (x) N (xi . s)) built from
    the stored planes: column b is the image of the unit stress e_b."""
    x1, x2 = gf.xi.real
    n11, n22, n12 = gf.n.real
    cols = []
    for s11, s22, s12 in np.eye(3):
        r1, r2 = x1 * s11 + x2 * s12, x1 * s12 + x2 * s22
        d1, d2 = n11 * r1 + n12 * r2, n12 * r1 + n22 * r2
        cols.append([x1 * d1, x2 * d2, 0.5 * (x1 * d2 + x2 * d1)])
    return np.array(cols).transpose(2, 3, 1, 0)


def _reference_matrices(grid, lame0):
    """The nine-entry oracle as tensorial matrices: its third row halved."""
    return green_matrices_reference(grid, lame0) * np.array([1.0, 1.0, 0.5])[:, None]


def _packed(gs_hat):
    """A component-last Green product packed as apply_green writes it."""
    return np.array([gs_hat[..., 0] + 1j * gs_hat[..., 1], gs_hat[..., 2]])


def _applied(gf, grid, stress_hat):
    """apply_green on a (T1, T2, 3) spectrum in any memory order: (packed, d, energy)."""
    s = stress_hat.transpose(2, 0, 1)[None]
    residual = np.empty((1, 2) + s.shape[2:], complex)
    _balance_residual(grid.xi1, grid.xi2, s, residual, np.empty_like(residual))
    r = residual.copy()
    d = np.empty_like(residual)
    energy = apply_green(gf, residual, d=d)
    return residual[0], d[0], r[0], energy[0]


GRIDS = [
    pytest.param((16, 16), (16.0, 16.0), id="even"),
    pytest.param((17, 15), (17.0, 15.0), id="odd"),
    pytest.param((12, 20), (6.0, 10.0), id="T1!=T2"),
]


class TestGreenOperator:
    def test_zero_bin_is_zero_matrix(self):
        # DC, and the Nyquist corner of an even grid, where |xi| == 0
        grid = make_freq_grid((8, 6), (8.0, 6.0))
        gf = green_operator(grid, Lame(1.3, 0.7))
        for bin_ in [(0, 0), (4, 3)]:
            assert np.all(gf.n[(slice(None),) + bin_] == 0.0)
        assert np.count_nonzero(np.all(gf.n == 0.0, axis=0)) == 2

    def test_unit_axis_frequency(self):
        # xi = (1, 0) with lam0 = 0, mu0 = 0.5: K0 = diag(1, 0.5), N = diag(1, 2),
        # and the operator's tensorial matrix is [[1,0,0],[0,0,0],[0,0,1]]
        # (the doubled Voigt storage [[1,0,0],[0,0,0],[0,0,2]] with its shear row halved)
        grid = FreqGrid(np.array([[1.0]]), np.array([[0.0]]))
        gf = green_operator(grid, Lame(0.0, 0.5))
        assert_allclose(gf.n[:, 0, 0], [1, 2, 0], atol=1e-14)
        assert_allclose(_operator_matrices(gf)[0, 0], [[1, 0, 0], [0, 0, 0], [0, 0, 1]], atol=1e-14)

    def test_symmetry_every_frequency(self):
        # self-adjoint for the contraction a:b, i.e. diag(1, 1, 2) M is symmetric
        grid = make_freq_grid((16, 16), (3.0, 5.0))
        gf = green_operator(grid, Lame(2.0, 1.5))
        wm = _operator_matrices(gf) * np.array([1.0, 1.0, 2.0])[:, None]
        assert_allclose(wm, np.swapaxes(wm, -1, -2), atol=1e-12)
        assert np.all(gf.xi.imag == 0.0) and np.all(gf.n.imag == 0.0)

    def test_even_in_frequency(self):
        grid = make_freq_grid((16, 16), (16.0, 16.0))
        gf = green_operator(grid, Lame(1.0, 2.0))
        # N(-xi) = N(xi): compare bin (i, j) against (-i, -j)
        flipped = np.roll(gf.n[:, ::-1, ::-1], shift=(1, 1), axis=(1, 2))
        assert_allclose(gf.n, flipped, atol=1e-12)

    def test_real_field_stays_real(self):
        # a real stress field's Green product is Hermitian: the packed inverse
        # holds two real fields and the shear plane's inverse is real
        rng = np.random.default_rng(5)
        field = rng.standard_normal((17, 16, 3))
        for T in (16, 17):
            grid = make_freq_grid((T, 16), (float(T), 16.0))
            gf = green_operator(grid, Lame(1.0, 2.0))
            stress_hat = np.fft.fft2(field[:T], axes=(0, 1))
            packed = _applied(gf, grid, stress_hat)[0]
            shear = np.fft.ifft2(packed[1])
            assert np.abs(shear.imag).max() <= 1e-10 * np.abs(shear.real).max()
            g = green_matrices_reference(grid, gf.lame0)
            want = np.fft.ifft2(_ref_apply_green(g, stress_hat), axes=(0, 1))
            got = np.fft.ifft2(packed[0])
            scale = np.abs(want).max()
            assert np.abs(got.real - want[..., 0].real).max() <= 1e-12 * scale
            assert np.abs(got.imag - want[..., 1].real).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape, domain", GRIDS)
    def test_matches_the_nine_entry_operator(self, shape, domain):
        grid = make_freq_grid(shape, domain)
        lame0 = Lame(1.3, 0.7)
        got = _operator_matrices(green_operator(grid, lame0))
        want = _reference_matrices(grid, lame0)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_degenerate_medium(self):
        grid = make_freq_grid((4, 4), (4.0, 4.0))
        with pytest.raises(DegenerateMediumError):
            green_operator(grid, Lame(-1.0, 0.5))


class TestApplyGreen:
    @pytest.mark.parametrize("layout", ["component-last", "component-major"])
    def test_matches_einsum_formula(self, layout):
        # the acoustic form against the nine-entry einsum of the oracle
        rng = np.random.default_rng(3)
        grid = make_freq_grid((12, 20), (6.0, 10.0))
        gf = green_operator(grid, Lame(1.3, 0.7))
        stress_hat = rng.standard_normal((12, 20, 3)) + 1j * rng.standard_normal((12, 20, 3))
        want = _packed(_ref_apply_green(green_matrices_reference(grid, gf.lame0), stress_hat))
        if layout == "component-major":
            stress_hat = np.ascontiguousarray(stress_hat.transpose(2, 0, 1)).transpose(1, 2, 0)
        got = _applied(gf, grid, stress_hat)[0]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("shape, domain", GRIDS)
    def test_against_the_oracle_with_exact_zeros(self, shape, domain):
        rng = np.random.default_rng(4)
        grid = make_freq_grid(shape, domain)
        gf = green_operator(grid, Lame(2.0, 0.9))
        stress_hat = rng.standard_normal(shape + (3,)) + 1j * rng.standard_normal(shape + (3,))
        packed, d, r, energy = _applied(gf, grid, stress_hat)
        gs_hat = _ref_apply_green(green_matrices_reference(grid, gf.lame0), stress_hat)
        want = _packed(gs_hat)
        assert np.abs(packed - want).max() <= 1e-14 * np.abs(want).max()
        zeros = [(0, 0)]
        if shape[0] % 2 == shape[1] % 2 == 0:
            zeros.append((shape[0] // 2, shape[1] // 2))  # the Nyquist corner
        for bin_ in zeros:
            assert np.all(packed[(slice(None),) + bin_] == 0.0)
            assert np.all(d[(slice(None),) + bin_] == 0.0)
        # d = N r solves K0 d = r away from the zero bins
        lam0, mu0 = gf.lame0.lam, gf.lame0.mu
        x = np.array([grid.xi1, grid.xi2])
        k0d = mu0 * (x * x).sum(0) * d + (lam0 + mu0) * x * (x * d).sum(0)
        nonzero = (x * x).sum(0) > 0
        assert np.abs((k0d - r)[:, nonzero]).max() <= 1e-12 * np.abs(r).max()
        # sum Re(conj(d) . r) is T1 T2 times the pixel sum of z : C0 : z
        ref = _ref_energy(gs_hat, gf.lame0)
        assert abs(energy / (shape[0] * shape[1]) - ref) <= 1e-12 * abs(ref)

    def test_halves_shear_component(self):
        # xi = (1, 0), lam0 = 0, mu0 = 0.5: the stored-matrix product of the
        # tensorial stress (1, 1, 1) is (1, 0, 2), whose doubled shear is
        # halved back to the tensorial component 1
        grid = FreqGrid(np.array([[1.0]]), np.array([[0.0]]))
        gf = green_operator(grid, Lame(0.0, 0.5))
        packed = _applied(gf, grid, np.array([[[1.0, 1.0, 1.0]]], complex))[0]
        assert_allclose(packed[:, 0, 0], [1.0, 1.0])

    def test_a_stack_is_each_field_bitwise(self):
        rng = np.random.default_rng(6)
        grid = make_freq_grid((17, 16), (17.0, 16.0))
        gf = green_operator(grid, Lame(1.3, 0.7))
        residual = rng.standard_normal((3, 2, 17, 16)) + 1j * rng.standard_normal((3, 2, 17, 16))
        stack = residual.copy()
        energies = apply_green(gf, stack)
        for k in range(3):
            one = residual[k : k + 1].copy()
            assert apply_green(gf, one)[0] == energies[k]
            assert one.tobytes() == stack[k : k + 1].tobytes()


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
