"""Frequency grids and the periodic Green operator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import _ref_apply_green, _ref_energy, green_matrices_reference

from microhom import solver
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
        assert make_freq_grid((8, 8), (8.0, 8.0), ROTATED).xi1.shape == (8, 8)


def _n_planes(gf):
    """(N11, N22, N12) per pixel, recovered from the two stored planes."""
    T1, T2 = gf.shape
    s = 1.0 / ((2.0 * gf.h[0]) ** 2 * T1 * T2)
    half_trace, dev = gf.iso[:-1, :-1, 0], gf.dev[:-1, :-1]
    return np.array([half_trace + dev.real, half_trace - dev.real, -dev.imag]) / s


def _operator_matrices(gf, grid):
    """(T1, T2, 3, 3) tensorial matrices of sym(xi (x) N (xi . s)) built from
    the stored planes: column b is the image of the unit stress e_b."""
    x1, x2 = grid.xi1, grid.xi2
    n11, n22, n12 = _n_planes(gf)
    cols = []
    for s11, s22, s12 in np.eye(3):
        r1, r2 = x1 * s11 + x2 * s12, x1 * s12 + x2 * s22
        d1, d2 = n11 * r1 + n12 * r2, n12 * r1 + n22 * r2
        cols.append([x1 * d1, x2 * d2, 0.5 * (x1 * d2 + x2 * d1)])
    return np.array(cols).transpose(2, 3, 1, 0)


def _reference_matrices(grid, lame0):
    """The nine-entry oracle as tensorial matrices: its third row halved."""
    return green_matrices_reference(grid, lame0) * np.array([1.0, 1.0, 0.5])[:, None]


def _packed_path(gf, grid, stress):
    """(z, energy, V): z = -IFFT(Gamma0 sigma_hat) of a real (T1, T2, 3)
    stress field in any memory order through the solver's packed residual,
    apply_green and the adjoint stencils, apply_green's energy, and the
    packed product it leaves."""
    T1, T2 = stress.shape[:2]
    ratio = grid.h[0] / grid.h[1]
    packed = np.zeros((1, T1 + 1, T2 + 1), complex)
    scratch = np.zeros_like(packed)
    solver._packed_residual(stress.transpose(2, 0, 1)[None], packed, scratch, ratio)
    energy = apply_green(gf, packed, scratch)[0]
    product = packed[0, :-1, :-1].copy()
    z = np.zeros((1, 3, T1, T2))
    spare = np.empty((1, max(3 * T1 * T2, 2 * T1 * (T2 + 1))))
    solver._update_direction(z, np.zeros(1), packed, scratch, spare, ratio)
    return z[0].transpose(1, 2, 0), energy, product


def _oracle(grid, lame0, stress):
    """-IFFT(Gamma0 sigma_hat) by the nine-entry matrices, and its spectrum."""
    g = green_matrices_reference(grid, lame0)
    gs_hat = _ref_apply_green(g, np.fft.fft2(stress, axes=(0, 1)))
    return -np.fft.ifft2(gs_hat, axes=(0, 1)), gs_hat


GRIDS = [
    pytest.param((16, 16), (16.0, 16.0), id="even"),
    pytest.param((17, 15), (17.0, 15.0), id="odd"),
    pytest.param((12, 20), (6.0, 10.0), id="T1!=T2"),
    pytest.param((12, 20), (9.0, 10.0), id="h1!=h2"),
]


class TestGreenOperator:
    def test_zero_bin_is_zero_matrix(self):
        # DC, and the Nyquist corner of an even grid, where |xi| == 0; the
        # padding is zero too
        grid = make_freq_grid((8, 6), (8.0, 6.0))
        gf = green_operator(grid, Lame(1.3, 0.7))
        planes = np.concatenate([gf.iso, gf.dev.view(float).reshape(9, 7, 2)], axis=-1)
        for bin_ in [(0, 0), (4, 3)]:
            assert np.all(planes[bin_] == 0.0)
        assert np.all(planes[-1] == 0.0) and np.all(planes[:, -1] == 0.0)
        assert np.count_nonzero(np.all(planes[:-1, :-1] == 0.0, axis=-1)) == 2

    def test_unit_axis_frequency(self):
        # xi = (1, 0) with lam0 = 0, mu0 = 0.5: K0 = diag(1, 0.5), N = diag(1, 2),
        # and the operator's tensorial matrix is [[1,0,0],[0,0,0],[0,0,1]]
        # (the doubled Voigt storage [[1,0,0],[0,0,0],[0,0,2]] with its shear row halved)
        grid = FreqGrid(np.array([[1.0]]), np.array([[0.0]]), (1.0, 1.0))
        gf = green_operator(grid, Lame(0.0, 0.5))
        assert_allclose(_n_planes(gf)[:, 0, 0], [1, 2, 0], atol=1e-14)
        want = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
        assert_allclose(_operator_matrices(gf, grid)[0, 0], want, atol=1e-14)

    def test_symmetry_every_frequency(self):
        # self-adjoint for the contraction a:b, i.e. diag(1, 1, 2) M is symmetric;
        # iso scales real and imaginary parts alike
        grid = make_freq_grid((16, 16), (3.0, 5.0))
        gf = green_operator(grid, Lame(2.0, 1.5))
        wm = _operator_matrices(gf, grid) * np.array([1.0, 1.0, 2.0])[:, None]
        assert_allclose(wm, np.swapaxes(wm, -1, -2), atol=1e-12)
        assert np.all(gf.iso[..., 0] == gf.iso[..., 1])

    def test_even_in_frequency(self):
        grid = make_freq_grid((16, 16), (16.0, 16.0))
        gf = green_operator(grid, Lame(1.0, 2.0))
        # N(-xi) = N(xi): compare bin (i, j) against (-i, -j)
        n = _n_planes(gf)
        flipped = np.roll(n[:, ::-1, ::-1], shift=(1, 1), axis=(1, 2))
        assert_allclose(n, flipped, atol=1e-12)

    def test_real_field_stays_real(self):
        # a real stress field's Green product is a real strain field: the
        # oracle's inverse is real to round-off, and the packed path's real
        # result matches it
        rng = np.random.default_rng(5)
        field = rng.standard_normal((17, 16, 3))
        for T in (16, 17):
            grid = make_freq_grid((T, 16), (float(T), 16.0))
            gf = green_operator(grid, Lame(1.0, 2.0))
            want = _oracle(grid, gf.lame0, field[:T])[0]
            scale = np.abs(want).max()
            assert np.abs(want.imag).max() <= 1e-10 * scale
            z = _packed_path(gf, grid, field[:T])[0]
            assert np.abs(z - want.real).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape, domain", GRIDS)
    def test_matches_the_nine_entry_operator(self, shape, domain):
        grid = make_freq_grid(shape, domain)
        lame0 = Lame(1.3, 0.7)
        got = _operator_matrices(green_operator(grid, lame0), grid)
        want = _reference_matrices(grid, lame0)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_planes_are_read_only(self):
        gf = green_operator(make_freq_grid((8, 8), (8.0, 8.0)), Lame(1.3, 0.7))
        for plane in (gf.iso, gf.dev):
            with pytest.raises(ValueError, match="read-only"):
                plane[0, 0] = 1.0

    def test_degenerate_medium(self):
        grid = make_freq_grid((4, 4), (4.0, 4.0))
        with pytest.raises(DegenerateMediumError):
            green_operator(grid, Lame(-1.0, 0.5))


class TestApplyGreen:
    @pytest.mark.parametrize("layout", ["component-last", "component-major"])
    def test_matches_einsum_formula(self, layout):
        # the packed path on a real stress field in either memory order
        # against the nine-entry einsum of the oracle
        rng = np.random.default_rng(3)
        grid = make_freq_grid((12, 20), (6.0, 10.0))
        gf = green_operator(grid, Lame(1.3, 0.7))
        stress = rng.standard_normal((12, 20, 3))
        want = _oracle(grid, gf.lame0, stress)[0].real
        if layout == "component-major":
            stress = np.ascontiguousarray(stress.transpose(2, 0, 1)).transpose(1, 2, 0)
        got = _packed_path(gf, grid, stress)[0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shape, domain", GRIDS)
    def test_against_the_oracle_with_exact_zeros(self, shape, domain):
        rng = np.random.default_rng(4)
        grid = make_freq_grid(shape, domain)
        gf = green_operator(grid, Lame(2.0, 0.9))
        stress = rng.standard_normal(shape + (3,)) + [2.0, 1.0, 0.3]
        z, energy, product = _packed_path(gf, grid, stress)
        want, gs_hat = _oracle(grid, gf.lame0, stress)
        assert np.abs(z - want.real).max() <= 1e-12 * np.abs(want).max()
        zeros = [(0, 0)]
        if shape[0] % 2 == shape[1] % 2 == 0:
            zeros.append((shape[0] // 2, shape[1] // 2))  # the Nyquist corner
        for bin_ in zeros:
            assert product[bin_] == 0.0
        # the stored N inverts K0 away from the zero bins
        lam0, mu0 = gf.lame0.lam, gf.lame0.mu
        x1, x2 = grid.xi1, grid.xi2
        n11, n22, n12 = _n_planes(gf)
        nsq = x1 * x1 + x2 * x2
        k11, k22 = mu0 * nsq + (lam0 + mu0) * x1 * x1, mu0 * nsq + (lam0 + mu0) * x2 * x2
        k12 = (lam0 + mu0) * x1 * x2
        identity = [k11 * n11 + k12 * n12, k12 * n12 + k22 * n22, k11 * n12 + k12 * n22]
        nonzero = nsq > 0
        for got, want_entry in zip(identity, [1.0, 1.0, 0.0]):
            assert np.abs(got[nonzero] - want_entry).max() <= 1e-12
        # apply_green's energy is the pixel sum of z : C0 : z
        ref = _ref_energy(gs_hat, gf.lame0)
        assert abs(energy - ref) <= 1e-12 * abs(ref)

    def test_halves_shear_component(self):
        # a pure shear stress field: the strain's shear is the tensorial
        # component, half the oracle's doubled Voigt row
        rng = np.random.default_rng(8)
        grid = make_freq_grid((16, 12), (16.0, 12.0))
        gf = green_operator(grid, Lame(0.0, 0.5))
        stress = np.zeros((16, 12, 3))
        stress[..., 2] = rng.standard_normal((16, 12))
        z = _packed_path(gf, grid, stress)[0]
        g = green_matrices_reference(grid, gf.lame0)
        gs_hat = np.einsum("xyij,xyj->xyi", g, np.fft.fft2(stress, axes=(0, 1)))
        voigt = -np.fft.ifft2(gs_hat, axes=(0, 1)).real
        scale = np.abs(voigt).max()
        assert np.abs(z[..., 2] - 0.5 * voigt[..., 2]).max() <= 1e-12 * scale
        assert np.abs(z[..., :2] - voigt[..., :2]).max() <= 1e-12 * scale

    def test_a_stack_is_each_field_bitwise(self):
        rng = np.random.default_rng(6)
        grid = make_freq_grid((17, 16), (17.0, 16.0))
        gf = green_operator(grid, Lame(1.3, 0.7))
        packed = rng.standard_normal((3, 18, 17)) + 1j * rng.standard_normal((3, 18, 17))
        stack = packed.copy()
        energies = apply_green(gf, stack, np.zeros_like(stack))
        for k in range(3):
            one = packed[k : k + 1].copy()
            assert apply_green(gf, one, np.zeros_like(one))[0] == energies[k]
            assert one[:, :-1, :-1].tobytes() == stack[k : k + 1, :-1, :-1].tobytes()


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
