"""Conjugate-gradient cell solver against a dense linear-system oracle and its contracts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import cg_solve_reference, dense_fixed_point_solution, disc_rve

from microhom import solver
from microhom.errors import DomainError, NonConvergenceError, ZeroMeanStressError
from microhom.green import (
    green_operator,
    lame_fields_from_stiffness,
    make_freq_grid,
    reference_material,
)
from microhom.homogenization import strain_concentration
from microhom.microstructure import assign_properties, generate_fiber_rve
from microhom.solver import SolverConfig, convergence_metric, solve_unit_load
from microhom.voigt import IsotropicProps, Lame, stiffness_from_enu, stiffness_from_lame


class TestHomogeneous:
    def test_one_iteration_exact(self):
        c = stiffness_from_enu(IsotropicProps(5.0, 0.3))
        c_field = np.broadcast_to(c, (32, 32, 3, 3)).copy()
        for macro in ([1.0, 0.0, 0.0], [0.2, -0.4, 0.9]):
            res = solve_unit_load(c_field, macro, SolverConfig())
            assert res.converged
            assert res.iterations == 1
            assert np.abs(res.strain - np.asarray(macro)).max() <= 1e-12


class TestDenseOracle:
    @pytest.mark.parametrize("T", [16, 17], ids=["rotated", "odd"])
    @pytest.mark.parametrize("load", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    def test_16px_inclusion(self, T, load):
        # an even grid and an odd one, whose frequencies have no Nyquist bin
        c_field = disc_rve(T, 4, contrast=10.0)
        res = solve_unit_load(c_field, load, SolverConfig(tol=1e-10), domain=(float(T),) * 2)
        oracle = dense_fixed_point_solution(c_field, load, (float(T),) * 2)
        rel = np.linalg.norm(res.strain - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6


def _operators(c_field, domain):
    grid = make_freq_grid(c_field.shape[:2], domain)
    return grid, green_operator(grid, reference_material(*lame_fields_from_stiffness(c_field)))


class TestComponentLastReference:
    """The component-major loop against the same iteration written over
    component-last fields; T1 != T2 catches swapped axes."""

    @pytest.mark.parametrize("shape, radius", [((24, 40), 7), ((17, 16), 4)])
    def test_same_iterates(self, shape, radius):
        c_field = disc_rve(shape, radius, contrast=34.0)
        domain = (float(shape[0]), float(shape[1]))
        grid, green = _operators(c_field, domain)
        config = SolverConfig()
        for load in np.eye(3):
            res = solve_unit_load(c_field, load, config, domain=domain, grid=grid, green=green)
            ref = cg_solve_reference(c_field, load, config, grid, green)
            assert res.iterations == ref.iterations
            assert_allclose(res.residual_history, ref.residual_history, rtol=1e-10)
            for got, want in ((res.strain, ref.strain), (res.stress, ref.stress)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestCallCounts:
    def test_one_green_one_inverse_one_forward_fft_per_iteration(self, monkeypatch):
        calls = {"fft2": 0, "ifft2": 0, "apply_green": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(np.fft, "fft2")
        counted(np.fft, "ifft2")
        counted(solver, "apply_green")
        c_field = disc_rve(16, 4, contrast=10.0)
        for load in np.eye(3):
            for key in calls:
                calls[key] = 0
            n = solve_unit_load(c_field, load, SolverConfig()).iterations
            assert n > 1
            assert calls == {"fft2": n + 1, "ifft2": n, "apply_green": n}


class TestSuppliedOperators:
    @pytest.mark.parametrize("which", ["grid", "green"])
    @pytest.mark.parametrize(
        "other_shape",
        # a (1, 16) operator would broadcast against the 17x16 field
        [pytest.param((1, 16), id="shape"), pytest.param((16, 17), id="transposed")],
    )
    def test_mismatch_rejected(self, which, other_shape):
        c_field = disc_rve((17, 16), 4, contrast=10.0)
        domain = (17.0, 16.0)
        other = _operators(disc_rve(other_shape, 4, contrast=10.0), tuple(map(float, other_shape)))
        ops = dict(zip(("grid", "green"), _operators(c_field, domain)))
        ops[which] = dict(zip(("grid", "green"), other))[which]
        with pytest.raises(DomainError, match="does not match"):
            solve_unit_load(c_field, [1, 0, 0], SolverConfig(), domain=domain, **ops)


def test_only_the_rotated_scheme_is_accepted():
    with pytest.raises(DomainError, match="unknown scheme"):
        SolverConfig(scheme="continuous")
    assert SolverConfig(scheme="rotated").scheme == "rotated"


class TestMeanFieldAndHistory:
    def test_mean_preserved_every_iteration(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        macro = [0.3, -0.1, 0.2]
        res = solve_unit_load(c_field, macro, SolverConfig(record_history=True, tol=1e-8))
        assert res.mean_strain_history is not None
        dev = np.abs(res.mean_strain_history - np.asarray(macro)).max()
        assert dev <= 1e-10

    def test_residual_trend(self):
        # allows local oscillation but catches divergence
        c_field = disc_rve(32, 8, contrast=25.0)
        res = solve_unit_load(c_field, [1, 0, 0], SolverConfig(tol=1e-9))
        h = res.residual_history
        for n in range(len(h) - 10):
            assert h[n + 10] < h[n]

    def test_contrast_iteration_ordering(self):
        iters = []
        for contrast in (2.0, 10.0, 25.0):
            c_field = disc_rve(32, 8, contrast=contrast)
            res = solve_unit_load(c_field, [1, 0, 0], SolverConfig())
            iters.append(res.iterations)
        assert iters[0] <= iters[1] <= iters[2]


class TestIterationBudget:
    def test_contrast_34_cell_within_45_iterations(self):
        # the criterion-3 cell; the basic fixed point needed 117-123 per load
        domain = (50.0, 50.0)
        rve = generate_fiber_rve(0.6, 3.5, 0.01, domain, (128, 128), seed=3)
        c_field = assign_properties(rve, IsotropicProps(85.0, 0.2), IsotropicProps(2.5, 0.35))
        conc = strain_concentration(c_field, SolverConfig(tol=1e-6), domain=domain)
        assert all(load["iterations"] <= 45 for load in conc.metadata["loads"])

    def test_reaches_1e_13(self):
        # the curvature <z, C0:z> is taken on the spectrum as a sum of squares;
        # as the real-space product -<sigma, z> it loses the digits below ~1e-10
        domain = (50.0, 50.0)
        rve = generate_fiber_rve(0.45, 5.0, 0.01, domain, (48, 48), seed=12)
        c_field = assign_properties(rve, IsotropicProps(40.0, 0.3986), IsotropicProps(4.35, 0.39))
        conc = strain_concentration(c_field, SolverConfig(tol=1e-13, max_iter=200), domain=domain)
        assert all(load["residual"] <= 1e-13 for load in conc.metadata["loads"])


class TestFailFast:
    def test_indefinite_pixel_raises_at_once(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        c_field[3, 3] = stiffness_from_lame(Lame(-3.0, 1.0))
        with pytest.raises(NonConvergenceError, match="not positive definite") as exc:
            solve_unit_load(c_field, [1, 0, 0], SolverConfig())
        assert len(exc.value.history) < 50

    def test_non_finite_tol_raises_at_once(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        c_field[3, 3, 0, 0] = np.nan
        with pytest.raises(NonConvergenceError, match="not finite") as exc:
            solve_unit_load(c_field, [1, 0, 0], SolverConfig())
        assert len(exc.value.history) == 1 and not np.isfinite(exc.value.history[0])


class TestEdges:
    def test_zero_load_short_circuits(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        res = solve_unit_load(c_field, [0.0, 0.0, 0.0], SolverConfig())
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.strain == 0.0) and np.all(res.stress == 0.0)

    def test_nonconvergence_carries_history(self):
        c_field = disc_rve(16, 4, contrast=25.0)
        with pytest.raises(NonConvergenceError) as exc:
            solve_unit_load(c_field, [1, 0, 0], SolverConfig(tol=1e-12, max_iter=3))
        assert len(exc.value.history) == 3

    def test_metric_rejects_zero_mean_stress(self):
        grid = make_freq_grid((8, 8), (8.0, 8.0))
        stress_hat = np.zeros((8, 8, 3), dtype=complex)
        stress_hat[1, 2] = [1.0, 0.5, 0.1]  # fluctuation only, no mean
        with pytest.raises(ZeroMeanStressError):
            convergence_metric(stress_hat, grid)

    def test_metric_independent_of_memory_order(self):
        # the component-last spectrum of a plain fft2 call and the
        # component-major one of the solver give the same Tol
        rng = np.random.default_rng(2)
        grid = make_freq_grid((12, 20), (6.0, 10.0))
        sigma = rng.standard_normal((12, 20, 3)) + [2.0, 1.0, 0.3]
        plain = convergence_metric(np.fft.fft2(sigma, axes=(0, 1)), grid)
        major = np.fft.fft2(np.ascontiguousarray(sigma.transpose(2, 0, 1))).transpose(1, 2, 0)
        assert abs(convergence_metric(major, grid) - plain) <= 1e-14 * plain

    def test_metric_zero_for_uniform_stress(self):
        grid = make_freq_grid((8, 8), (8.0, 8.0))
        stress = np.broadcast_to([2.0, 1.0, 0.3], (8, 8, 3))
        stress_hat = np.fft.fft2(stress, axes=(0, 1))
        assert convergence_metric(stress_hat, grid) <= 1e-14


class TestLaminateClosedForm:
    def test_shear_harmonic_mean(self):
        # two equal slabs normal to x: converged sigma12 must be uniform and
        # the effective shear response the harmonic mean of 2*mu
        T = 16
        grid = np.zeros((T, T), np.uint8)
        grid[: T // 2] = 1
        fiber, matrix = IsotropicProps(4.0, 0.0), IsotropicProps(1.0, 0.0)
        c_field = assign_properties(grid, fiber, matrix)
        res = solve_unit_load(c_field, [0, 0, 1.0], SolverConfig(tol=1e-12))
        mu_f, mu_m = 2.0, 0.5  # E/(2(1+nu))
        harm = 2.0 / (0.5 / mu_f + 0.5 / mu_m) / 2.0
        assert_allclose(res.stress[..., 2], 2 * harm, rtol=1e-9)

    def test_normal_harmonic_mean(self):
        T = 16
        grid = np.zeros((T, T), np.uint8)
        grid[: T // 2] = 1
        fiber, matrix = IsotropicProps(10.0, 0.3), IsotropicProps(1.0, 0.2)
        c_field = assign_properties(grid, fiber, matrix)
        res = solve_unit_load(c_field, [1.0, 0, 0], SolverConfig(tol=1e-12))
        # sigma11 uniform; effective (lam+2mu) is the harmonic mean
        beta = c_field[..., 0, 0]
        harm = 1.0 / np.mean(1.0 / beta)
        assert_allclose(res.stress[..., 0], harm, rtol=1e-9)
        assert_allclose(res.stress[..., 0].std(), 0.0, atol=1e-9)
