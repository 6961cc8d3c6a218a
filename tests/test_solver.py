"""Conjugate-gradient cell solver against a dense linear-system oracle and its contracts."""

import pickle
import tracemalloc

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
from microhom.homogenization import cell_operator, strain_concentration
from microhom.microstructure import assign_properties, generate_fiber_rve
from microhom.solver import SolverConfig, convergence_metric, solve_unit_load
from microhom.voigt import IsotropicProps, Lame, stiffness_from_enu, stiffness_from_lame


class TestHomogeneous:
    def test_one_iteration_exact(self):
        c = stiffness_from_enu(IsotropicProps(5.0, 0.3))
        c_field = np.broadcast_to(c, (32, 32, 3, 3)).copy()
        for macro in ([1.0, 0.0, 0.0], [0.2, -0.4, 0.9]):
            res = solve_unit_load(c_field, [macro], SolverConfig(), cell_operator(c_field))
            assert res.converged
            assert res.iterations == 1
            assert np.abs(res.strain[0] - np.asarray(macro)).max() <= 1e-12


class TestDenseOracle:
    @pytest.mark.parametrize("T", [16, 17], ids=["rotated", "odd"])
    @pytest.mark.parametrize("load", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    def test_16px_inclusion(self, T, load):
        # an even grid and an odd one, whose frequencies have no Nyquist bin
        c_field = disc_rve(T, 4, contrast=10.0)
        domain = (float(T),) * 2
        green = cell_operator(c_field, domain)
        res = solve_unit_load(c_field, [load], SolverConfig(tol=1e-10), green)
        oracle = dense_fixed_point_solution(c_field, load, domain)
        rel = np.linalg.norm(res.strain[0] - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6


def _operators(c_field, domain):
    grid = make_freq_grid(c_field.shape[:2], domain)
    return grid, green_operator(grid, reference_material(*lame_fields_from_stiffness(c_field)))


class TestComponentLastReference:
    """The component-major loop, one load at a time and as a lockstep stack,
    against the same iteration written over component-last fields; T1 != T2
    catches swapped axes."""

    @pytest.mark.parametrize("shape, radius", [((24, 40), 7), ((17, 16), 4)])
    def test_same_iterates(self, shape, radius):
        c_field = disc_rve(shape, radius, contrast=34.0)
        domain = (float(shape[0]), float(shape[1]))
        grid, green = _operators(c_field, domain)
        config = SolverConfig()
        stack = solve_unit_load(c_field, np.eye(3), config, green=green)
        for j, load in enumerate(np.eye(3)):
            ref = cg_solve_reference(c_field, load, config, grid, green)
            one = solve_unit_load(c_field, [load], config, green=green)
            assert one.iterations == ref.iterations
            for res, k in ((one, 0), (stack, j)):
                assert len(res.residual_history[k]) == ref.iterations
                assert_allclose(res.residual_history[k], ref.residual_history, rtol=1e-10)
                for got, want in ((res.strain[k], ref.strain), (res.stress[k], ref.stress)):
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestLockstep:
    """A stack of mean strains against one solve per load, bitwise."""

    @pytest.mark.parametrize(
        "shape, radius",
        [((16, 16), 4), ((17, 15), 4), ((24, 40), 7)],
        ids=["even", "odd", "T1!=T2"],
    )
    def test_stack_equals_separate_solves_bitwise(self, shape, radius):
        c_field = disc_rve(shape, radius, contrast=34.0)
        # a zero load rides along with no iterations of its own
        loads = np.array([[1.0, 0, 0], [0, 0, 1], [0, 0, 0], [0.3, -0.2, 0.5], [0, 1, 0]])
        config = SolverConfig(tol=1e-9)
        green = cell_operator(c_field)
        stack = solve_unit_load(c_field, loads, config, green, record_history=True)
        assert stack.strain.shape == stack.stress.shape == (5,) + shape + (3,)
        counts = []
        for j, load in enumerate(loads):
            one = solve_unit_load(c_field, [load], config, green, record_history=True)
            assert stack.strain[j].tobytes() == one.strain[0].tobytes()
            assert stack.stress[j].tobytes() == one.stress[0].tobytes()
            assert stack.residual_history[j] == one.residual_history[0]
            assert len(stack.residual_history[j]) == one.iterations
            if one.iterations:
                want = one.mean_strain_history[0].tobytes()
                assert stack.mean_strain_history[j].tobytes() == want
            counts.append(one.iterations)
        assert counts[2] == 0 and len(set(counts)) > 2
        assert stack.iterations == max(counts)

    def test_all_zero_stack(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        res = solve_unit_load(c_field, np.zeros((2, 3)), SolverConfig(), cell_operator(c_field))
        assert res.iterations == 0 and res.residual_history == [[], []]
        assert res.strain.shape == (2, 16, 16, 3) and not res.strain.any() and not res.stress.any()

    # one load is a one-row stack: a bare (3,) vector is refused too
    @pytest.mark.parametrize("bad", [np.ones((2, 4)), np.ones((2, 3, 1)), np.ones(3)])
    def test_rejects_other_shapes(self, bad):
        c_field = disc_rve(16, 4, contrast=10.0)
        with pytest.raises(DomainError, match=r"^macro strain must be an \(L, 3\) stack, got "):
            solve_unit_load(c_field, bad, SolverConfig(), cell_operator(c_field))


class TestLockstepFailures:
    """Real failures in a stack raise what a serial loop over its loads would."""

    @staticmethod
    def _indefinite_cell():
        # one pixel with lam = -1.5 mu: each load meets a non-positive
        # curvature, the load (1, 1, 0) after 5 iterations, (1, -1, 0) after 9
        c_field = disc_rve(16, 4, contrast=10.0)
        c_field[3, 3] = stiffness_from_lame(Lame(-1.5, 1.0))
        return c_field

    @staticmethod
    def _error(c_field, load, config):
        with pytest.raises(NonConvergenceError) as exc:
            solve_unit_load(c_field, load, config, cell_operator(c_field))
        return exc.value

    def test_a_higher_load_failing_first_does_not_pre_empt_a_lower_one(self):
        c_field, config = self._indefinite_cell(), SolverConfig(tol=1e-8)
        early, late = [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]
        want = self._error(c_field, [late], config)
        assert len(self._error(c_field, [early], config).history) < len(want.history)
        got = self._error(c_field, [late, early], config)
        assert got.load == 0 and str(got) == str(want) and "not positive definite" in str(got)
        assert got.history == want.history

    def test_a_failed_load_ends_the_loads_above_it(self, monkeypatch):
        c_field, config = self._indefinite_cell(), SolverConfig(tol=1e-8)
        early, late = [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]
        want = self._error(c_field, [early], config)
        calls = []
        inner = solver.apply_green

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver, "apply_green", counted)
        got = self._error(c_field, [early, late], config)
        assert got.load == 0 and str(got) == str(want) and got.history == want.history
        # the load above stopped with load 0: it ran no Green application after it
        assert len(calls) == len(want.history) + 1

    def test_loads_failing_in_the_same_iteration_raise_the_lowest(self):
        # a load and its double have iterates that differ by the exact factor
        # 2, so both meet the non-positive curvature in the same iteration
        c_field, config = self._indefinite_cell(), SolverConfig(tol=1e-8)
        double, single = [2.0, 2.0, 0.0], [1.0, 1.0, 0.0]
        want = self._error(c_field, [double], config)
        assert str(want) != str(self._error(c_field, [single], config))
        got = self._error(c_field, [double, single], config)
        assert got.load == 0 and str(got) == str(want) and got.history == want.history

    def test_the_cap_fails_the_lowest_unconverged_load(self):
        c_field = disc_rve((24, 40), 7, contrast=34.0)
        green = cell_operator(c_field)
        iterations = [
            solve_unit_load(c_field, [load], SolverConfig(tol=1e-9), green).iterations
            for load in np.eye(3)
        ]
        assert iterations[2] < iterations[1]  # the shear load converges first
        config = SolverConfig(tol=1e-9, max_iter=iterations[2])
        want = self._error(c_field, [[0, 1, 0]], config)
        got = self._error(c_field, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], config)
        assert got.load == 1 and str(got) == str(want) and got.history == want.history

    def test_non_finite_tol_fails_each_load_at_once(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        c_field[3, 3, 0, 0] = np.nan
        got = self._error(c_field, np.eye(3), SolverConfig())
        assert got.load == 0 and str(got).startswith("Tol = nan after 1 iterations")
        assert len(got.history) == 1 and not np.isfinite(got.history[0])


class TestCallCounts:
    def test_one_green_and_two_forward_ffts_per_iteration(self, monkeypatch):
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
        # one load at a time, then all three in lockstep: a stack's iterations
        # count lockstep iterations, each one Green application over the stack;
        # the inverse FFT runs as a forward one
        for load in [*np.eye(3)[:, None], np.eye(3)]:
            for key in calls:
                calls[key] = 0
            n = solve_unit_load(c_field, load, SolverConfig(), cell_operator(c_field)).iterations
            assert n > 1
            assert calls == {"fft2": 2 * n + 1, "ifft2": 0, "apply_green": n}


class TestUpdateDirection:
    """The adjoint stencils and in-place inverse FFT against the np.fft.ifft2
    form of z = -sym(D^T (x) eta) with shifts by np.roll."""

    @staticmethod
    def _both(shape, ratio):
        T1, T2 = shape
        rng = np.random.default_rng(sum(shape))
        packed = np.zeros((3, T1 + 1, T2 + 1), complex)
        packed[:, :-1, :-1] = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal(
            (3, *shape)
        )
        p = rng.standard_normal((3, 3, *shape))
        beta = np.array([0.0, 0.5, 2.0])
        # apply_green leaves conj(V); its forward FFT is conj(T1 T2 IFFT(V))
        eta = np.fft.ifft2(np.conj(packed[:, :-1, :-1])) * (T1 * T2)

        def d1t(x):  # 2 h1 D1^T = (I - S1^T S2^T) + (S2^T - S1^T)
            up = lambda a, b: np.roll(x, (-a, -b), axis=(-2, -1))  # noqa: E731
            return (x - up(1, 1)) + (up(0, 1) - up(1, 0)), (x - up(1, 1)) - (up(0, 1) - up(1, 0))

        (a1, b1), (a2, b2) = d1t(eta.real), d1t(eta.imag)
        expected = p * beta[:, None, None, None]
        expected -= np.stack([a1, ratio * b2, 0.5 * (a2 + ratio * b1)], axis=1)
        spare = np.empty((3, max(3 * T1 * T2, 2 * T1 * (T2 + 1))))
        solver._update_direction(p, beta, packed, np.zeros_like(packed), spare, ratio)
        return p, expected

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (256, 256)])
    def test_bitwise_on_power_of_two_grids(self, shape):
        p, expected = self._both(shape, 1.0)
        assert p.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(50, 50), (33, 48)])
    def test_round_off_elsewhere(self, shape):
        # the non-square grid with non-square pixels, h1 / h2 = 0.6
        p, expected = self._both(shape, 1.0 if shape[0] == shape[1] else 0.6)
        assert np.abs(p - expected).max() <= 1e-15 * np.abs(expected).max()


class TestWorkingSet:
    @pytest.fixture(scope="class")
    def cell128(self):
        domain = (50.0, 50.0)
        rve = generate_fiber_rve(0.6, 3.5, 0.01, domain, (128, 128), seed=3)
        c_field = assign_properties(rve, IsotropicProps(85.0, 0.2), IsotropicProps(2.5, 0.35))
        return c_field, domain, _operators(c_field, domain)

    @staticmethod
    def _peak_planes(cell128, loads):
        c_field, _, (_, green) = cell128
        tracemalloc.start()
        try:
            solve_unit_load(c_field, loads, SolverConfig(), green=green)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (128 * 128 * 8)

    def test_one_load_holds_at_most_14_real_planes(self, cell128):
        # strain, direction and one real scratch (9 planes), the padded packed
        # plane and complex scratch (4 and their pads): 13.7 measured; a
        # solve that copies the stiffness, keeps a spectral field or gives a
        # stencil or an FFT its own output exceeds 14
        assert self._peak_planes(cell128, [[1, 0, 0]]) <= 14

    def test_three_loads_in_lockstep_hold_at_most_46_real_planes(self, cell128):
        # 3 x 13.7, plus the copies of two loads' fields when a load leaves
        # the stack: 45.3 measured
        assert self._peak_planes(cell128, np.eye(3)) <= 46

    def test_green_operator_holds_four_real_planes(self, cell128):
        # two multiplier planes on the padded grid, where xi and N took ten
        green = cell128[2][1]
        assert green.iso.shape == (129, 129, 2) and green.iso.dtype == float
        assert green.dev.shape == (129, 129) and green.dev.dtype == complex


class TestSuppliedOperators:
    @pytest.mark.parametrize("which", ["grid", "green"])
    @pytest.mark.parametrize(
        "other_shape",
        # a (1, 16) operator would broadcast against the 17x16 field
        [pytest.param((1, 16), id="shape"), pytest.param((16, 17), id="transposed")],
    )
    def test_mismatch_rejected(self, which, other_shape):
        # the Green operator of another cell, or this cell's reference
        # medium on another cell's frequency grid
        c_field = disc_rve((17, 16), 4, contrast=10.0)
        grid, green = _operators(disc_rve(other_shape, 4, contrast=10.0), (17.0, 16.0))
        if which == "grid":
            green = green_operator(grid, reference_material(*lame_fields_from_stiffness(c_field)))
        with pytest.raises(DomainError, match="does not match"):
            solve_unit_load(c_field, [[1, 0, 0]], SolverConfig(), green=green)


def test_only_the_rotated_scheme_is_accepted():
    with pytest.raises(DomainError, match="unknown scheme"):
        SolverConfig(scheme="continuous")
    assert SolverConfig(scheme="rotated").scheme == "rotated"


class TestMeanFieldAndHistory:
    def test_mean_preserved_every_iteration(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        macro = [0.3, -0.1, 0.2]
        res = solve_unit_load(
            c_field, [macro], SolverConfig(tol=1e-8), cell_operator(c_field), record_history=True
        )
        assert res.mean_strain_history is not None
        dev = np.abs(res.mean_strain_history[0] - np.asarray(macro)).max()
        assert dev <= 1e-10

    def test_residual_trend(self):
        # allows local oscillation but catches divergence
        c_field = disc_rve(32, 8, contrast=25.0)
        res = solve_unit_load(c_field, [[1, 0, 0]], SolverConfig(tol=1e-9), cell_operator(c_field))
        h = res.residual_history[0]
        for n in range(len(h) - 10):
            assert h[n + 10] < h[n]

    def test_contrast_iteration_ordering(self):
        iters = []
        for contrast in (2.0, 10.0, 25.0):
            c_field = disc_rve(32, 8, contrast=contrast)
            res = solve_unit_load(c_field, [[1, 0, 0]], SolverConfig(), cell_operator(c_field))
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
            solve_unit_load(c_field, [[1, 0, 0]], SolverConfig(), cell_operator(c_field))
        assert len(exc.value.history) < 50

    def test_non_finite_tol_raises_at_once(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        c_field[3, 3, 0, 0] = np.nan
        with pytest.raises(NonConvergenceError, match="not finite") as exc:
            solve_unit_load(c_field, [[1, 0, 0]], SolverConfig(), cell_operator(c_field))
        assert len(exc.value.history) == 1 and not np.isfinite(exc.value.history[0])


class TestEdges:
    def test_zero_load_short_circuits(self):
        c_field = disc_rve(16, 4, contrast=10.0)
        res = solve_unit_load(c_field, [[0.0, 0.0, 0.0]], SolverConfig(), cell_operator(c_field))
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.strain == 0.0) and np.all(res.stress == 0.0)

    def test_nonconvergence_error_pickles_with_its_history(self):
        err = pickle.loads(pickle.dumps(NonConvergenceError("unit load 1: stalled", [1.0, 0.5], 1)))
        assert type(err) is NonConvergenceError
        assert str(err) == "unit load 1: stalled"
        assert err.history == [1.0, 0.5]
        assert err.load == 1

    def test_nonconvergence_carries_history(self):
        c_field = disc_rve(16, 4, contrast=25.0)
        with pytest.raises(NonConvergenceError) as exc:
            solve_unit_load(
                c_field, [[1, 0, 0]], SolverConfig(tol=1e-12, max_iter=3), cell_operator(c_field)
            )
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

    @pytest.mark.parametrize("domain", [(17.0, 16.0), (25.5, 16.0)], ids=["h1=h2", "h1!=h2"])
    def test_solver_helpers_recompute_its_tol(self, domain):
        # the last Tol, bitwise, from the returned stress and the solver's
        # own residual helper
        c_field = disc_rve((17, 16), 4, contrast=34.0)
        green = cell_operator(c_field, domain)
        res = solve_unit_load(c_field, [[0.3, -0.2, 0.5]], SolverConfig(), green)
        h1, h2 = domain[0] / 17, domain[1] / 16
        packed = np.zeros((1, 18, 17), complex)
        stress = np.ascontiguousarray(res.stress[0].transpose(2, 0, 1))[None]
        sq, mean_sq = solver._packed_residual(stress, packed, np.zeros_like(packed), h1 / h2)
        tol = np.sqrt(sq / ((2.0 * h1) ** 2 * 17 * 16 * mean_sq))[0]
        assert tol == res.residual_history[0][-1]

    def test_metric_recomputes_the_solvers_tol(self):
        # the spectral definition against the solver's packed residual: they
        # differ by round-off of ~5e-19 absolute, measured up to 1.3e-12 of
        # Tol at tol 1e-6 on these cells and loads
        c_field = disc_rve((17, 16), 4, contrast=34.0)
        for domain in [(17.0, 16.0), (25.5, 16.0)]:
            grid = make_freq_grid((17, 16), domain)
            for load in ([0.3, -0.2, 0.5], [1, 0, 0], [0, 0, 1]):
                green = cell_operator(c_field, domain)
                res = solve_unit_load(c_field, [load], SolverConfig(), green)
                stress_hat = np.fft.fft2(np.ascontiguousarray(res.stress[0].transpose(2, 0, 1)))
                tol = res.residual_history[0][-1]
                metric = convergence_metric(stress_hat.transpose(1, 2, 0), grid)
                assert abs(metric - tol) <= 2e-12 * tol

    @pytest.mark.parametrize("shape, domain", [
        ((16, 16), (16.0, 16.0)), ((17, 15), (17.0, 15.0)),
        ((12, 20), (12.0, 20.0)), ((12, 20), (6.0, 10.0)), ((12, 20), (9.0, 10.0)),
    ], ids=["even", "odd", "T1!=T2", "T1!=T2-h1=h2", "h1!=h2"])
    def test_packed_tol_equals_the_metric_on_random_fields(self, shape, domain):
        rng = np.random.default_rng(7)
        grid = make_freq_grid(shape, domain)
        stress = rng.standard_normal((1, 3) + shape) + np.array([2.0, 1.0, 0.3])[:, None, None]
        packed = np.zeros((1, shape[0] + 1, shape[1] + 1), complex)
        ratio = grid.h[0] / grid.h[1]
        sq, mean_sq = solver._packed_residual(stress, packed, np.zeros_like(packed), ratio)
        tol = np.sqrt(sq / ((2.0 * grid.h[0]) ** 2 * shape[0] * shape[1] * mean_sq))[0]
        want = convergence_metric(np.fft.fft2(stress[0]).transpose(1, 2, 0), grid)
        assert abs(tol - want) <= 1e-12 * want


class TestLaminateClosedForm:
    def test_shear_harmonic_mean(self):
        # two equal slabs normal to x: converged sigma12 must be uniform and
        # the effective shear response the harmonic mean of 2*mu
        T = 16
        grid = np.zeros((T, T), np.uint8)
        grid[: T // 2] = 1
        fiber, matrix = IsotropicProps(4.0, 0.0), IsotropicProps(1.0, 0.0)
        c_field = assign_properties(grid, fiber, matrix)
        res = solve_unit_load(
            c_field, [[0, 0, 1.0]], SolverConfig(tol=1e-12), cell_operator(c_field)
        )
        mu_f, mu_m = 2.0, 0.5  # E/(2(1+nu))
        harm = 2.0 / (0.5 / mu_f + 0.5 / mu_m) / 2.0
        assert_allclose(res.stress[0][..., 2], 2 * harm, rtol=1e-9)

    def test_normal_harmonic_mean(self):
        T = 16
        grid = np.zeros((T, T), np.uint8)
        grid[: T // 2] = 1
        fiber, matrix = IsotropicProps(10.0, 0.3), IsotropicProps(1.0, 0.2)
        c_field = assign_properties(grid, fiber, matrix)
        res = solve_unit_load(
            c_field, [[1.0, 0, 0]], SolverConfig(tol=1e-12), cell_operator(c_field)
        )
        # sigma11 uniform; effective (lam+2mu) is the harmonic mean
        beta = c_field[..., 0, 0]
        harm = 1.0 / np.mean(1.0 / beta)
        assert_allclose(res.stress[0][..., 0], harm, rtol=1e-9)
        assert_allclose(res.stress[0][..., 0].std(), 0.0, atol=1e-9)
