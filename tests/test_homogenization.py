"""Concentration tensors, homogenized stiffness, and effective bounds."""

import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from microhom import homogenization
from microhom.errors import NonConvergenceError
from microhom.homogenization import (
    ASYMMETRY_CEILING,
    ASYMMETRY_FACTOR,
    UNIT_LOADS,
    ConcentrationField,
    _lane_count,
    anisotropy_indicator,
    cell_operator,
    homogenized_stiffness,
    reconstruct_strain,
    reuss_voigt_bounds,
    strain_concentration,
)
from microhom.microstructure import assign_properties, generate_fiber_rve
from microhom.solver import SolverConfig, solve_unit_load
from microhom.voigt import IsotropicProps, effective_enu, stiffness_from_enu

DOMAIN = (50.0, 50.0)


@pytest.fixture(scope="module")
def two_phase():
    rve = generate_fiber_rve(0.45, 5.0, 0.01, DOMAIN, (48, 48), seed=12)
    c_field = assign_properties(
        rve, IsotropicProps(40.0, 0.3986), IsotropicProps(4.35, 0.39)
    )
    conc = strain_concentration(c_field, SolverConfig(tol=1e-11), domain=DOMAIN)
    return c_field, conc


@pytest.fixture(scope="module")
def cell32():
    rve = generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, (32, 32), seed=2)
    return assign_properties(rve, IsotropicProps(85.0, 0.2), IsotropicProps(2.5, 0.35))


class TestStrainConcentration:
    def test_homogeneous_identity(self):
        c = stiffness_from_enu(IsotropicProps(7.0, 0.25))
        c_field = np.broadcast_to(c, (32, 32, 3, 3)).copy()
        conc = strain_concentration(c_field, SolverConfig())
        dev = np.abs(conc.a - np.eye(3)).max()
        assert dev <= 1e-10
        assert all(load["iterations"] == 1 for load in conc.metadata["loads"])

    def test_superposition(self, two_phase):
        c_field, conc = two_phase
        macro = np.array([0.3, -0.1, 0.2])
        green = cell_operator(c_field, DOMAIN)
        direct = solve_unit_load(c_field, macro, SolverConfig(tol=1e-11), green)
        rebuilt = reconstruct_strain(conc, macro)
        rel = np.linalg.norm(rebuilt - direct.strain) / np.linalg.norm(direct.strain)
        assert rel <= 1e-8

    def test_mean_is_identity(self, two_phase):
        _, conc = two_phase
        assert np.abs(conc.a.mean(axis=(0, 1)) - np.eye(3)).max() <= 1e-8

    def test_one_lane_solves_the_loads_in_one_lockstep_call(self, cell32, monkeypatch):
        stacks = []
        inner = homogenization.solve_unit_load

        def recorded(c_field, macro_strain, *args, **kwargs):
            stacks.append(np.array(macro_strain))
            return inner(c_field, macro_strain, *args, **kwargs)

        monkeypatch.setattr(homogenization, "solve_unit_load", recorded)
        conc = strain_concentration(cell32, SolverConfig(), domain=DOMAIN)
        assert len(stacks) == 1 and np.array_equal(stacks[0], np.eye(3))
        for j, load in enumerate(np.eye(3)):
            one = inner(cell32, load, SolverConfig(), cell_operator(cell32, DOMAIN))
            assert conc.a[..., :, j].tobytes() == one.strain.tobytes()
            assert conc.metadata["loads"][j]["iterations"] == one.iterations

    def test_lockstep_failure_names_its_unit_load(self, cell32):
        # a real failure: an indefinite pixel stops every load on a
        # non-positive curvature; the error is unit load 0's, as in a serial loop
        c_field = cell32.copy()
        c_field[3, 3, 0, 0] *= -1.0
        with pytest.raises(NonConvergenceError) as want:
            solve_unit_load(c_field, [1, 0, 0], SolverConfig(), cell_operator(c_field, DOMAIN))
        with pytest.raises(NonConvergenceError, match="^unit load 0: ") as got:
            strain_concentration(c_field, SolverConfig(), domain=DOMAIN)
        assert str(got.value) == f"unit load 0: {want.value}"
        assert got.value.history == want.value.history


class TestReconstruct:
    def test_zero_macro(self, two_phase):
        _, conc = two_phase
        assert np.all(reconstruct_strain(conc, [0, 0, 0]) == 0.0)

    def test_first_column(self, two_phase):
        _, conc = two_phase
        assert_allclose(reconstruct_strain(conc, [1, 0, 0]), conc.a[..., :, 0])

    def test_average_recovers_macro(self, two_phase):
        _, conc = two_phase
        macro = np.array([0.7, 0.1, -0.4])
        mean = reconstruct_strain(conc, macro).mean(axis=(0, 1))
        assert np.abs(mean - macro).max() <= 1e-8

    def test_linearity(self, two_phase):
        _, conc = two_phase
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        lhs = reconstruct_strain(conc, 2.0 * a + 3.0 * b)
        rhs = 2.0 * reconstruct_strain(conc, a) + 3.0 * reconstruct_strain(conc, b)
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestHomogenizedStiffness:
    def test_homogeneous_recovers_phase(self):
        c = stiffness_from_enu(IsotropicProps(7.0, 0.25))
        c_field = np.broadcast_to(c, (16, 16, 3, 3)).copy()
        identity = np.broadcast_to(np.eye(3), (16, 16, 3, 3)).copy()
        cbar, asym = homogenized_stiffness(c_field, identity)
        assert_allclose(cbar, c, rtol=1e-14)
        assert asym <= 1e-14

    def test_identity_concentration_gives_pixel_mean(self, two_phase):
        c_field, _ = two_phase
        identity = np.broadcast_to(np.eye(3), c_field.shape).copy()
        cbar, _ = homogenized_stiffness(c_field, identity)
        assert_allclose(cbar, c_field.mean(axis=(0, 1)), rtol=1e-12)

    def test_bounds_sandwich(self, two_phase):
        c_field, conc = two_phase
        cbar, _ = homogenized_stiffness(c_field, conc)
        c_reuss, c_voigt = reuss_voigt_bounds(c_field)
        e_r = effective_enu(c_reuss).E
        e_v = effective_enu(c_voigt).E
        e_bar = effective_enu(cbar).E
        assert e_r < e_bar < e_v

    def test_monotone_in_fiber_modulus(self):
        rve = generate_fiber_rve(0.45, 5.0, 0.01, DOMAIN, (48, 48), seed=12)
        effs = []
        for e_f in (10.0, 30.0, 74.0):
            c_field = assign_properties(
                rve, IsotropicProps(e_f, 0.25), IsotropicProps(3.0, 0.35)
            )
            conc = strain_concentration(c_field, SolverConfig(tol=1e-8), domain=DOMAIN)
            cbar, _ = homogenized_stiffness(c_field, conc)
            effs.append(effective_enu(cbar).E)
        assert effs[0] < effs[1] < effs[2]

    def test_symmetrized_output_symmetry(self, two_phase):
        # in storage form the shear column carries the pair factor: the clean
        # invariant is cbar[0,2] == 2*cbar[2,0] and symmetry of the plain form
        c_field, conc = two_phase
        cbar, asym = homogenized_stiffness(c_field, conc)
        assert_allclose(cbar[0, 1], cbar[1, 0], rtol=1e-12)
        assert_allclose(cbar[0, 2], 2.0 * cbar[2, 0], rtol=1e-12)
        assert asym < 1e-6 * np.linalg.norm(cbar)


class TestAsymmetryWarning:
    @pytest.fixture(scope="class")
    def contrast_34(self):
        rve = generate_fiber_rve(0.6, 3.5, 0.01, DOMAIN, (64, 64), seed=1)
        return assign_properties(rve, IsotropicProps(85.0, 0.2), IsotropicProps(2.5, 0.35))

    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-9])
    def test_threshold_follows_tol(self, contrast_34, tol):
        conc = strain_concentration(contrast_34, SolverConfig(tol=tol), domain=DOMAIN)
        assert conc.metadata["tol"] == tol
        # A constant C and A = I + d e1 e2^T give Cbar the asymmetry d C11:
        # 1% under the threshold of the recorded tol is quiet, 1% over warns.
        expected = min(ASYMMETRY_FACTOR * tol, ASYMMETRY_CEILING)
        c = stiffness_from_enu(IsotropicProps(10.0, 0.3))
        c_field = np.broadcast_to(c, (4, 4, 3, 3))
        for factor in (0.99, 1.01):
            a = np.eye(3)
            a[0, 1] = factor * expected * np.linalg.norm(c) / c[0, 0]
            skewed = ConcentrationField(np.broadcast_to(a, (4, 4, 3, 3)), conc.metadata)
            if factor < 1:
                homogenized_stiffness(c_field, skewed)
            else:
                with pytest.warns(UserWarning, match="homogenized stiffness asymmetry"):
                    homogenized_stiffness(c_field, skewed)

    def test_under_converged_solve_warns(self, contrast_34):
        conc = strain_concentration(contrast_34, SolverConfig(tol=1e-2), domain=DOMAIN)
        with pytest.warns(UserWarning, match="homogenized stiffness asymmetry"):
            homogenized_stiffness(contrast_34, conc)

    def test_converged_solve_is_quiet(self, contrast_34, recwarn):
        conc = strain_concentration(contrast_34, SolverConfig(tol=1e-6), domain=DOMAIN)
        homogenized_stiffness(contrast_34, conc)
        assert not [w for w in recwarn if "asymmetry" in str(w.message)]


def _record_threads(monkeypatch, fail_loads=()):
    """Wrap the unit-load solve: note each load's thread, and make the loads
    in fail_loads raise NonConvergenceError at once.  Returns the threads by
    load and the set of loads whose solve has returned."""
    threads, done = {}, set()
    inner = homogenization.solve_unit_load

    def recorded(c_field, macro_strain, *args, **kwargs):
        load = int(np.flatnonzero(macro_strain)[0])
        threads[load] = threading.current_thread()
        if load in fail_loads:
            raise NonConvergenceError("no convergence", [0.5, 0.25])
        res = inner(c_field, macro_strain, *args, **kwargs)
        done.add(load)
        return res

    monkeypatch.setattr(homogenization, "solve_unit_load", recorded)
    return threads, done


@pytest.fixture(scope="module")
def cell128():
    rve = generate_fiber_rve(0.6, 3.5, 0.01, DOMAIN, (128, 128), seed=3)
    return assign_properties(rve, IsotropicProps(85.0, 0.2), IsotropicProps(2.5, 0.35))


class TestLanes:
    def test_lane_rule(self):
        assert _lane_count(128 * 128) == 3
        assert _lane_count(256 * 256) == 3
        assert _lane_count(128 * 128 - 1) == 1

    def test_lanes_match_the_serial_path_bitwise(self, cell128, monkeypatch):
        config = SolverConfig(tol=1e-6)
        stack = solve_unit_load(cell128, UNIT_LOADS, config, cell_operator(cell128, DOMAIN))
        threads, _ = _record_threads(monkeypatch)
        before = threading.active_count()
        lanes = strain_concentration(cell128, config, domain=DOMAIN)
        assert threading.active_count() == before
        assert len(threads) == 3
        assert lanes.a.tobytes() == stack.strain.transpose(1, 2, 3, 0).tobytes()
        records = [(load["iterations"], load["residual"]) for load in lanes.metadata["loads"]]
        assert records == [(len(h), h[-1]) for h in stack.residual_history]

    def test_each_helper_solves_one_load(self, cell128, monkeypatch):
        threads, _ = _record_threads(monkeypatch)
        strain_concentration(cell128, SolverConfig(), domain=DOMAIN)
        assert threads[0] is threading.current_thread()
        assert len({threads[0], threads[1], threads[2]}) == 3

    def test_helper_failure_names_its_load(self, cell128, monkeypatch):
        threads, _ = _record_threads(monkeypatch, fail_loads=(2,))
        before = threading.active_count()
        with pytest.raises(NonConvergenceError, match="^unit load 2: no convergence$") as exc:
            strain_concentration(cell128, SolverConfig(), domain=DOMAIN)
        assert exc.value.history == [0.5, 0.25]
        assert threads[2] is not threading.current_thread()
        assert threading.active_count() == before

    def test_lowest_failed_load_is_raised(self, cell128, monkeypatch):
        _record_threads(monkeypatch, fail_loads=(1, 2))
        before = threading.active_count()
        with pytest.raises(NonConvergenceError, match="^unit load 1: "):
            strain_concentration(cell128, SolverConfig(), domain=DOMAIN)
        assert threading.active_count() == before

    def test_a_failed_load_is_raised_after_every_helper_is_joined(self, cell128, monkeypatch):
        # load 1 fails at once, while load 2 takes a full solve on its helper
        _, done = _record_threads(monkeypatch, fail_loads=(1,))
        before = threading.active_count()
        with pytest.raises(NonConvergenceError, match="^unit load 1: "):
            strain_concentration(cell128, SolverConfig(), domain=DOMAIN)
        assert done == {0, 2}
        assert threading.active_count() == before


class TestAnisotropyIndicator:
    def test_isotropic_zero(self):
        c = stiffness_from_enu(IsotropicProps(3.0, 0.3))
        assert anisotropy_indicator(c) == 0.0

    def test_orthotropic_positive(self):
        c = np.diag([10.0, 5.0, 2.0])
        assert anisotropy_indicator(c) > 0.0
