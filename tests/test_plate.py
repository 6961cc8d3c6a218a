"""Macro plate solver, hourglass control, random modulus fields, recovery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from microhom import plate
from microhom.dataset import read_sample, write_sample
from microhom.errors import ConfigError, DomainError, MeshError, NonConvergenceError
from microhom.homogenization import ConcentrationField, homogenized_stiffness
from microhom.microstructure import assign_properties, generate_fiber_rve
from microhom.plate import (
    GRFConfig,
    MacroMesh,
    assemble_stiffness,
    element_response,
    element_strains,
    element_stiffness,
    kl_field,
    recover_micro,
    rect_plate_mesh,
    run_multiscale,
    solve_plate,
)
from microhom.solver import SolverConfig
from microhom.voigt import IsotropicProps, stiffness_from_enu
from oracles import assemble_stiffness_loop, element_strains_loop, solve_plate_dense

C_EPOXY = stiffness_from_enu(IsotropicProps(3.35, 0.34))
UNIT_SQUARE = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])


def homogeneous_tangents(mesh, c=C_EPOXY):
    return np.broadcast_to(c, (len(mesh.elems), 3, 3)).copy()


class TestMesh:
    def test_counts_and_sets(self):
        mesh = rect_plate_mesh(4, 8, 0.05, 0.05)
        assert len(mesh.nodes) == 5 * 9
        assert len(mesh.elems) == 32
        assert len(mesh.dof_fixed) == 10  # bottom row, both components
        assert len(mesh.dof_loaded) == 5  # top row, vertical
        assert len(mesh.dof_free) == 2 * 45 - 15

    def test_positive_jacobian_required(self):
        mesh = rect_plate_mesh(1, 1, 1.0, 1.0)
        bad = mesh.elems[:, ::-1].copy()  # clockwise connectivity
        mesh.elems[:] = bad
        with pytest.raises(MeshError):
            assemble_stiffness(mesh, homogeneous_tangents(mesh))

    def test_flipped_interior_element_named(self):
        mesh = rect_plate_mesh(3, 3, 1.0, 1.0)
        mesh.elems[4] = mesh.elems[4, ::-1]  # the center element, clockwise
        with pytest.raises(MeshError, match=r"element 4: non-positive Jacobian determinant -"):
            assemble_stiffness(mesh, homogeneous_tangents(mesh))
        with pytest.raises(MeshError, match=r"element 4:"):
            element_strains(mesh, np.zeros(mesh.n_dofs))

    @pytest.mark.parametrize("nx,ny", [(2.5, 1), (1, 0.5), (0, 3), (2, -1)])
    def test_element_counts_must_be_whole_and_positive(self, nx, ny):
        with pytest.raises(MeshError):
            rect_plate_mesh(nx, ny, 1.0, 1.0)

    def test_whole_float_counts_give_the_int_mesh(self):
        mesh, ref = rect_plate_mesh(3.0, 2.0, 1.0, 1.0), rect_plate_mesh(3, 2, 1.0, 1.0)
        assert np.array_equal(mesh.elems, ref.elems) and np.array_equal(mesh.nodes, ref.nodes)

    @pytest.mark.parametrize("w,h", [(0.0, 0.05), (0.05, -0.01), (np.nan, 1.0), (1.0, np.inf)])
    def test_element_sizes_must_be_positive_and_finite(self, w, h):
        with pytest.raises(MeshError, match="element sizes"):
            rect_plate_mesh(2, 2, w, h)

    def test_node_order_must_be_a_permutation(self):
        mesh = rect_plate_mesh(2, 2, 1.0, 1.0)
        order = mesh.node_order.copy()
        order[0] = order[1]
        with pytest.raises(MeshError, match="node_order"):
            MacroMesh(mesh.nodes, mesh.elems, mesh.dof_fixed, mesh.dof_loaded, order)

    @pytest.mark.parametrize(
        "nx,ny", [(1, 1), (1, 40), (40, 1), (7, 3), (13, 17), (20, 30), (64, 9)]
    )
    def test_node_order_is_a_nested_dissection(self, nx, ny):
        mesh = rect_plate_mesh(nx, ny, 1.0, 1.0)
        separators = check_dissection(np.arange(len(mesh.nodes)).reshape(ny + 1, nx + 1),
                                      mesh.node_order, mesh.elems)
        assert (separators > 0) == (len(mesh.nodes) > plate._DISSECTION_BLOCK)


def check_dissection(ids, order, elems) -> int:
    """Check that order is a permutation of the grid block ids that numbers
    it as a nested dissection, and return the number of separator lines found.

    A block of at most _DISSECTION_BLOCK nodes is numbered in natural order.
    A larger one ends with a full grid line across its longer side, away from
    both ends and at most one line off its middle; no element joins the two
    sides; the first side comes first, then the second, each checked the same
    way."""
    assert np.array_equal(np.sort(order), np.sort(ids.ravel()))
    if ids.size <= plate._DISSECTION_BLOCK:
        assert np.array_equal(order, ids.ravel())
        return 0
    sides = ids if ids.shape[1] >= ids.shape[0] else ids.T  # separator is a column of sides
    tail = np.sort(order[-len(sides):])
    cols = [c for c in range(sides.shape[1]) if np.array_equal(np.sort(sides[:, c]), tail)]
    assert len(cols) == 1
    c = cols[0]
    first, second = sides[:, :c], sides[:, c + 1:]
    assert first.size and second.size and abs(first.shape[1] - second.shape[1]) <= 1
    in_first = np.isin(elems, first).any(axis=1)
    in_second = np.isin(elems, second).any(axis=1)
    assert not (in_first & in_second).any()
    if sides is not ids:  # hand each side back in the grid's own orientation
        first, second = first.T, second.T
    return (1 + check_dissection(first, order[:first.size], elems)
            + check_dissection(second, order[first.size:-len(tail)], elems))


def distorted_mesh(seed=0, nx=3, ny=4):
    """An nx x ny plate with every node moved up to 0.3 of an element size (all
    Jacobians stay positive) and a different random SPD tangent per element."""
    rng = np.random.default_rng(seed)
    mesh = rect_plate_mesh(nx, ny, 0.05, 0.04)
    mesh.nodes = mesh.nodes + rng.uniform(-0.3, 0.3, mesh.nodes.shape) * [0.05, 0.04]
    a = rng.standard_normal((len(mesh.elems), 3, 3))
    return mesh, a @ a.transpose(0, 2, 1) + 0.5 * np.eye(3)


class TestBatchedAgainstLoop:
    def test_assemble_stiffness(self):
        mesh, tangents = distorted_mesh()
        k = assemble_stiffness(mesh, tangents).toarray()
        ref = assemble_stiffness_loop(mesh, tangents)
        assert np.abs(k - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_element_strains(self):
        mesh, _ = distorted_mesh()
        u = np.random.default_rng(1).standard_normal(mesh.n_dofs)
        eps, ref = element_strains(mesh, u), element_strains_loop(mesh, u)
        assert np.abs(eps - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_stacked_element_strains(self):
        mesh, _ = distorted_mesh()
        u = np.random.default_rng(2).standard_normal((5, mesh.n_dofs))
        eps = element_strains(mesh, u)
        assert eps.shape == (5, len(mesh.elems), 3)
        for step in range(5):
            assert np.array_equal(eps[step], element_strains(mesh, u[step]))
        ref = np.stack([element_strains_loop(mesh, x) for x in u])
        assert np.abs(eps - ref).max() <= 1e-13 * np.abs(ref).max()


class TestElement:
    def test_patch_uniform_strain(self):
        mesh = rect_plate_mesh(1, 1, 1.0, 1.0)
        delta = 1e-3
        u = np.zeros(8)
        u[0::2] = mesh.nodes[:, 0] * delta
        eps = element_strains(mesh, u)[0]
        assert_allclose(eps, [delta, 0.0, 0.0], atol=1e-18)
        assert_allclose(C_EPOXY @ eps, C_EPOXY @ [delta, 0.0, 0.0], rtol=1e-15)

    def test_hourglass_restores_rank(self, monkeypatch):
        k_stab = element_stiffness(UNIT_SQUARE, C_EPOXY[None])[0]
        monkeypatch.setattr(plate, "_HOURGLASS_COEF", 0.0)
        k_bare = element_stiffness(UNIT_SQUARE, C_EPOXY[None])[0]
        # 3 rigid modes are legitimate; one-point integration leaves 2 more
        assert np.linalg.matrix_rank(k_bare, tol=1e-10) == 3
        assert np.linalg.matrix_rank(k_stab, tol=1e-10) == 5


class TestPlateSolve:
    def test_newton_single_iteration_and_tolerance(self):
        mesh = rect_plate_mesh(4, 8, 0.05, 0.05)
        states = solve_plate(mesh, homogeneous_tangents(mesh), 5, 0.02)
        for state in states:
            assert state.newton_iterations == 1
            assert state.residual_norm <= 1e-7

    def test_reaction_linear_in_displacement(self):
        mesh = rect_plate_mesh(4, 8, 0.05, 0.05)
        states = solve_plate(mesh, homogeneous_tangents(mesh), 5, 0.02)
        slopes = np.array([s.reaction / s.applied_displacement for s in states])
        assert np.abs(slopes / slopes[0] - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("load_steps", [1, 3])
    def test_matches_dense_direct_solve(self, load_steps):
        mesh = rect_plate_mesh(4, 8, 0.05, 0.05)
        tangents = homogeneous_tangents(mesh)
        states = solve_plate(mesh, tangents, load_steps, 0.02)
        assert len(states) == load_steps
        ref = solve_plate_dense(mesh, tangents, load_steps, 0.02)
        for state, s in zip(states, ref):  # each step against the dense solve for its own target
            assert np.abs(s - state.displacement).max() <= 1e-10

    def test_dissection_solve_matches_dense_direct_solve(self):
        mesh, tangents = distorted_mesh(nx=20, ny=30)
        states = solve_plate(mesh, tangents, 1, 0.02)
        [s] = solve_plate_dense(mesh, tangents, 1, 0.02)
        assert np.abs(s - states[0].displacement).max() <= 1e-10 * np.abs(s).max()

    def test_steps_scale_one_solution(self):
        mesh, tangents = distorted_mesh()
        states = solve_plate(mesh, tangents, 5, 0.02)
        last = states[-1]
        for state in states:
            scale = state.step / 5
            assert state.applied_displacement == 0.02 * state.step / 5
            for field in ("displacement", "strain_m", "stress_m"):
                ref = scale * getattr(last, field)
                assert np.abs(getattr(state, field) - ref).max() <= 1e-14 * np.abs(ref).max()
            for field in ("residual_norm", "reaction"):
                ref = scale * getattr(last, field)
                assert abs(getattr(state, field) - ref) <= 1e-14 * abs(ref)

    def test_global_equilibrium(self):
        mesh = rect_plate_mesh(4, 8, 0.05, 0.05)
        tangents = homogeneous_tangents(mesh)
        states = solve_plate(mesh, tangents, 2, 0.02)
        f = assemble_stiffness(mesh, tangents) @ states[-1].displacement
        assert abs(f.sum()) <= 1e-9 * np.abs(f).sum()

    def test_block_outputs_match_the_global_product(self):
        # the solve keeps only K_ff and the loaded rows of K: its reaction and
        # residual must be those of the internal force K u (a unit edge
        # displacement, so u is the solved one, not a multiple of it)
        mesh, tangents = distorted_mesh()
        [state] = solve_plate(mesh, tangents, 1, 1.0)
        k, u, free = assemble_stiffness(mesh, tangents), state.displacement, mesh.dof_free
        f = k @ u
        assert state.reaction == f[mesh.dof_loaded].sum()
        # both residuals are round-off of K u's free rows, whose scale is |K| |u|
        roundoff = np.finfo(float).eps * np.linalg.norm((abs(k) @ abs(u))[free])
        assert abs(state.residual_norm - np.linalg.norm(f[free])) <= roundoff

    def test_mirror_symmetry(self):
        nx, ny = 4, 8
        mesh = rect_plate_mesh(nx, ny, 0.05, 0.05)
        state = solve_plate(mesh, homogeneous_tangents(mesh), 1, 0.02)[0]
        u = state.displacement
        scale = np.abs(u).max()
        for iy in range(ny + 1):
            for ix in range(nx + 1):
                a = iy * (nx + 1) + ix
                b = iy * (nx + 1) + (nx - ix)
                assert abs(u[2 * a] + u[2 * b]) <= 1e-9 * scale
                assert abs(u[2 * a + 1] - u[2 * b + 1]) <= 1e-9 * scale

    def test_rejects_bad_tangent_count(self):
        mesh = rect_plate_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(DomainError):
            solve_plate(mesh, np.zeros((3, 3, 3)), 1, 0.1)

    @pytest.mark.parametrize("load_steps", [0, -1])
    def test_rejects_load_steps_below_one(self, load_steps):
        mesh = rect_plate_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(DomainError, match="load_steps"):
            solve_plate(mesh, homogeneous_tangents(mesh), load_steps, 0.1)

    @pytest.mark.parametrize("newton_tol", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_newton_tol(self, newton_tol):
        mesh = rect_plate_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(DomainError, match="newton_tol"):
            solve_plate(mesh, homogeneous_tangents(mesh), 1, 0.1, newton_tol=newton_tol)

    @pytest.mark.parametrize("s_total", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_s_total(self, s_total):
        mesh = rect_plate_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(DomainError, match="s_total must be finite"):
            solve_plate(mesh, homogeneous_tangents(mesh), 1, s_total)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_tangent(self, value):
        mesh = rect_plate_mesh(2, 2, 1.0, 1.0)
        tangents = homogeneous_tangents(mesh)
        tangents[2, 1, 0] = value
        tangents[3, 0, 0] = value
        with pytest.raises(DomainError, match=r"^element 2: non-finite tangent$"):
            solve_plate(mesh, tangents, 1, 0.1)

    def test_tolerance_miss_raises_at_the_first_step(self):
        mesh = rect_plate_mesh(4, 8, 0.05, 0.05)
        with pytest.raises(NonConvergenceError, match=r"^macro step 1: ") as info:
            solve_plate(mesh, homogeneous_tangents(mesh), 5, 0.02, newton_tol=1e-30)
        [r_norm] = info.value.history
        assert 1e-30 < r_norm <= 1e-7

    def test_zero_tangents_singular(self):
        mesh = rect_plate_mesh(2, 2, 1.0, 1.0)
        with pytest.raises(DomainError, match="singular macro stiffness"):
            solve_plate(mesh, np.zeros((4, 3, 3)), 1, 0.1)


class TestKlField:
    def test_constant_cases(self):
        mesh = rect_plate_mesh(5, 5, 0.05, 0.05)
        assert np.all(kl_field(mesh, GRFConfig(74.0, std=0.0)) == 74.0)

    def test_bitwise_reproducible(self):
        mesh = rect_plate_mesh(6, 4, 0.05, 0.05)
        cfg = GRFConfig(74.0, std=2.0, corr_length=0.1, seed=13)
        assert np.array_equal(kl_field(mesh, cfg), kl_field(mesh, cfg))

    def test_monte_carlo_moments(self):
        # The draws span K modes, the fewest carrying 95% of the covariance
        # trace.  At three probe elements the sample mean is within 3
        # standard errors of the mean and the sample variance within 10% of
        # the truncated expansion's own, sum_{k<K} lambda_k v_k(p)^2, which
        # sits up to 8% below std^2 here.
        mesh = rect_plate_mesh(5, 5, 0.05, 0.05)
        n_draws, std = 10_000, 2.0
        draws = np.array([
            kl_field(mesh, GRFConfig(74.0, std=std, corr_length=0.1, seed=s))
            for s in range(n_draws)
        ])
        centroids = mesh.nodes[mesh.elems].mean(axis=1)
        d2 = ((centroids[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        vals, vecs = np.linalg.eigh(std**2 * np.exp(-d2 / (2.0 * 0.1**2)))
        vals, vecs = np.clip(vals[::-1], 0.0, None), vecs[:, ::-1]
        share = np.cumsum(vals) / vals.sum()
        k = np.linalg.matrix_rank(draws - 74.0)
        assert 1 < k < len(vals) and share[k - 2] < 0.95 <= share[k - 1]
        kept = (vals[:k] * vecs[:, :k] ** 2).sum(axis=1)
        for probe in (0, 12, 24):
            mean_err = abs(draws[:, probe].mean() - 74.0)
            assert mean_err <= 3.0 * std / np.sqrt(n_draws)
            assert abs(draws[:, probe].var() / kept[probe] - 1.0) <= 0.10

    def test_validation(self):
        with pytest.raises(DomainError):
            GRFConfig(74.0, std=-1.0)
        with pytest.raises(DomainError):
            GRFConfig(74.0, corr_length=0.0)
        with pytest.raises(ConfigError, match="^'mean' must be a number, got a string$"):
            GRFConfig("abc")
        # a required field never takes null
        with pytest.raises(ConfigError, match="^'mean' must be a number, got null$"):
            GRFConfig(None)


@pytest.fixture(scope="module")
def element():
    rve = generate_fiber_rve(0.5, 5.0, 0.01, (50.0, 50.0), (48, 48), seed=21)
    return element_response(
        rve.grid,
        IsotropicProps(74.0, 0.2),
        IsotropicProps(3.76, 0.39),
        SolverConfig(tol=1e-9),
        (50.0, 50.0),
    )


class TestRecovery:
    def test_zero_macro_zero_fields(self, element):
        eps, sig = recover_micro(element.conc.a, element.c_field, [0, 0, 0])
        assert np.all(eps == 0.0) and np.all(sig == 0.0)

    def test_homogeneous_element_constant_stress(self):
        c = stiffness_from_enu(IsotropicProps(3.0, 0.3))
        c_field = np.broadcast_to(c, (8, 8, 3, 3)).copy()
        a_field = np.broadcast_to(np.eye(3), (8, 8, 3, 3)).copy()
        eps, sig = recover_micro(a_field, c_field, [1e-3, 0, 0])
        assert_allclose(sig, np.broadcast_to(c @ [1e-3, 0, 0], sig.shape), rtol=1e-14)

    def test_hill_consistency(self, element):
        macro = np.array([4e-3, -1e-3, 2e-3])
        _, sig = recover_micro(element.conc.a, element.c_field, macro)
        sigma_m = element.tangent @ macro
        rel = np.abs(sig.mean(axis=(0, 1)) - sigma_m).max() / np.abs(sigma_m).max()
        assert rel <= 1e-6


class TestSurrogateSeam:
    def test_precomputed_fields_round_trip(self, tmp_path):
        rve = generate_fiber_rve(0.5, 5.0, 0.01, (50.0, 50.0), (48, 48), seed=4)
        fiber, matrix = IsotropicProps(30.0, 0.25), IsotropicProps(3.0, 0.35)
        direct = element_response(rve.grid, fiber, matrix, SolverConfig(tol=1e-8), (50.0, 50.0))

        edir = tmp_path / "000000"
        write_sample(edir, rve, fiber, matrix, direct.conc, 0, 4, 0.5)
        grid, fiber2, matrix2, conc = read_sample(edir)
        assert np.array_equal(grid, rve.grid) and np.array_equal(conc.a, direct.conc.a)
        assert (fiber2, matrix2) == (fiber, matrix)
        c_field = assign_properties(grid, fiber2, matrix2)
        tangent, _ = homogenized_stiffness(c_field, conc, symmetrize=False)
        assert_allclose(tangent, direct.tangent, rtol=1e-12)
        # the asymmetry threshold follows the recorded tol: this field's
        # ~1e-8 ||Cbar|| is quiet at tol 1e-8 and warns at 1e-10
        assert conc.metadata == {"tol": 1e-8}
        conc.metadata["tol"] = 1e-10
        with pytest.warns(UserWarning, match="homogenized stiffness asymmetry"):
            homogenized_stiffness(c_field, conc)

    def test_saved_cell_carries_its_tol_threshold(self, tmp_path):
        run_multiscale(
            {"nx": 1, "ny": 1, "save_micro": True,
             "micro": {"resolution": [32, 32], "solver": {"tol": 1e-9}}},
            tmp_path / "out",
        )
        grid, fiber, matrix, conc = read_sample(tmp_path / "out" / "micro" / "000000")
        # the plate's cells are solved at tol 1e-9, not the default 1e-6
        assert conc.metadata == {"tol": 1e-9}
        # A bump of A's 12 entry gives Cbar an asymmetry of 1e-7 ||Cbar||:
        # over the recorded tol's threshold 1e-8, under the default's 1e-5.
        c_field = assign_properties(grid, fiber, matrix)
        cbar = homogenized_stiffness(c_field, conc, symmetrize=False)[0]
        bump = np.zeros((3, 3))
        bump[0, 1] = 1e-7 * np.linalg.norm(cbar) / c_field[..., 0, 0].mean()
        with pytest.warns(UserWarning, match="homogenized stiffness asymmetry"):
            homogenized_stiffness(c_field, ConcentrationField(conc.a + bump, conc.metadata))

    def test_run_multiscale_from_precomputed_fields(self, tmp_path):
        # four precomputed element cells for a 2x2 plate
        rng_props = [(20.0, 0.2, 3.0, 0.35), (40.0, 0.25, 3.5, 0.34),
                     (60.0, 0.3, 4.0, 0.33), (30.0, 0.22, 3.2, 0.36)]
        micro_root = tmp_path / "micro"
        tangents = []
        for e, (ef, nuf, em, num) in enumerate(rng_props):
            rve = generate_fiber_rve(0.45, 5.0, 0.01, (50.0, 50.0), (48, 48), seed=50 + e)
            fiber, matrix = IsotropicProps(ef, nuf), IsotropicProps(em, num)
            el = element_response(rve.grid, fiber, matrix, SolverConfig(tol=1e-8), (50.0, 50.0))
            tangents.append(el.tangent)
            write_sample(micro_root / f"{e:06d}", rve, fiber, matrix, el.conc, e, 50 + e, 0.45)

        summary = run_multiscale(
            {"nx": 2, "ny": 2, "s_total": 0.004, "load_steps": 2,
             "a_field_dir": str(micro_root)},
            tmp_path / "out",
        )
        mesh = rect_plate_mesh(2, 2, 0.05, 0.05)
        states = solve_plate(mesh, np.stack(tangents), 2, 0.004)
        table = summary["reaction_table"]
        assert len(table) == 2
        for row, state in zip(table, states):
            assert abs(row["reaction"] - state.reaction) <= 1e-12 * abs(state.reaction)
