"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavy criteria stay within the stated runtime
budgets on a workstation-class CPU.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from oracles import dense_fixed_point_solution, disc_rve

from microhom.dataset import DatasetConfig, config_from_dict, generate_dataset
from microhom.homogenization import (
    cell_operator,
    homogenized_stiffness,
    reuss_voigt_bounds,
    strain_concentration,
)
from microhom.microstructure import (
    SpinodalParams,
    _min_image,
    assign_properties,
    generate_fiber_rve,
    generate_spinodal_rve,
    rasterize_discs,
)
from microhom.plate import (
    GRFConfig,
    assemble_stiffness,
    element_response,
    kl_field,
    recover_micro,
    rect_plate_mesh,
    solve_plate,
)
from microhom.solver import SolverConfig, solve_unit_load
from microhom.voigt import IsotropicProps, effective_enu, lame_from_enu, stiffness_from_lame

DOMAIN = (50.0, 50.0)

# fiber/matrix (E, nu) pairs of four industrial composites
MATERIALS = {
    "silenka_bisphenol": (74.00, 0.2000, 3.76, 0.39),
    "as4_3501": (15.00, 0.0714, 4.60, 0.34),
    "hta_6376": (28.00, 0.3300, 3.63, 0.34),
    "t300_tde86": (40.00, 0.3986, 4.35, 0.39),
}


@contextmanager
def criterion(number, text):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {text}")
        raise
    print(f"criterion {number:2d}: PASS  {text}  [{time.time() - start:.1f}s]")


def test_criterion_01_homogeneous_identity():
    with criterion(1, "homogeneous 64^2 cells give A = I in exactly 1 iteration"):
        start = time.time()
        rng = np.random.default_rng(101)
        for _ in range(10):
            props = IsotropicProps(rng.uniform(1.0, 100.0), rng.uniform(-0.5, 0.45))
            c = stiffness_from_lame(lame_from_enu(props))
            c_field = np.broadcast_to(c, (64, 64, 3, 3)).copy()
            conc = strain_concentration(c_field, SolverConfig(), domain=DOMAIN)
            assert np.abs(conc.a - np.eye(3)).max() <= 1e-10
            assert all(load["iterations"] == 1 for load in conc.metadata["loads"])
        assert time.time() - start < 5.0


def test_criterion_02_dense_oracle_equivalence():
    with criterion(2, "16^2 solves match the dense fixed-point oracle to 1e-6"):
        start = time.time()
        cases = [
            disc_rve(16, 4, contrast=2.0),
            disc_rve(16, 5, contrast=6.0, center=(6, 9)),
            disc_rve(16, 4, contrast=10.0),
            disc_rve(16, 3, contrast=18.0, center=(11, 4)),
            disc_rve(16, 5, contrast=25.0),
        ]
        for c_field in cases:
            for load in np.eye(3):
                green = cell_operator(c_field, (16.0, 16.0))
                res = solve_unit_load(c_field, load, SolverConfig(tol=1e-10), green)
                oracle = dense_fixed_point_solution(c_field, load, (16.0, 16.0))
                rel = np.linalg.norm(res.strain - oracle) / np.linalg.norm(oracle)
                assert rel <= 1e-6
        assert time.time() - start < 60.0


def test_criterion_03_convergence_contract(tmp_path):
    with criterion(3, "128^2 pipeline solves at contrast 34 reach Tol <= 1e-6"):
        cfg = DatasetConfig(
            n_samples=4,
            n_vof_groups=4,
            resolution=(128, 128),
            fiber_E_bounds=(84.999, 85.0),
            fiber_nu_bounds=(0.2, 0.2001),
            matrix_E_bounds=(2.5, 2.5001),
            matrix_nu_bounds=(0.35, 0.3501),
            master_seed=33,
            solver=SolverConfig(tol=1e-6),
            output_dir=str(tmp_path / "contract"),
        )
        manifest = generate_dataset(cfg)
        assert manifest["failures"] == []
        for entry in manifest["samples"]:
            assert entry["properties"]["E_f"] / entry["properties"]["E_m"] > 33.9
            for load in entry["loads"]:
                assert load["converged"] and load["residual"] <= 1e-6

        # mean-field preservation at every recorded iteration of one solve
        rve = generate_fiber_rve(0.6, 3.5, 0.01, DOMAIN, (128, 128), seed=3)
        c_field = assign_properties(
            rve, IsotropicProps(85.0, 0.2), IsotropicProps(2.5, 0.35)
        )
        macro = [1.0, 0.0, 0.0]
        res = solve_unit_load(
            c_field, macro, SolverConfig(tol=1e-6), cell_operator(c_field, DOMAIN),
            record_history=True,
        )
        assert res.converged and res.residual_history[-1] <= 1e-6
        assert np.abs(res.mean_strain_history - macro).max() <= 1e-10


def test_criterion_04_bounds_sandwich():
    with criterion(4, "four materials, vof 0.40/0.50/0.60: Ebar inside bounds, monotone"):
        for name, (ef, nuf, em, num) in MATERIALS.items():
            fiber, matrix = IsotropicProps(ef, nuf), IsotropicProps(em, num)
            mean_e = []
            for k, vof in enumerate((0.40, 0.50, 0.60)):
                samples = []
                for seed in range(3):
                    rve = generate_fiber_rve(
                        vof, 3.5, 0.01, DOMAIN, (128, 128), seed=100 * k + seed
                    )
                    c_field = assign_properties(rve, fiber, matrix)
                    conc = strain_concentration(
                        c_field, SolverConfig(tol=1e-6), domain=DOMAIN
                    )
                    cbar, _ = homogenized_stiffness(c_field, conc)
                    e_bar = effective_enu(cbar).E
                    c_reuss, c_voigt = reuss_voigt_bounds(c_field)
                    assert effective_enu(c_reuss).E < e_bar < effective_enu(c_voigt).E, name
                    samples.append(e_bar)
                mean_e.append(np.mean(samples))
            assert mean_e[0] <= mean_e[1] <= mean_e[2], name


def test_criterion_05_round_trip_algebra():
    with criterion(5, "1000 random (E, nu) survive Lame->stiffness->effective to 1e-12"):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            E = rng.uniform(1e-2, 500.0)
            nu = rng.uniform(-0.99, 0.49)
            props = effective_enu(stiffness_from_lame(lame_from_enu(IsotropicProps(E, nu))))
            assert abs(props.E - E) <= 1e-12 * E
            assert abs(props.nu - nu) <= 1e-12 * max(abs(nu), 1e-2)


def test_criterion_06_microstructure_statistics():
    with criterion(6, "50 RVEs at 256^2 within 0.5pp of target, periodic, non-overlapping"):
        start = time.time()
        targets = np.linspace(0.40, 0.60, 50)
        for i, target in enumerate(targets):
            rve = generate_fiber_rve(float(target), 3.5, 0.01, DOMAIN, (256, 256), seed=i)
            assert abs(rve.achieved_vof - target) <= 0.005

            cr = rve.centers_radii
            shifted = cr.copy()
            shifted[:, 0] += DOMAIN[0]
            assert np.array_equal(rve.grid, rasterize_discs(shifted, DOMAIN, (256, 256)))

            d = _min_image(cr[:, None, :2] - cr[None, :, :2], np.asarray(DOMAIN))
            dist = np.sqrt((d * d).sum(axis=2))
            req = cr[:, 2][:, None] + cr[:, 2][None, :] + 0.35
            iu = np.triu_indices(len(cr), k=1)
            assert (dist[iu] >= req[iu]).all()
        assert time.time() - start < 120.0


def test_criterion_07_cahn_hilliard_conservation():
    with criterion(7, "256^2 spinodal, 500 steps: mean drift <= 1e-10, balanced phases"):
        params = SpinodalParams(steps=500)
        rve = generate_spinodal_rve(params, DOMAIN, (256, 256), seed=77)
        rng = np.random.default_rng(77)
        c0 = 0.5 + params.initial_noise_amplitude * rng.uniform(-1.0, 1.0, (256, 256))
        assert abs(rve.metadata["mean_concentration"] - c0.mean()) <= 1e-10
        assert 0.40 <= rve.achieved_vof <= 0.60
        assert 0.40 <= 1.0 - rve.achieved_vof <= 0.60


def test_criterion_08_multiscale_patch_and_scaled_plate():
    with criterion(8, "4x8 plate exact linear; 8x15 plate with 64^2 cells end-to-end"):
        # homogeneous micro: the concentration field is the identity
        uniform = np.zeros((48, 48), np.uint8)
        matrix = IsotropicProps(3.35, 0.34)
        el = element_response(uniform, matrix, matrix, SolverConfig(), DOMAIN)
        assert np.abs(el.conc.a - np.eye(3)).max() <= 1e-10

        mesh = rect_plate_mesh(4, 8, 0.05, 0.05)
        tangents = np.broadcast_to(el.tangent, (32, 3, 3)).copy()
        states = solve_plate(mesh, tangents, load_steps=5, s_total=0.02)
        for state in states:
            assert state.newton_iterations == 1
            assert state.residual_norm <= 1e-7
        slopes = np.array([s.reaction / s.applied_displacement for s in states])
        assert np.abs(slopes / slopes[0] - 1.0).max() <= 1e-10

        k = assemble_stiffness(mesh, tangents).toarray()
        s = np.zeros(mesh.n_dofs)
        s[mesh.dof_loaded] = 0.02
        free = mesh.dof_free
        pres = np.concatenate([mesh.dof_fixed, mesh.dof_loaded])
        s[free] = np.linalg.solve(k[np.ix_(free, free)], -k[np.ix_(free, pres)] @ s[pres])
        assert np.abs(s - states[-1].displacement).max() <= 1e-10

        # scaled two-scale run: 8x15 elements, one 64^2 cell each
        start = time.time()
        mesh = rect_plate_mesh(8, 15, 0.05, 0.05)
        n_el = len(mesh.elems)
        ef = kl_field(mesh, GRFConfig(74.0, 2.0, corr_length=0.1, seed=1))
        em = kl_field(mesh, GRFConfig(3.35, 0.1, corr_length=0.1, seed=2))
        vofs = np.random.default_rng(8).permutation(
            np.resize(np.linspace(0.40, 0.60, 20), n_el)
        )

        def solve_element(e):
            rve = generate_fiber_rve(
                float(vofs[e]), 3.5, 0.01, DOMAIN, (64, 64), seed=1000 + e
            )
            return element_response(
                rve.grid,
                IsotropicProps(float(ef[e]), 0.2),
                IsotropicProps(float(em[e]), 0.35),
                SolverConfig(tol=1e-9),
                DOMAIN,
            )

        with ThreadPoolExecutor(max_workers=4) as pool:
            elements = list(pool.map(solve_element, range(n_el)))
        tangents = np.stack([element.tangent for element in elements])
        states = solve_plate(mesh, tangents, load_steps=5, s_total=0.0375)
        assert all(state.residual_norm <= 1e-7 for state in states)
        elapsed = time.time() - start
        assert elapsed < 600.0

        final = states[-1]
        for e, element in enumerate(elements):
            sigma_m = final.stress_m[e]
            _, sig = recover_micro(element.conc.a, element.c_field, final.strain_m[e])
            rel = np.linalg.norm(sig.mean(axis=(0, 1)) - sigma_m) / np.linalg.norm(sigma_m)
            assert rel <= 1e-6


def test_criterion_09_dataset_determinism(tmp_path):
    with criterion(9, "dataset rerun from the echoed config is bitwise identical"):
        cfg = DatasetConfig(
            n_samples=4,
            n_vof_groups=4,
            resolution=(64, 64),
            master_seed=99,
            solver=SolverConfig(tol=1e-6),
            output_dir=str(tmp_path / "first"),
        )
        generate_dataset(cfg)
        echo = json.loads((tmp_path / "first" / "config_echo.json").read_text())
        echo["output_dir"] = str(tmp_path / "second")
        generate_dataset(config_from_dict(echo))
        for i in range(4):
            for name in ("rve.u8.bin", "a_field.f64.bin"):
                a = (tmp_path / "first" / "samples" / f"{i:06d}" / name).read_bytes()
                b = (tmp_path / "second" / "samples" / f"{i:06d}" / name).read_bytes()
                assert a == b


def test_criterion_10_contrast_iteration_trend():
    with criterion(10, "iteration counts nondecreasing across contrast 2/10/25"):
        rve = generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, (128, 128), seed=10)
        counts = []
        for contrast in (2.0, 10.0, 25.0):
            c_field = assign_properties(
                rve, IsotropicProps(contrast * 3.0, 0.3), IsotropicProps(3.0, 0.3)
            )
            conc = strain_concentration(c_field, SolverConfig(tol=1e-6), domain=DOMAIN)
            counts.append([load["iterations"] for load in conc.metadata["loads"]])
        counts = np.array(counts)
        assert np.all(np.diff(counts, axis=0) >= 0)
