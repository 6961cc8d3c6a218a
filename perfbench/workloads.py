"""The benchmark workloads: inputs made from the seed, the timed operation,
the read step and the output check.

Library functions are looked up through their modules at call time
(``homogenization.strain_concentration``), so the span wrappers of the traced
run also see the calls made from here.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from microhom import dataset, green, homogenization, microstructure, plate, solver, voigt

DOMAIN = (50.0, 50.0)


def _problem(ok: bool, text: str) -> list:
    return [] if ok else [text]


def _check_linear_reactions(steps, newton_tol: float) -> list:
    """Every Newton residual within tolerance, and a constant secant stiffness
    (the tangents are constant, so reaction/displacement may not drift)."""
    problems = [
        f"step {s['step']}: residual {s['residual']:.3e} > {newton_tol:.1e}"
        for s in steps if not s["residual"] <= newton_tol
    ]
    slopes = np.array([s["reaction"] / s["displacement"] for s in steps])
    drift = float(np.abs(slopes / slopes[0] - 1.0).max())
    return problems + _problem(drift <= 1e-10, f"reaction/displacement drifts by {drift:.3e}")


class Workload:
    """setup(seed) -> inputs; op(inputs, workdir) -> result, the timed part;
    read(inputs, result, workdir), traced but untimed; check(inputs, result,
    read) -> list of problems, neither timed nor traced."""

    def read(self, inputs, result, workdir):
        return None


class Cell256(Workload):
    """One concentration solve (three unit loads) of a contrast-34 fiber cell."""

    name = "cell256"

    def __init__(self, tiny: bool, workers: int):
        self.resolution = (32, 32) if tiny else (256, 256)
        self.config = solver.SolverConfig(tol=1e-6, scheme=green.ROTATED)
        self.fiber = voigt.IsotropicProps(85.0, 0.2)
        self.matrix = voigt.IsotropicProps(2.5, 0.35)

    def setup(self, seed: int):
        rve = microstructure.generate_fiber_rve(0.6, 3.5, 0.01, DOMAIN, self.resolution, seed)
        return microstructure.assign_properties(rve, self.fiber, self.matrix)

    def op(self, c_field, workdir):
        conc = homogenization.strain_concentration(c_field, self.config, domain=DOMAIN)
        cbar, _ = homogenization.homogenized_stiffness(c_field, conc)
        return conc, cbar

    def check(self, c_field, result, read) -> list:
        conc, cbar = result
        tol = self.config.tol
        grid = green.make_freq_grid(self.resolution, DOMAIN, green.ROTATED)
        problems = []
        # Equilibrium of each column, recomputed from A alone: sigma = C : A e_j.
        for j in range(3):
            sigma = np.einsum("xyij,xyj->xyi", c_field, conc.a[..., :, j])
            residual = solver.convergence_metric(np.fft.fft2(sigma, axes=(0, 1)), grid)
            problems += _problem(residual <= tol, f"load {j}: Tol {residual:.3e} > {tol:.1e}")
        dev = float(np.abs(conc.a.mean(axis=(0, 1)) - np.eye(3)).max())
        problems += _problem(dev <= 1e-10, f"mean(A) deviates from I by {dev:.3e}")
        reuss, voigt_c = homogenization.reuss_voigt_bounds(c_field)
        e_reuss, e_bar, e_voigt = (voigt.effective_enu(c).E for c in (reuss, cbar, voigt_c))
        problems += _problem(
            e_reuss < e_bar < e_voigt,
            f"E = {e_bar:.4f} outside the Reuss/Voigt bounds ({e_reuss:.4f}, {e_voigt:.4f})",
        )
        return problems


class Dataset64(Workload):
    """A 64-sample dataset at 64^2, written to a fresh directory, then validated."""

    name = "dataset64"

    def __init__(self, tiny: bool, workers: int):
        n, res = (2, 32) if tiny else (64, 64)
        self.config = dataset.DatasetConfig(
            n_samples=n,
            resolution=(res, res),
            n_vof_groups=2 if tiny else 8,
            solver=solver.SolverConfig(tol=1e-6),
            workers=workers,
        )

    def setup(self, seed: int):
        return dataclasses.replace(self.config, master_seed=seed)

    def op(self, config, workdir):
        return dataset.generate_dataset(
            dataclasses.replace(config, output_dir=str(workdir / "dataset"))
        )

    def read(self, config, manifest, workdir):
        return dataset.validate_dataset(workdir / "dataset")

    def check(self, config, manifest, problems_found) -> list:
        tol = config.solver.tol
        problems = [f"sample {f['index']} failed: {f['reason']}" for f in manifest["failures"]]
        problems += _problem(
            len(manifest["samples"]) == config.n_samples,
            f"{len(manifest['samples'])} of {config.n_samples} samples written",
        )
        for sample in manifest["samples"]:
            for load in sample["loads"]:
                problems += _problem(
                    load["converged"] and load["residual"] <= tol,
                    f"sample {sample['index']} load {load['load']}: residual {load['residual']:.3e}",
                )
        return problems + [f"validate_dataset: {p}" for p in problems_found]


class Plate4x8(Workload):
    """The criterion-8 two-scale run (64^2 cells, tol 1e-9) on a 4x8 plate."""

    name = "plate4x8"

    def __init__(self, tiny: bool, workers: int):
        self.config = {
            "nx": 2 if tiny else 4,
            "ny": 2 if tiny else 8,
            "load_steps": 5,
            "newton_tol": 1e-7,
            "workers": workers,
            "micro": {"resolution": [32, 32] if tiny else [64, 64], "solver": {"tol": 1e-9}},
        }

    def setup(self, seed: int):
        config = dict(self.config, seed=seed)
        # Seed 0 keeps the default random-field seeds (1 and 2).
        config["grf_fiber"] = {"seed": 2 * seed + 1}
        config["grf_matrix"] = {"seed": 2 * seed + 2}
        return config

    def op(self, config, workdir):
        return plate.run_multiscale(config, workdir / "plate")

    def check(self, config, summary, read) -> list:
        return _check_linear_reactions(summary["reaction_table"], config["newton_tol"])


class Macro100x200(Workload):
    """solve_plate on a 100x200-element plate; tangents from a pool of 8 cells.

    The pool cells use the two-scale run's phase moduli (the means of its
    random fields) at stratified volume fractions, so the tangents are those
    of the plate's macro phase.
    """

    name = "macro100x200"
    load_steps = 5
    s_total = 0.0375
    newton_tol = 1e-7
    fiber = voigt.IsotropicProps(74.0, 0.2)
    matrix = voigt.IsotropicProps(3.35, 0.35)

    def __init__(self, tiny: bool, workers: int):
        self.mesh_size = (2, 2) if tiny else (100, 200)
        self.pool_size = 2 if tiny else 8
        self.cell = dataset.DatasetConfig(resolution=(32, 32))

    def setup(self, seed: int):
        cell = self.cell
        vofs = dataset.stratify_vof(self.pool_size, cell.vof_range, self.pool_size)
        pool = []
        for k, vof in enumerate(vofs):
            rve = microstructure.generate_fiber_rve(
                float(vof), cell.r_mean, cell.r_std_frac, DOMAIN, cell.resolution,
                seed=dataset.sample_seed(seed, k),
            )
            element = plate.element_response(
                rve.grid, self.fiber, self.matrix, cell.solver, DOMAIN, keep_fields=False
            )
            pool.append(element.tangent)
        mesh = plate.rect_plate_mesh(*self.mesh_size, 0.05, 0.05)
        pick = np.random.default_rng(seed).integers(0, self.pool_size, len(mesh.elems))
        return mesh, np.stack(pool)[pick]

    def op(self, inputs, workdir):
        mesh, tangents = inputs
        return plate.solve_plate(
            mesh, tangents, self.load_steps, self.s_total, newton_tol=self.newton_tol
        )

    def check(self, inputs, states, read) -> list:
        steps = [
            {"step": s.step, "residual": s.residual_norm, "reaction": s.reaction,
             "displacement": s.applied_displacement}
            for s in states
        ]
        return _check_linear_reactions(steps, self.newton_tol)


WORKLOADS = {w.name: w for w in (Cell256, Dataset64, Plate4x8, Macro100x200)}
