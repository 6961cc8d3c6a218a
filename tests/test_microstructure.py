"""Microstructure generation: fiber packings, spinodal cells, property maps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import relax_positions_loop, spinodal_labels_reference

from microhom import microstructure
from microhom.errors import DomainError, InstabilityError
from microhom.microstructure import (
    Microstructure,
    SpinodalParams,
    _min_image,
    _relax_positions,
    assign_properties,
    generate_fiber_rve,
    generate_spinodal_rve,
    rasterize_discs,
)
from microhom.voigt import IsotropicProps, stiffness_from_enu

DOMAIN = (50.0, 50.0)


def pairwise_slack(rve: Microstructure, gap: float) -> float:
    """Smallest margin of dist >= r_i + r_j + gap over all periodic pairs."""
    cr = rve.centers_radii
    if len(cr) < 2:
        return np.inf
    d = _min_image(cr[:, None, :2] - cr[None, :, :2], np.asarray(rve.domain_size))
    dist = np.sqrt((d * d).sum(axis=2))
    req = cr[:, 2][:, None] + cr[:, 2][None, :] + gap
    iu = np.triu_indices(len(cr), k=1)
    return float((dist[iu] - req[iu]).min())


class TestFiberRve:
    def test_single_fiber_analytic_area(self):
        r = 5.0
        target = np.pi * r**2 / (DOMAIN[0] * DOMAIN[1])
        rve = generate_fiber_rve(target, r, 0.01, DOMAIN, (64, 64), seed=1)
        assert len(rve.centers_radii) == 1
        assert abs(rve.achieved_vof - target) <= 2.0 / 64

    def test_table_parameters(self):
        rve = generate_fiber_rve(0.50, 3.5, 0.01, DOMAIN, (512, 512), seed=7)
        assert 0.495 <= rve.achieved_vof <= 0.505

    def test_deterministic(self):
        a = generate_fiber_rve(0.45, 3.5, 0.01, DOMAIN, (128, 128), seed=9)
        b = generate_fiber_rve(0.45, 3.5, 0.01, DOMAIN, (128, 128), seed=9)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.centers_radii, b.centers_radii)

    def test_periodically_translated_centers_rasterize_identically(self):
        rve = generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, (128, 128), seed=2)
        shifted = rve.centers_radii.copy()
        shifted[:, 0] += DOMAIN[0]
        shifted[:, 1] -= DOMAIN[1]
        again = rasterize_discs(shifted, DOMAIN, (128, 128))
        assert np.array_equal(rve.grid, again)

    def test_non_overlap_with_gap(self):
        for seed in range(4):
            rve = generate_fiber_rve(0.6, 3.5, 0.01, DOMAIN, (128, 128), seed=seed)
            assert pairwise_slack(rve, gap=0.35) >= 0.0

    def test_vof_error_shrinks_with_resolution(self):
        # rasterization error of a fixed disc set halves (or better) per doubling
        rve = generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, (64, 64), seed=5)
        analytic = np.pi * (rve.centers_radii[:, 2] ** 2).sum() / (DOMAIN[0] * DOMAIN[1])
        errors = []
        for T in (64, 128, 256):
            grid = rasterize_discs(rve.centers_radii, DOMAIN, (T, T))
            errors.append(abs(float(grid.mean()) - analytic))
        assert errors[2] < errors[0]
        assert errors[2] <= 2e-3

    def test_rejects_bad_targets(self):
        with pytest.raises(DomainError):
            generate_fiber_rve(0.0, 3.5, 0.01, DOMAIN, (64, 64), seed=0)
        with pytest.raises(DomainError):
            generate_fiber_rve(0.7, 3.5, 0.01, DOMAIN, (64, 64), seed=0)
        with pytest.raises(DomainError):
            generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, (16, 16), seed=0)
        with pytest.raises(DomainError):
            generate_fiber_rve(0.5, 30.0, 0.01, DOMAIN, (64, 64), seed=0)

    @pytest.mark.parametrize("shape", [(64,), (64, 64, 64)])
    def test_rejects_resolution_without_two_entries(self, shape):
        with pytest.raises(DomainError, match=r"resolution must have two entries"):
            generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, shape, seed=0)


class TestRelaxMatchesLoop:
    """The array-form stirring sums its pushes in the per-pair loop's order,
    so it must give the loop's packings byte for byte."""

    CASES = [
        *[(seed, vof, (T, T), 0.01, DOMAIN, 0.1)
          for seed in range(10) for vof in (0.40, 0.60) for T in (64, 128)],
        (3, 0.5, (64, 96), 0.1, (40.0, 60.0), 0.2),
    ]

    @pytest.mark.parametrize("seed,vof,resolution,r_std_frac,domain,gap_frac", CASES)
    def test_fiber_rve_bytes(self, monkeypatch, seed, vof, resolution, r_std_frac,
                             domain, gap_frac):
        args = (vof, 3.5, r_std_frac, domain, resolution, seed, gap_frac)
        fast = generate_fiber_rve(*args)
        monkeypatch.setattr(microstructure, "_relax_positions", relax_positions_loop)
        loop = generate_fiber_rve(*args)
        assert fast.grid.tobytes() == loop.grid.tobytes()
        assert fast.centers_radii.tobytes() == loop.centers_radii.tobytes()

    def test_coincident_centers_draw_the_same_directions(self):
        pos = np.array([[10.0, 10.0], [10.0, 10.0], [10.0, 10.0], [30.0, 30.0], [31.0, 30.5]])
        radii = np.full(5, 3.0)
        lengths = np.array(DOMAIN)
        rng_fast, rng_loop = np.random.default_rng(5), np.random.default_rng(5)
        fast = _relax_positions(pos.copy(), radii, lengths, 0.35, rng_fast)
        loop = relax_positions_loop(pos.copy(), radii, lengths, 0.35, rng_loop)
        assert fast.tobytes() == loop.tobytes()
        after = rng_fast.standard_normal(3)
        assert after.tobytes() == rng_loop.standard_normal(3).tobytes()
        # the coincident pairs did draw directions
        assert not np.array_equal(after, np.random.default_rng(5).standard_normal(3))


class TestSpinodal:
    def test_zero_steps_equivalent(self):
        # one tiny step of the semi-implicit update barely moves the field;
        # the labeling of the noisy initial state keeps its mean near 0.5
        p = SpinodalParams(steps=1, dt=1e-12)
        rve = generate_spinodal_rve(p, DOMAIN, (64, 64), seed=3)
        assert abs(rve.metadata["mean_concentration"] - 0.5) <= p.initial_noise_amplitude

    def test_mass_conservation_500_steps(self):
        p = SpinodalParams(steps=500)
        rve = generate_spinodal_rve(p, DOMAIN, (128, 128), seed=4)
        rng = np.random.default_rng(4)
        c0 = 0.5 + p.initial_noise_amplitude * rng.uniform(-1.0, 1.0, (128, 128))
        drift = abs(rve.metadata["mean_concentration"] - c0.mean())
        assert drift <= 1e-10

    @pytest.mark.parametrize("steps, shape", [(60, (64, 48)), (200, (64, 64)), (500, (48, 48))])
    def test_matches_fftfreq_reference(self, steps, shape):
        # pins the spectral Laplacian to the continuous wavenumbers |k|^2; a
        # finite-difference symbol would relabel about a third of the pixels
        p = SpinodalParams(steps=steps)
        rve = generate_spinodal_rve(p, DOMAIN, shape, seed=4)
        want = spinodal_labels_reference(p, DOMAIN, shape, seed=4)
        assert rve.grid.shape == shape
        assert np.count_nonzero(rve.grid != want) == 0

    def test_phase_fractions(self):
        for seed in (1, 2, 3):
            rve = generate_spinodal_rve(SpinodalParams(), DOMAIN, (256, 256), seed=seed)
            assert 0.4 <= rve.achieved_vof <= 0.6

    def test_blowup_guard(self):
        with pytest.raises(InstabilityError):
            generate_spinodal_rve(
                SpinodalParams(steps=1, initial_noise_amplitude=5.0), DOMAIN, (64, 64), seed=0
            )

    @pytest.mark.parametrize("shape", [(0, 64), (64, 0), (-3, 64)])
    def test_rejects_empty_resolution(self, shape):
        with pytest.raises(DomainError, match=r"resolution must be >= 1 per axis"):
            generate_spinodal_rve(SpinodalParams(steps=1), DOMAIN, shape, seed=0)

    @pytest.mark.parametrize("shape", [(64,), (64, 64, 64)])
    def test_rejects_resolution_without_two_entries(self, shape):
        with pytest.raises(DomainError, match=r"resolution must have two entries"):
            generate_spinodal_rve(SpinodalParams(steps=1), DOMAIN, shape, seed=0)

    def test_rejects_negative_seed_before_any_draw(self, monkeypatch):
        def no_draw(seed):
            raise AssertionError("drew before checking the seed")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            generate_spinodal_rve(SpinodalParams(steps=1), DOMAIN, (32, 32), seed=-1)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            SpinodalParams(steps=0)
        with pytest.raises(DomainError):
            SpinodalParams(threshold=1.0)


class TestAssignProperties:
    def test_equal_phases_homogeneous(self):
        grid = (np.arange(64).reshape(8, 8) % 2).astype(np.uint8)
        props = IsotropicProps(3.0, 0.3)
        c = assign_properties(grid, props, props)
        assert np.abs(c - c[0, 0]).max() == 0.0

    def test_all_matrix(self):
        grid = np.zeros((8, 8), np.uint8)
        c = assign_properties(grid, IsotropicProps(10, 0.2), IsotropicProps(2, 0.3))
        assert_allclose(c, np.broadcast_to(stiffness_from_enu(IsotropicProps(2, 0.3)), c.shape))

    def test_two_phase_counts(self):
        rng = np.random.default_rng(8)
        grid = (rng.uniform(size=(32, 32)) < 0.4).astype(np.uint8)
        fiber = IsotropicProps(28.0, 0.33)
        matrix = IsotropicProps(3.63, 0.34)
        c = assign_properties(grid, fiber, matrix)
        n_fiber = int(grid.sum())
        c_f = stiffness_from_enu(fiber)
        hits = np.all(np.isclose(c, c_f), axis=(2, 3)).sum()
        assert hits == n_fiber
