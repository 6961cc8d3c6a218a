"""Metamorphic oracles: symmetries of the cell and plate problems, no reference needed.

A periodic shift, a mirror and, on a square cell, a transpose of a fiber
cell's grid map its C̄ and A by known rules, to round-off.  Scaling both
moduli by a power of two scales every product of the solve exactly, so A
and the iteration counts are bitwise unchanged and C̄ scales bitwise; so do
the plate's displacement and reaction when its tangents double.
"""

import functools

import numpy as np
import pytest

from microhom.homogenization import homogenized_stiffness, strain_concentration
from microhom.microstructure import assign_properties, generate_fiber_rve
from microhom.plate import rect_plate_mesh, solve_plate
from microhom.solver import SolverConfig
from microhom.voigt import IsotropicProps

DOMAIN = (50.0, 50.0)
CELLS = {"square": (32, 32), "oblong": (48, 64)}  # oblong: 48 x 64 pixels that are not square
BOUND = 1e-13  # relative; measured at most 3.2e-15
MIRROR = np.diag([1.0, 1.0, -1.0])  # a mirror negates the shear strain
SWAP = [1, 0, 2]  # a transpose swaps the 11 and 22 components


def homogenize(grid, scale=1.0):
    """A and the raw C̄ of a contrast-34 cell at tol 1e-9, moduli times scale."""
    fiber, matrix = IsotropicProps(85.0 * scale, 0.2), IsotropicProps(2.5 * scale, 0.35)
    c_field = assign_properties(grid, fiber, matrix)
    conc = strain_concentration(c_field, SolverConfig(tol=1e-9), domain=DOMAIN)
    return conc, homogenized_stiffness(c_field, conc, symmetrize=False)[0]


@functools.cache
def solved(name):
    grid = generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, CELLS[name], seed=3).grid
    return (grid, *homogenize(grid))


def assert_close(value, expected):
    assert np.abs(value - expected).max() <= BOUND * np.abs(expected).max()


@pytest.mark.parametrize("name", CELLS)
def test_periodic_shift_rolls_a_and_keeps_cbar(name):
    grid, conc, cbar = solved(name)
    shifted, cbar_shifted = homogenize(np.roll(grid, (5, -7), axis=(0, 1)))
    assert_close(cbar_shifted, cbar)
    assert_close(shifted.a, np.roll(conc.a, (5, -7), axis=(0, 1)))


@pytest.mark.parametrize("axis", [0, 1], ids=["x1", "x2"])
@pytest.mark.parametrize("name", CELLS)
def test_mirror_negates_the_shear_row_and_column(name, axis):
    grid, conc, cbar = solved(name)
    mirrored, cbar_mirrored = homogenize(np.flip(grid, axis))
    assert_close(cbar_mirrored, MIRROR @ cbar @ MIRROR)
    assert_close(mirrored.a, MIRROR @ np.flip(conc.a, axis) @ MIRROR)


def test_transpose_swaps_11_and_22():
    grid, conc, cbar = solved("square")
    transposed, cbar_transposed = homogenize(grid.T)
    assert_close(cbar_transposed, cbar[SWAP][:, SWAP])
    assert_close(transposed.a, conc.a.transpose(1, 0, 2, 3)[..., SWAP, :][..., SWAP])


@pytest.mark.parametrize("scale", [2.0, 0.5])
@pytest.mark.parametrize("name", CELLS)
def test_scaled_moduli_keep_a_and_scale_cbar_exactly(name, scale):
    grid, conc, cbar = solved(name)
    scaled, cbar_scaled = homogenize(grid, scale)
    assert scaled.a.tobytes() == conc.a.tobytes()
    assert scaled.metadata["loads"] == conc.metadata["loads"]  # iterations and residuals
    assert np.array_equal(cbar_scaled, scale * cbar)


def test_doubled_plate_tangents_keep_u_and_double_the_reaction():
    mesh = rect_plate_mesh(3, 4, 0.05, 0.04)
    a = np.random.default_rng(0).standard_normal((len(mesh.elems), 3, 3))
    tangents = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(3)
    for state, doubled in zip(solve_plate(mesh, tangents, 2, 0.02),
                              solve_plate(mesh, 2.0 * tangents, 2, 0.02), strict=True):
        assert doubled.displacement.tobytes() == state.displacement.tobytes()
        assert doubled.reaction == 2.0 * state.reaction
        assert np.array_equal(doubled.stress_m, 2.0 * state.stress_m)
