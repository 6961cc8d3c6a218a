"""Computational micromechanics for 2D periodic composites.

Generates periodic two-phase microstructures, solves their micro-elasticity
by Green-preconditioned spectral conjugate gradients, homogenizes effective
stiffness, mass-produces labeled concentration-tensor datasets, and runs
concurrent two-scale plate analyses.

Each name is imported from its module (from microhom.solver import
solve_unit_load); importing the package loads every library module, not the
command-line front end.
"""

from . import (arrayio, config, dataset, errors, green, homogenization, microstructure, plate,
               solver, voigt)

__version__ = "0.1.0"
