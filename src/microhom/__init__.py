"""Computational micromechanics for 2D periodic composites.

Generates periodic two-phase microstructures, solves their micro-elasticity
by Green-preconditioned spectral conjugate gradients, homogenizes effective
stiffness, mass-produces labeled concentration-tensor datasets, and runs
concurrent two-scale plate analyses.
"""

from .arrayio import read_array, write_array, write_pgm
from .dataset import (
    DatasetConfig,
    generate_dataset,
    lhs_sample,
    sample_seed,
    stratify_vof,
    validate_dataset,
)
from .errors import (
    ConfigError,
    DegenerateMediumError,
    DomainError,
    InstabilityError,
    MeshError,
    NonConvergenceError,
    PackingError,
    SingularityError,
    ZeroMeanStressError,
)
from .green import (
    ROTATED,
    FreqGrid,
    GreenField,
    apply_green,
    frequency_vector,
    green_operator,
    make_freq_grid,
    reference_material,
)
from .homogenization import (
    ConcentrationField,
    anisotropy_indicator,
    homogenized_stiffness,
    reconstruct_strain,
    reuss_voigt_bounds,
    strain_concentration,
)
from .microstructure import (
    Microstructure,
    SpinodalParams,
    assign_properties,
    generate_fiber_rve,
    generate_spinodal_rve,
    rasterize_discs,
)
from .plate import (
    GRFConfig,
    MacroMesh,
    MacroState,
    element_response,
    kl_field,
    recover_micro,
    rect_plate_mesh,
    run_multiscale,
    solve_plate,
)
from .solver import SolverConfig, SolveResult, convergence_metric, solve_unit_load
from .voigt import (
    IsotropicProps,
    Lame,
    effective_enu,
    lame_from_enu,
    stiffness_from_enu,
    stiffness_from_lame,
)

__version__ = "0.1.0"
