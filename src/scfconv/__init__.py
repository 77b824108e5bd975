"""Convergence analysis toolkit for SCF iterations on density matrices.

Solves nonlinear eigenvector problems A(P) = A0 + L(P) by fixed-point
iteration on the density matrix, assembles the exact Jacobian of the
fixed-point map at the solution, and evaluates the exact local convergence
factor together with a family of spectral-norm and higher-gap upper bounds.
"""

from .matops import (
    ChemicalPotentialError,
    ZeroGapError,
    divided_difference_matrix,
    fermi_chemical_potential,
    fermi_occupations,
    require_hermitian,
    spectral_filter_density,
    vech,
    vech_index,
    vech_inv,
)
from .problems import (
    DiagonalMap,
    GeneralVec,
    HadamardMask,
    Problem,
    apply_L,
    assemble_Lprime,
    build_illustrative,
    build_laplacian,
    load_problem,
    save_problem,
)
from .scf import (
    ScfOptions,
    estimate_rate,
    locate_fixed_point,
    locate_fixed_points,
    scf_solve,
    scf_step,
)
from .analysis import (
    LADDER,
    ConvergenceReport,
    GapStructure,
    JacobianBundle,
    analyze_problem,
    assemble_jacobian,
    bound_c2,
    bound_cyclic,
    bound_gap_all,
    bound_liu,
    bound_rank_truncated,
    convergence_factor,
    cyclic_spectral_radii,
    gap_structure,
    jacobian_fd,
    ladder,
    max_column_relative_error,
    realified_jacobian_fd,
)

__all__ = [
    "ChemicalPotentialError",
    "ZeroGapError",
    "divided_difference_matrix",
    "fermi_chemical_potential",
    "fermi_occupations",
    "require_hermitian",
    "spectral_filter_density",
    "vech",
    "vech_index",
    "vech_inv",
    "DiagonalMap",
    "GeneralVec",
    "HadamardMask",
    "Problem",
    "apply_L",
    "assemble_Lprime",
    "build_illustrative",
    "build_laplacian",
    "load_problem",
    "save_problem",
    "ScfOptions",
    "estimate_rate",
    "locate_fixed_point",
    "locate_fixed_points",
    "scf_solve",
    "scf_step",
    "LADDER",
    "ConvergenceReport",
    "GapStructure",
    "JacobianBundle",
    "analyze_problem",
    "assemble_jacobian",
    "bound_c2",
    "bound_cyclic",
    "bound_gap_all",
    "bound_liu",
    "bound_rank_truncated",
    "convergence_factor",
    "cyclic_spectral_radii",
    "gap_structure",
    "jacobian_fd",
    "ladder",
    "max_column_relative_error",
    "realified_jacobian_fd",
]

__version__ = "0.1.0"
