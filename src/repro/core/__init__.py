"""Core multigrid hierarchical data-refactoring algorithms.

The primary contribution of the reproduced paper: decomposition and
recomposition of multi-dimensional (optionally non-uniform) structured
data into progressively refinable coefficient classes.
"""

from .classes import (
    CoefficientClasses,
    assemble_from_classes,
    class_sizes,
    detail_mask,
    extract_classes,
    num_classes,
    reconstruct_from_classes,
)
from .coefficients import (
    compute_coefficients,
    interpolate_coarse,
    prolong,
    restore_from_coefficients,
    restrict_nodes,
)
from .correction import compute_correction, restrict_and_correct, subtract_correction
from .decompose import decompose, recompose
from .errors import class_decay, l2, linf, psnr, rel_l2, rel_linf
from .grid import (
    Hierarchy1D,
    LevelOps,
    TensorHierarchy,
    clear_hierarchy_cache,
    dyadic_size,
    hierarchy_for,
    num_levels_for_size,
)
from .mass import dense_mass_matrix, mass_apply, mass_apply_coarse
from .refactor import Refactorer
from .snorm import class_snorm, classes_for_tolerance, truncation_estimate
from .solver import solve_correction, thomas_factor, thomas_solve
from .transfer import dense_transfer_matrix, mass_transfer_apply, transfer_apply

__all__ = [
    "CoefficientClasses",
    "Hierarchy1D",
    "LevelOps",
    "Refactorer",
    "TensorHierarchy",
    "assemble_from_classes",
    "class_decay",
    "class_snorm",
    "classes_for_tolerance",
    "class_sizes",
    "clear_hierarchy_cache",
    "compute_coefficients",
    "compute_correction",
    "decompose",
    "dense_mass_matrix",
    "dense_transfer_matrix",
    "detail_mask",
    "dyadic_size",
    "extract_classes",
    "hierarchy_for",
    "interpolate_coarse",
    "l2",
    "linf",
    "mass_apply",
    "mass_apply_coarse",
    "mass_transfer_apply",
    "num_classes",
    "num_levels_for_size",
    "prolong",
    "psnr",
    "recompose",
    "reconstruct_from_classes",
    "rel_l2",
    "rel_linf",
    "restore_from_coefficients",
    "restrict_and_correct",
    "restrict_nodes",
    "solve_correction",
    "subtract_correction",
    "thomas_factor",
    "thomas_solve",
    "transfer_apply",
    "truncation_estimate",
]
