"""Global-correction computation (paper §II.2 and Algorithm 3 lines 6–11).

The correction ``z_{l-1}`` is the L2 projection of the detail
coefficients onto the coarse space ``V_{l-1}``; it is obtained by solving

.. math:: M_{l-1} z_{l-1} = R_l M_l \\operatorname{vec}(C_l)

Because mass, transfer, and (hence) solve operators are tensor products
of per-dimension tridiagonal/bidiagonal operators, the solve factors into
a *dimension-by-dimension* sweep: along each coarsening dimension apply
the fine mass matrix, restrict the load vector, and solve with the coarse
mass matrix.  This is exactly the order of operations in the paper's
Algorithm 3 (first dimension, then second, then third), and it is why the
paper can reuse its three 2D linear-processing kernels for 3D data.

The first two of the three are one call,
:func:`~repro.core.transfer.mass_transfer_apply`: ``R_l M_l`` is a
pentadiagonal stencil at the coarse nodes, so it is evaluated there and
the fine-sized ``M_l c`` is never formed (``tests/literal_pipeline.py``
runs the paper's two kernels back to back as the reference).
"""

from __future__ import annotations

import numpy as np

from .grid import TensorHierarchy
from .solver import solve_correction
from .transfer import mass_transfer_apply

__all__ = ["compute_correction"]


def compute_correction(c: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Compute the correction ``z_{l-1}`` from level-``l`` coefficients.

    Parameters
    ----------
    c:
        Level-``l``-shaped coefficient array (zeros at coarse positions).
    hier:
        The tensor hierarchy.
    l:
        Global level of the step ``l -> l-1`` (``1 <= l <= hier.L``).

    Returns
    -------
    Correction with the packed shape of level ``l-1``.
    """
    if not 1 <= l <= hier.L:
        raise ValueError(f"correction defined for levels 1..{hier.L}, got {l}")
    if c.shape != hier.level_shape(l):
        raise ValueError(f"expected level-{l} shape {hier.level_shape(l)}, got {c.shape}")
    f = c
    for axis in hier.coarsening_dims(l):
        ops = hier.level_ops(l, axis)
        f = mass_transfer_apply(f, ops, axis)
        f = solve_correction(f, ops, axis)
    return f
