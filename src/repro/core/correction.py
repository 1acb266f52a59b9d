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

``decompose`` and ``recompose`` do not call :func:`compute_correction`
itself but what they do with it — :func:`restrict_and_correct` (``v`` on
the coarse nodes plus the correction) and :func:`subtract_correction`
(the coarse values minus the correction of coefficients whose coarse
entries are taken as zero).  On float32/float64 input each is two C passes
over the planes of the level's first coarsening axis
(:func:`repro.core.native.level_correct`): the stencil and forward sweep
along that axis, then the back substitution, the other axes' stencil and
solve and the restrict-and-add a block of planes at a time, so no
fine-sized temporary but one is formed; the NumPy bodies below are the
reference, same operations in the same order, same bits.
"""

from __future__ import annotations

import numpy as np

from . import native
from .coefficients import zero_coarse_entries
from .grid import TensorHierarchy
from .solver import solve_correction
from .transfer import mass_transfer_apply

__all__ = ["compute_correction", "restrict_and_correct", "subtract_correction"]


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


def restrict_and_correct(v: np.ndarray, c: np.ndarray, hier: TensorHierarchy, l: int,
                         out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None) -> np.ndarray:
    """``v[coarse] + compute_correction(c)``: the level-``l-1`` nodal values of
    a decomposition step, float64, into ``out`` when given (``scratch``, float64,
    lends the C passes their buffers)."""
    if v.shape != hier.level_shape(l) or c.shape != v.shape:
        raise ValueError(f"expected level-{l} shape {hier.level_shape(l)}, got {v.shape}, {c.shape}")
    got = native.level_correct(1, v, c, hier, l, out, scratch)
    if got is not None:
        return got
    return np.add(v[hier.coarse_selector(l)], compute_correction(c, hier, l), out=out)


def subtract_correction(v: np.ndarray, c: np.ndarray, hier: TensorHierarchy, l: int,
                        out: np.ndarray | None = None,
                        scratch: np.ndarray | None = None) -> np.ndarray:
    """``v - compute_correction(c)`` with ``c``'s coarse entries taken as zero
    (``c`` is not written): the level-``l-1`` values of a recomposition step
    before its correction, float64, into ``out`` when given."""
    if v.shape != hier.level_shape(l - 1) or c.shape != hier.level_shape(l):
        raise ValueError(f"expected level-{l} coefficients and level-{l - 1} values, "
                         f"got {c.shape}, {v.shape}")
    got = native.level_correct(-1, v, c, hier, l, out, scratch)
    if got is not None:
        return got
    c = zero_coarse_entries(c.copy(), hier, l)
    return np.subtract(v, compute_correction(c, hier, l), out=out)
