"""Transfer-matrix (load-vector restriction) along one axis.

The correction step of the refactoring algorithm needs the load vector
``f_{l-1} = R_l M_l c`` where ``R_l`` converts a functional on the fine
basis ``V_l`` into one on the coarse basis ``V_{l-1}``.  Because the
coarse hat functions are linear combinations of fine hat functions,
``R_l = P_l^T`` where ``P_l`` is the prolongation (piecewise-linear
interpolation) matrix.  On a non-uniform grid, a coarse node ``j``
(fine position ``p_j``) gathers its own fine value plus the weighted
values of the detail nodes of its two adjacent intervals::

    (R f)[j] = f[p_j] + w_right[j-1] * f[d_{j-1}] + w_left[j] * f[d_j]

with ``d_j`` the detail node inside interval ``j`` (if any) and the
interpolation weights of :class:`repro.core.grid.LevelOps`.

The inverse-direction operator (prolongation) lives in
:mod:`repro.core.coefficients` since it is also the interpolation used
to compute detail coefficients.
"""

from __future__ import annotations

import numpy as np

from .coefficients import restrict_nodes
from .grid import LevelOps, along, axis_weights

__all__ = ["transfer_apply", "dense_transfer_matrix"]


def transfer_apply(f: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Restrict a load vector from the fine to the coarse grid along ``axis``.

    Parameters
    ----------
    f:
        Packed level-``l`` load values; ``axis`` must have length
        ``ops.m_fine``.
    ops:
        Per-(dimension, level) operator data.
    axis:
        Axis along which the restriction acts.  The returned array has
        length ``ops.m_coarse`` along that axis.
    """
    out = restrict_nodes(f, ops, axis=axis)  # own fine value of every coarse node
    nd = ops.m_detail
    if nd:
        # every detail node feeds its interval's left coarse node, then the
        # right one; the tail interval of an even-length level holds none
        axis %= f.ndim
        detail = f[along(axis, slice(1, ops.m_fine - 1, 2))]
        tmp = np.empty(detail.shape, dtype=np.result_type(f.dtype, ops.w_left.dtype))
        out[along(axis, slice(0, nd))] += np.multiply(
            axis_weights(ops.w_left[:nd], f.ndim, axis), detail, out=tmp
        )
        out[along(axis, slice(1, nd + 1))] += np.multiply(
            axis_weights(ops.w_right[:nd], f.ndim, axis), detail, out=tmp
        )
    return out


def dense_transfer_matrix(ops: LevelOps) -> np.ndarray:
    """Dense ``R_l`` for validation on small grids."""
    R = np.zeros((ops.m_coarse, ops.m_fine))
    R[np.arange(ops.m_coarse), ops.coarse_pos] = 1.0
    idx = np.nonzero(ops.has_detail)[0]
    for j in idx:
        d = ops.interval_detail[j]
        R[j, d] = ops.w_left[j]
        R[j + 1, d] = ops.w_right[j]
    return R
