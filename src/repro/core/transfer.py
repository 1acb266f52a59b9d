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

:func:`transfer_apply` is the dense-tested definition of ``R_l``.  The
correction path does not run it: the load vector only ever needs
``R_l M_l c``, and :func:`mass_transfer_apply` evaluates that product
directly at the coarse nodes, so the fine-sized ``M_l c`` that the
restriction would throw half away of is never formed.
"""

from __future__ import annotations

import numpy as np

from .coefficients import restrict_nodes
from .grid import LevelOps, along, axis_weights

__all__ = ["transfer_apply", "mass_transfer_apply", "dense_transfer_matrix"]


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


def mass_transfer_apply(f: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """The load vector ``R_l M_l f`` along ``axis``, without forming ``M_l f``.

    ``R_l M_l`` is pentadiagonal at the coarse nodes
    (``ops.mass_transfer_bands``), so coarse node ``j`` at fine position
    ``p`` is five multiply-accumulates over basic slices of the ``[0::2]``
    and ``[1::2]`` progressions of ``f`` — every temporary is coarse-sized.
    Operand order is fixed: ``b2*f[p]``, then ``+ b1*f[p-1]``,
    ``+ b3*f[p+1]``, ``+ b0*f[p-2]``, ``+ b4*f[p+2]``; the tail node of an
    even-length level is one more slab, ``b2*f[p] + b1*f[p-1]``.

    Accumulates in and returns float64 (C-contiguous) whatever the input
    dtype, like the solve that consumes it.  Equal to
    ``transfer_apply(mass_apply(f, ops.h_fine, axis), ops, axis)`` up to
    rounding (a few ulp of ``max|f|`` times the weights; tested), not bit
    for bit.
    """
    axis %= f.ndim
    m = ops.m_fine
    if f.shape[axis] != m:
        raise ValueError(f"axis length {f.shape[axis]} does not match m_fine={m}")
    n_even = ops.n_even
    bands = ops.mass_transfer_bands
    shape = list(f.shape)
    shape[axis] = ops.m_coarse
    out = np.empty(shape, dtype=np.float64)
    shape[axis] = n_even
    tmp = np.empty(shape, dtype=np.float64)
    even = f[along(axis, slice(0, None, 2))]
    odd = f[along(axis, slice(1, None, 2))]
    np.multiply(
        axis_weights(bands[2, :n_even], f.ndim, axis), even, out=out[along(axis, slice(0, n_even))]
    )
    for k, first, src in (
        (1, 1, odd[along(axis, slice(0, n_even - 1))]),
        (3, 0, odd),
        (0, 1, even[along(axis, slice(0, n_even - 1))]),
        (4, 0, even[along(axis, slice(1, None))]),
    ):
        n = src.shape[axis]
        acc = out[along(axis, slice(first, first + n))]
        term = tmp[along(axis, slice(0, n))]
        np.multiply(axis_weights(bands[k, first:first + n], f.ndim, axis), src, out=term)
        np.add(acc, term, out=acc)
    if m % 2 == 0:
        tail = out[along(axis, slice(n_even, None))]
        np.multiply(bands[2, -1], f[along(axis, slice(m - 1, m))], out=tail)
        tail += bands[1, -1] * f[along(axis, slice(m - 2, m - 1))]
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
