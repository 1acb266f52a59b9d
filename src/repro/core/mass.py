"""Non-uniform mass-matrix application along one axis of a packed grid.

This is the vectorized host-side reference for the paper's *mass matrix
multiplication* kernel (Algorithm 2 of Chen et al.).  The tridiagonal
piecewise-linear FEM mass matrix on a non-uniform 1D grid with spacings
``h_i = x_i - x_{i-1}`` has rows::

    (M u)[i] = h_i/6 * u[i-1] + (h_i + h_{i+1})/3 * u[i] + h_{i+1}/6 * u[i+1]

with the natural one-sided rows at the two boundary nodes.  The paper's
Algorithm 2 computes ``6 M`` (it folds the 1/6 into later stages); we keep
the mathematically-normalized ``M`` so the correction equation
``M_{l-1} z = R_l M_l c`` can be checked directly against dense linear
algebra in the tests.

All functions operate along an arbitrary ``axis`` of a multi-dimensional
array, broadcasting over every other axis.  They never modify the input.
"""

from __future__ import annotations

import numpy as np

from .grid import along, axis_weights

__all__ = ["mass_apply", "mass_apply_coarse", "dense_mass_matrix"]


def mass_apply(v: np.ndarray, h: np.ndarray, axis: int = -1) -> np.ndarray:
    """Apply the mass matrix of the grid with spacings ``h`` along ``axis``.

    ``h`` is ``LevelOps.h_fine`` (length ``m_fine - 1``) for the level-``l``
    matrix, ``LevelOps.h_coarse`` for the level-``l-1`` one
    (:func:`mass_apply_coarse` is the same function); the length of
    ``axis`` must be ``len(h) + 1``.

    Works along ``axis`` in the array's own layout (no axis move): each
    term of the interior row is one ufunc over a basic slice, accumulated
    through ``out=`` so the only temporary is one product buffer.  Operand
    order is ``(hl*u[i-1] + 2(hl+hr)*u[i]) + hr*u[i+1]``, then ``/ 6`` —
    fixed, because every kernel backend must agree on it bit for bit.
    """
    axis %= v.ndim
    m = v.shape[axis]
    if m == 1:
        # Degenerate single-node axis: the 1x1 "mass" is the identity.
        return v.copy()
    if h.shape[0] != m - 1:
        raise ValueError(f"spacing array of length {h.shape[0]} does not match axis size {m}")
    out = np.empty(v.shape, dtype=v.dtype)
    hl = axis_weights(h[:-1], v.ndim, axis)  # h_i      for interior node i = 1..m-2
    hr = axis_weights(h[1:], v.ndim, axis)  # h_{i+1}
    lo, mid, hi = (v[along(axis, sl)] for sl in (slice(0, -2), slice(1, -1), slice(2, None)))
    interior = out[along(axis, slice(1, -1))]
    # accumulate in the product dtype (float64 weights), round once on the divide
    wide = np.result_type(v.dtype, h.dtype)
    acc = interior if out.dtype == wide else np.empty(interior.shape, dtype=wide)
    tmp = np.empty(interior.shape, dtype=wide)
    np.multiply(hl, lo, out=acc)
    acc += np.multiply(2.0 * (hl + hr), mid, out=tmp)
    acc += np.multiply(hr, hi, out=tmp)
    np.divide(acc, 6.0, out=interior)
    first, second, penult, last = (v[along(axis, i)] for i in (0, 1, -2, -1))
    out[along(axis, 0)] = (2.0 * h[0] * first + h[0] * second) / 6.0
    out[along(axis, -1)] = (h[-1] * penult + 2.0 * h[-1] * last) / 6.0
    return out


mass_apply_coarse = mass_apply


def dense_mass_matrix(x: np.ndarray) -> np.ndarray:
    """Dense mass matrix for validation on small grids."""
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    M = np.zeros((m, m))
    if m == 1:
        M[0, 0] = 1.0
        return M
    h = np.diff(x)
    for i in range(m - 1):
        M[i, i] += h[i] / 3.0
        M[i + 1, i + 1] += h[i] / 3.0
        M[i, i + 1] += h[i] / 6.0
        M[i + 1, i] += h[i] / 6.0
    return M
