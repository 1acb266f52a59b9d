"""Decomposition and recomposition drivers (paper Algorithm 3).

``decompose`` walks the hierarchy from the finest grid (global level
``L``) down to the coarsest (level 0).  At every step it

1. computes the detail coefficients of the current grid,
2. scatters them into the output array at the finest-grid positions of
   the current level's nodes (coarser levels will overwrite the subset
   of positions they own, so after the loop every position holds exactly
   the payload of the *coarsest* level in which it appears — detail
   coefficients for detail nodes, nodal values for the final coarse
   nodes; this matches the in-place layout of the paper's Figure 3),
3. computes the global correction from the coefficients and adds it to
   the coarse nodal values, which become the next iteration's grid.

``recompose`` inverts the walk: from the coarsest nodal values upward it
recomputes the (deterministic) correction from the stored coefficients,
subtracts it to recover the coarse values as they were *before* the
correction, and restores the fine nodal values from the coefficients.
With all coefficients intact the round trip is bit-tight (≤ a few ulps).

The drivers never mutate their input and never return memory shared
with it.  On the host they also never move data whose contents are dead:
``decompose`` reads the input as its level-``L`` working array and adopts
the level-``L`` coefficient array as the output, ``recompose`` returns the
restored level-``L`` array.  What the paper's device design moves in
addition (and what that costs) is modeled over shapes alone by
:func:`repro.kernels.launches.iter_decompose_launches`.
"""

from __future__ import annotations

import numpy as np

from . import coefficients as _coef
from .correction import compute_correction
from .grid import TensorHierarchy

__all__ = ["decompose", "recompose", "restrict_all"]


def restrict_all(v: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Level-``l-1`` nodal values of a packed level-``l`` array.

    A strided view when every coarsening dimension has odd length, a
    gathered copy otherwise.
    """
    return v[hier.coarse_selector(l)]


def decompose(data: np.ndarray, hier: TensorHierarchy | None = None) -> np.ndarray:
    """Refactor ``data`` into its multilevel coefficient representation.

    Returns an array of the same shape holding, at each node, the detail
    coefficient of the level at which the node leaves the hierarchy (or
    the corrected nodal value for the coarsest nodes).
    """
    if hier is None:
        hier = TensorHierarchy.from_shape(data.shape)
    data = hier.validate_array(data)
    if hier.L == 0:
        return data.copy()
    v = data  # read only: every step below returns a new array
    out = None
    for l in range(hier.L, 0, -1):
        c = _coef.compute_coefficients(v, hier, l)
        # Persist this level's coefficients; the coarse-position zeros
        # are overwritten by the coarser levels' scatters below.
        if l == hier.L:
            out = c  # dead after this level's correction: adopt it, don't copy it
        else:
            out[hier.level_selector(l)] = c
        v = restrict_all(v, hier, l) + compute_correction(c, hier, l)
    out[hier.level_selector(0)] = v
    return out


def recompose(refactored: np.ndarray, hier: TensorHierarchy | None = None) -> np.ndarray:
    """Invert :func:`decompose`, reconstructing the original nodal values."""
    if hier is None:
        hier = TensorHierarchy.from_shape(refactored.shape)
    refactored = hier.validate_array(refactored)
    if hier.L == 0:
        return refactored.copy()
    v = refactored[hier.level_selector(0)]
    for l in range(1, hier.L + 1):
        # Coarse positions of this packed read carry the payloads of
        # coarser levels (already consumed); the coefficient array used
        # for the correction must be zero there (paper: C_l has zeros
        # at N_{l-1}).  Copy first: a slice selector yields a view of
        # ``refactored``, which is never written.
        c = _coef.zero_coarse_entries(refactored[hier.level_selector(l)].copy(), hier, l)
        vc = v - compute_correction(c, hier, l)
        v = _coef.restore_from_coefficients(c, vc, hier, l)
    # the restored level-L array is the result, in the input's precision
    return v.astype(refactored.dtype, copy=False)
