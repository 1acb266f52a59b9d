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

On float32/float64 data the whole walk is one C call per direction
(:func:`repro.core.native.refactor`): it reads and writes each level where
its nodes lie in the field — ``[0::2^m]`` per axis plus, on an axis that is
not ``2^k + 1`` long, its last node — so no level is gathered or scattered
by the host.  The loops below, over the NumPy bodies of
:mod:`repro.core.coefficients` and :mod:`repro.core.correction`, are the
bit-identical ``reference``.

The drivers never mutate their input and never return memory shared
with it: ``decompose`` writes the level-``L`` coefficients, then each
coarser level's, into a new array of the input's dtype (float32 levels
below ``L`` are computed in float64 and rounded once into it);
``recompose`` reads each level of the refactored array in place (its
coarse positions are ignored, not zeroed in a copy) and writes the
restored level-``L`` array, in the input's precision, as the result.
What the paper's device design moves (and what that costs) is modeled
over shapes alone by :func:`repro.kernels.launches.iter_decompose_launches`.
"""

from __future__ import annotations

import numpy as np

from . import coefficients as _coef
from . import native
from .correction import restrict_and_correct, subtract_correction
from .grid import TensorHierarchy

__all__ = ["decompose", "recompose"]


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
    out = native.refactor(data, hier)
    if out is not None:
        return out
    out = np.empty(data.shape, data.dtype)
    v = data  # read only: every step below writes elsewhere
    for l in range(hier.L, 0, -1):
        c = _coef.compute_coefficients(v, hier, l)
        out[hier.level_selector(l)] = c  # coarser levels overwrite their nodes
        v = restrict_and_correct(v, c, hier, l)
    out[hier.level_selector(0)] = v
    return out


def recompose(refactored: np.ndarray, hier: TensorHierarchy | None = None) -> np.ndarray:
    """Invert :func:`decompose`, reconstructing the original nodal values."""
    if hier is None:
        hier = TensorHierarchy.from_shape(refactored.shape)
    refactored = hier.validate_array(refactored)
    if hier.L == 0:
        return refactored.copy()
    result = native.refactor(refactored, hier, inverse=True)
    if result is not None:
        return result
    v = refactored[hier.level_selector(0)]
    for l in range(1, hier.L + 1):
        # ``c`` is never written: its coarse positions hold coarser levels' payloads,
        # which the correction takes as zero (C_l has zeros at N_{l-1}) and the restore replaces
        c = refactored[hier.level_selector(l)]
        v = _coef.restore_from_coefficients(c, subtract_correction(v, c, hier, l), hier, l)
    return v.astype(refactored.dtype, copy=False)  # level L, rounded once into the input's precision
