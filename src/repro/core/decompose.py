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
restored level-``L`` array.  The paper's device design keeps a separate
output array and working buffer ("the size of working memory space is
equal to the original input size") and pays a copy, a pack and a
full-size store for it; the drivers report those three movements to the
engine (:meth:`~repro.core.engine.Engine.elided`) so metered engines
still account for Algorithm 3 as published.
"""

from __future__ import annotations

import numpy as np

from . import coefficients as _coef
from .correction import compute_correction
from .engine import Engine, NumpyEngine
from .grid import TensorHierarchy

__all__ = ["decompose", "recompose", "restrict_all"]


def restrict_all(v: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Level-``l-1`` nodal values of a packed level-``l`` array.

    A strided view when every coarsening dimension has odd length, a
    gathered copy otherwise.
    """
    return v[hier.coarse_selector(l)]


def decompose(
    data: np.ndarray,
    hier: TensorHierarchy | None = None,
    engine: Engine | None = None,
) -> np.ndarray:
    """Refactor ``data`` into its multilevel coefficient representation.

    Returns an array of the same shape holding, at each node, the detail
    coefficient of the level at which the node leaves the hierarchy (or
    the corrected nodal value for the coarsest nodes).
    """
    if hier is None:
        hier = TensorHierarchy.from_shape(data.shape)
    if engine is None:
        engine = NumpyEngine()
    data = hier.validate_array(data)
    engine.begin("decompose", hier)
    try:
        if hier.L == 0:
            return engine.copy(data, reason="output", level=hier.L)
        engine.elided("copy", hier.shape, reason="output", level=hier.L)
        engine.elided("pack", hier.shape, reason="pack-finest", level=hier.L)
        v = data  # read only: every step below returns a new array
        out = None
        for l in range(hier.L, 0, -1):
            c = engine.compute_coefficients(v, hier, l)
            # Persist this level's coefficients; the coarse-position zeros
            # are overwritten by the coarser levels' scatters below.
            if l == hier.L:
                out = c  # dead after this level's correction: adopt it, don't copy it
                engine.elided("unpack", hier.shape, reason="store-coefficients", level=l)
            else:
                engine.unpack(c, out, hier.level_selector(l), reason="store-coefficients", level=l)
            z = compute_correction(c, hier, l, engine)
            v = engine.add_correction(v, z, hier, l)
        engine.unpack(v, out, hier.level_selector(0), reason="store-coarsest", level=0)
        return out
    finally:
        engine.end("decompose")


def recompose(
    refactored: np.ndarray,
    hier: TensorHierarchy | None = None,
    engine: Engine | None = None,
) -> np.ndarray:
    """Invert :func:`decompose`, reconstructing the original nodal values."""
    if hier is None:
        hier = TensorHierarchy.from_shape(refactored.shape)
    if engine is None:
        engine = NumpyEngine()
    refactored = hier.validate_array(refactored)
    engine.begin("recompose", hier)
    try:
        if hier.L == 0:
            return engine.copy(refactored, reason="output", level=hier.L)
        engine.elided("copy", hier.shape, reason="output", level=hier.L)
        v = engine.pack(refactored, hier.level_selector(0), reason="pack-coarsest", level=0)
        for l in range(1, hier.L + 1):
            c = engine.pack(
                refactored, hier.level_selector(l), reason="pack-coefficients", level=l
            )
            # Coarse positions of this packed read carry the payloads of
            # coarser levels (already consumed); the coefficient array used
            # for the correction must be zero there (paper: C_l has zeros
            # at N_{l-1}).
            c = _coef.zero_coarse_entries(c, hier, l)
            z = compute_correction(c, hier, l, engine)
            vc = engine.subtract_correction(v, z, hier, l)
            v = engine.restore_from_coefficients(c, vc, hier, l)
        engine.elided("unpack", hier.shape, reason="store-restored", level=hier.L)
        # the restored level-L array is the result, in the input's precision
        return v.astype(refactored.dtype, copy=False)
    finally:
        engine.end("recompose")
