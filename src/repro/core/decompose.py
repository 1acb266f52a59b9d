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

Each step is two calls per direction — the coefficients
(``compute_coefficients`` / ``restore_from_coefficients``) and the fused
correction (``restrict_and_correct`` / ``subtract_correction``) — and on
float32/float64 data each is one C walk over the planes of the level's
first coarsening axis (:mod:`repro.core.native`), with the NumPy bodies as
the bit-identical reference.

The drivers never mutate their input and never return memory shared
with it.  On the host they also never move data whose contents are dead:
``decompose`` reads the input as its level-``L`` working array, adopts
the level-``L`` coefficient array as the output and writes each coarser
level's coefficients straight into it where its nodes are a float64 view;
``recompose`` reads each level of the refactored array in place (its
coarse positions are ignored, not zeroed in a copy) and writes the
restored level-``L`` array, in the input's precision, as the result.  The
coarse values of every level and the C passes' scratch come from one
allocation per call (``_Workspace``).  What the paper's device design moves in
addition (and what that costs) is modeled over shapes alone by
:func:`repro.kernels.launches.iter_decompose_launches`.
"""

from __future__ import annotations

import numpy as np

from . import coefficients as _coef
from . import native
from .correction import restrict_and_correct, subtract_correction
from .grid import TensorHierarchy

__all__ = ["decompose", "recompose", "restrict_all"]


def restrict_all(v: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Level-``l-1`` nodal values of a packed level-``l`` array.

    A strided view when every coarsening dimension has odd length, a
    gathered copy otherwise.
    """
    return v[hier.coarse_selector(l)]


class _Workspace:
    """The one allocation of a ``decompose`` / ``recompose`` call, reused down
    the levels: ``slots`` float64 arrays of up to the level-``L-1`` size and
    the C passes' scratch.  No slots (``None``: each step allocates its own
    result) where the levels are not computed in float64 — longdouble input."""

    def __init__(self, hier: TensorHierarchy, slots: int, dtype: np.dtype):
        self.size = hier.num_nodes(hier.L - 1)
        self.slots = slots if np.result_type(dtype, np.float64) == np.float64 else 0
        self.buf = np.empty(self.slots * self.size + native.level_scratch(hier))
        self.scratch = self.buf[self.slots * self.size:]

    def array(self, slot: int, shape: tuple[int, ...]) -> np.ndarray | None:
        start = slot * self.size
        return self.buf[start:start + int(np.prod(shape))].reshape(shape) if self.slots else None


def _view(out: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray | None:
    """``out``'s level-``l`` nodes as a float64 view, where they are one."""
    sel = hier.level_selector(l)
    if out.dtype == np.float64 and all(isinstance(s, slice) for s in sel):
        return out[sel]
    return None


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
    out = np.empty(data.shape, data.dtype)  # level L's coefficients, adopted as the output
    work = _Workspace(hier, 3, data.dtype)
    v = data  # read only: every step below writes elsewhere
    for l in range(hier.L, 0, -1):
        if l == hier.L:
            c = _coef.compute_coefficients(v, hier, l, out=out, scratch=work.scratch)
        else:
            # straight into the output's level-l nodes where they are a float64
            # view; else a float64 array the correction reads, then scattered
            view = _view(out, hier, l)
            c = _coef.compute_coefficients(
                v, hier, l, out=view if view is not None else work.array(2, hier.level_shape(l)),
                scratch=work.scratch)
            if view is None:
                out[hier.level_selector(l)] = c
        # the coarse values alternate between two slots: one is read, one written
        slot = (hier.L - l) % 2
        v = restrict_and_correct(v, c, hier, l, out=work.array(slot, hier.level_shape(l - 1)),
                                 scratch=work.scratch)
    out[hier.level_selector(0)] = v
    return out


def recompose(refactored: np.ndarray, hier: TensorHierarchy | None = None) -> np.ndarray:
    """Invert :func:`decompose`, reconstructing the original nodal values."""
    if hier is None:
        hier = TensorHierarchy.from_shape(refactored.shape)
    refactored = hier.validate_array(refactored)
    if hier.L == 0:
        return refactored.copy()
    result = np.empty(hier.shape, refactored.dtype)  # the restored level L, in the input's precision
    work = _Workspace(hier, 2, refactored.dtype)
    v = refactored[hier.level_selector(0)]
    for l in range(1, hier.L + 1):
        # This packed read is a view of ``refactored`` for slice selectors and
        # is never written: its coarse positions carry the payloads of coarser
        # levels (already consumed), which the correction takes as zero (paper:
        # C_l has zeros at N_{l-1}) and the restore replaces by the coarse values.
        c = refactored[hier.level_selector(l)]
        vc = subtract_correction(v, c, hier, l, out=work.array(0, hier.level_shape(l - 1)),
                                 scratch=work.scratch)
        out = result if l == hier.L else work.array(1, hier.level_shape(l))
        v = _coef.restore_from_coefficients(c, vc, hier, l, out=out, scratch=work.scratch)
    return v
