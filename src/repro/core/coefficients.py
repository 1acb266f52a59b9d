"""Detail-coefficient computation and restoration (grid-processing kernels).

At each decomposition step the data on the level-``l`` grid is split into

* the values at the coarse nodes ``N_{l-1}`` and
* *detail coefficients* ``(I - Π_{l-1}) Q_l u`` at the nodes
  ``N_l \\ N_{l-1}``: the difference between the nodal value and its
  multi-linear interpolation from the surrounding coarse nodes.

Because the grid is a tensor product, the multi-linear interpolant
``Π_{l-1}`` factors into a composition of 1D interpolations, one per
*coarsening* dimension.  ``prolong`` applies a single 1D interpolation
along an axis; ``interpolate_coarse`` composes them; ``compute_coefficients``
and ``restore_from_coefficients`` are the forward/inverse grid-processing
kernels of the paper (§III-A.1).

The functions are exact inverses of each other by construction: the
interpolant is evaluated from the *same* coarse nodal values in both
directions, and at coarse positions the prolongation is an exact copy, so
a decompose/recompose round trip is lossless to floating-point rounding.

:func:`compute_coefficients` and :func:`restore_from_coefficients` run in
C on float32/float64 operands (:mod:`repro.core.native`), one plane of the
level's first coarsening axis at a time: the plane's coarse nodes (or
their interpolation from the two neighbouring planes), the fills of the
other coarsening axes in :func:`interpolate_coarse`'s order, then the
subtraction (or addition and re-injection) while the plane is in cache.
Every node gets the NumPy bodies' operations, so the bits are theirs;
those bodies are the ``reference`` backend.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import native
from .grid import LevelOps, TensorHierarchy, along, axis_weights

__all__ = [
    "prolong",
    "restrict_nodes",
    "interpolate_coarse",
    "compute_coefficients",
    "restore_from_coefficients",
    "zero_coarse_entries",
]


def _fill_details(out: np.ndarray, rows: list, ops: LevelOps, axis: int) -> None:
    """Interpolate the detail nodes along ``axis`` from their coarse neighbours, in place.

    ``rows`` restricts every other axis (a list of slices, entry ``axis``
    ignored).  Each detail node ``d`` receives
    ``w_left * out[d-1] + w_right * out[d+1]``, summed in the product dtype
    (float64 weights) and rounded once into ``out``.
    """
    nd = ops.m_detail

    def at(sl: slice) -> np.ndarray:
        index = list(rows)
        index[axis] = sl
        return out[tuple(index)]

    detail = at(slice(1, 2 * nd, 2))
    wide = np.result_type(out.dtype, ops.w_left.dtype)
    # when out already has the product dtype the detail view holds the left term
    left = detail if out.dtype == wide else np.empty(detail.shape, dtype=wide)
    right = np.empty(detail.shape, dtype=wide)
    np.multiply(axis_weights(ops.w_left[:nd], out.ndim, axis), at(slice(0, 2 * nd, 2)), out=left)
    np.multiply(axis_weights(ops.w_right[:nd], out.ndim, axis), at(slice(2, 2 * nd + 2, 2)), out=right)
    np.add(left, right, out=detail)


def prolong(vc: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Piecewise-linear prolongation from the coarse to the fine grid.

    The coarse values are copied to their fine positions; each detail
    position receives the linear interpolation of its interval endpoints.
    """
    axis %= vc.ndim
    if vc.shape[axis] != ops.m_coarse:
        raise ValueError(f"axis length {vc.shape[axis]} does not match m_coarse={ops.m_coarse}")
    shape = list(vc.shape)
    shape[axis] = ops.m_fine
    out = np.empty(shape, dtype=vc.dtype)
    out[along(axis, slice(0, None, 2))] = vc[along(axis, slice(0, ops.n_even))]
    out[along(axis, -1)] = vc[along(axis, -1)]  # the tail node of an even-length level
    _fill_details(out, [slice(None)] * out.ndim, ops, axis)
    return out


def restrict_nodes(v: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Gather the coarse-node values (injection ``N_{l-1} ⊂ N_l``) into a new array."""
    axis %= v.ndim
    if v.shape[axis] != ops.m_fine:
        raise ValueError(f"axis length {v.shape[axis]} does not match m_fine={ops.m_fine}")
    shape = list(v.shape)
    shape[axis] = ops.m_coarse
    out = np.empty(shape, dtype=v.dtype)
    out[along(axis, slice(0, ops.n_even))] = v[along(axis, slice(0, None, 2))]
    out[along(axis, -1)] = v[along(axis, -1)]  # the tail node of an even-length level
    return out


def interpolate_coarse(vc: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Multi-linear interpolation of level-``l-1`` values onto the level-``l`` grid.

    ``vc`` must have the packed shape of level ``l-1``; the result has the
    packed shape of level ``l``.  Dimensions that do not coarsen at this
    step pass through unchanged.

    The coarse values are scattered into the result once, then every
    coarsening axis in turn fills its detail nodes in place — on the rows
    that are still coarse in the axes not yet prolonged (the ``[0::2]``
    progression plus, for an even-length axis, its tail node).  Same
    arithmetic as chaining :func:`prolong` per axis, without the
    intermediate arrays.
    """
    out = np.empty(hier.level_shape(l), dtype=vc.dtype)
    out[hier.coarse_selector(l)] = vc
    dims = hier.coarsening_dims(l)
    for n, axis in enumerate(dims):
        ops, later = hier.level_ops(l, axis), dims[n + 1:]
        for pieces in itertools.product(*(hier.level_ops(l, k).coarse_slices for k in later)):
            rows = [slice(None)] * out.ndim
            for k, piece in zip(later, pieces):
                rows[k] = piece
            _fill_details(out, rows, ops, axis)
    return out


def compute_coefficients(
    v: np.ndarray, hier: TensorHierarchy, l: int,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Detail coefficients of the step ``l -> l-1``.

    Returns a full level-``l``-shaped array ``c = v - Π_{l-1} v`` that is
    exactly zero at the coarse positions (the interpolant reproduces the
    coarse values bit-for-bit), matching the paper's coefficient matrix
    ``C_l`` which "consists of computed coefficients at ``N_l \\ N_{l-1}``
    and zeros at ``N_{l-1}``".  Written into ``out`` (``v``'s dtype, any
    layout — ``decompose`` passes its output's level-``l`` view) when given;
    ``scratch`` (float64) lends the C walk its plane buffer.

    On float32/float64 input one C walk over the level's planes computes it
    (:func:`repro.core.native.level_coefficients`): the interpolant of a
    plane from its coarse nodes, then the subtraction, while the plane is in
    cache; the NumPy body below is the reference.
    """
    if v.shape != hier.level_shape(l):
        raise ValueError(f"expected level-{l} shape {hier.level_shape(l)}, got {v.shape}")
    got = native.level_coefficients(v, hier, l, out, scratch)
    if got is not None:
        return got
    interp = interpolate_coarse(v[hier.coarse_selector(l)], hier, l)
    return np.subtract(v, interp, out=interp if out is None else out)


def restore_from_coefficients(
    c: np.ndarray, vc: np.ndarray, hier: TensorHierarchy, l: int,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of :func:`compute_coefficients`.

    Given the detail coefficients ``c`` (level-``l`` shaped; whatever it
    holds at coarse positions is ignored) and the restored coarse nodal
    values ``vc`` (level-``l-1`` shaped), rebuild the level-``l`` nodal
    values ``v = c + Π_{l-1} vc``.  Written into ``out`` (float64, or ``c``'s
    dtype: rounded once, as ``astype`` would) when given.  ``scratch``
    (float64) lends the C walk its plane buffer
    (:func:`repro.core.native.level_restore`).
    """
    if vc.shape != hier.level_shape(l - 1):
        raise ValueError(
            f"expected level-{l - 1} shape {hier.level_shape(l - 1)}, got {vc.shape}"
        )
    got = native.level_restore(c, vc, hier, l, out, scratch)
    if got is not None:
        return got
    interp = interpolate_coarse(vc, hier, l)
    if out is None:
        out = interp if np.can_cast(c.dtype, interp.dtype) else None
    v = np.add(c, interp, out=out)
    # Re-inject the coarse values exactly: c may carry noise at coarse
    # positions (e.g. quantization artefacts, or a refactored array's
    # coarser payloads) that must not leak into the nodal values.
    v[hier.coarse_selector(l)] = vc
    return v


def zero_coarse_entries(c: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
    """Zero the coarse-position entries of a level-``l`` array in place."""
    c[hier.coarse_selector(l)] = 0.0
    return c
