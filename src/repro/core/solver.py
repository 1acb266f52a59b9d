"""Tridiagonal correction solver (the paper's *solve correction* kernel).

The global correction ``z_{l-1}`` satisfies ``M_{l-1} z = f`` with the
coarse mass matrix ``M_{l-1}`` (symmetric positive definite, tridiagonal).
The paper solves with a Thomas forward/backward substitution whose
along-axis recurrence is sequential and whose parallelism is the batch of
vectors; this module is that kernel on the host:

``thomas_solve`` (alias ``solve_correction``)
    Batched Thomas solve along an arbitrary axis.  The elimination
    factors come precomputed from :class:`~repro.core.grid.LevelOps`.

``thomas_sweep``
    The sweep itself.  It moves the solve axis to the front of a
    contiguous float64 working copy, so each of the ``m`` forward and
    ``m`` backward steps is one ufunc over a contiguous slab holding every
    vector of the batch.  It is the ``reference`` body of the solve; on
    float32/float64 input ``decompose`` / ``recompose`` run the same
    operations in the same order inside the C correction passes
    (:func:`repro.core.native.level_correct`), a block of vectors at a
    time.

It is the one solver arithmetic in the tree: the literal segmented walk
of :mod:`repro.kernels.linear_processing` calls it.
"""

from __future__ import annotations

import numpy as np

from .grid import LevelOps, along

__all__ = ["solve_correction", "thomas_solve", "thomas_sweep", "thomas_factor"]


def thomas_factor(ops: LevelOps) -> tuple[np.ndarray, np.ndarray]:
    """The Thomas forward-elimination factors ``(cp, denom)`` of ``ops``.

    ``cp[i]`` is the modified superdiagonal and ``denom[i]`` the modified
    pivot, both of length ``m_coarse``.  They depend only on the grid
    coordinates, so :class:`~repro.core.grid.LevelOps` precomputes them;
    the ``O(m)`` pivot buffer is exactly the "extra memory footprint" the
    paper quantifies for this kernel.
    """
    return ops.thomas_cp, ops.thomas_denom


def thomas_sweep(
    f: np.ndarray, lower: np.ndarray, cp: np.ndarray, denom: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Forward elimination and back substitution along ``axis`` with given factors.

    Every step is vectorized over the whole batch; returns a new
    C-contiguous float64 array.
    """
    m = f.shape[axis]
    # solve axis first: each row of z is then one contiguous slab of the batch
    moved = np.moveaxis(f, axis, 0)
    z = moved.astype(np.float64, order="C").reshape(m, -1)
    # row views and Python-float factors, fetched once: a 2D solve is bound
    # by per-step call overhead, not by arithmetic
    rows = list(z)
    lower, cp, denom = lower.tolist(), cp.tolist(), denom.tolist()
    tmp = np.empty(z.shape[1])
    prev = rows[0]
    np.divide(prev, denom[0], out=prev)
    for i in range(1, m):
        cur = rows[i]
        np.multiply(prev, lower[i - 1], out=tmp)
        np.subtract(cur, tmp, out=cur)
        np.divide(cur, denom[i], out=cur)
        prev = cur
    for i in range(m - 2, -1, -1):
        cur = rows[i]
        np.multiply(prev, cp[i], out=tmp)
        np.subtract(cur, tmp, out=cur)
        prev = cur
    return np.ascontiguousarray(np.moveaxis(z.reshape(moved.shape), 0, axis))


def thomas_solve(f: np.ndarray, ops: LevelOps, axis: int = -1) -> np.ndarray:
    """Solve ``M_{l-1} z = f`` along ``axis`` (batched over the other axes).

    Raises ``ValueError`` on non-finite input, so corrupt data fails fast
    instead of silently producing a poisoned refactoring.
    """
    if f.shape[axis] != ops.m_coarse:
        raise ValueError(f"axis length {f.shape[axis]} does not match m_coarse={ops.m_coarse}")
    z = thomas_sweep(f, ops.mass_bands_coarse[0, 1:], ops.thomas_cp, ops.thomas_denom, axis)
    # the two sweeps carry a NaN or inf anywhere in a vector to its first
    # entry, so one slab tells for the whole batch
    if not np.isfinite(z[along(axis % z.ndim, 0)]).all():
        raise ValueError("array must not contain infs or NaNs")
    return z


solve_correction = thomas_solve
