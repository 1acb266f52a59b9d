"""Per-element oracles for the linear-processing kernels (paper Fig. 5/6).

The literal walks of the framework — segments staged through "shared
memory", ghost values carried in "registers", one output per thread —
and two independent solver oracles: the Thomas factor recurrence written
out with NumPy scalars, and a banded Cholesky solve (LAPACK ``pbtrs`` via
SciPy, the solver production used before the batch-vectorized
Thomas sweep).  Test-only: the production paths in ``repro.core`` and
``repro.kernels`` are compared against these, bit for bit where the
arithmetic is the same and to 1e-12 where it is not.
"""

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded


def thomas_factor_loop(ops):
    """``(cp, denom)`` of ``ops.mass_bands_coarse`` by the literal recurrence."""
    bands = ops.mass_bands_coarse
    m = bands.shape[1]
    off, diag = bands[0, 1:], bands[1]
    cp = np.zeros(m)
    denom = np.zeros(m)
    denom[0] = diag[0]
    if m > 1:
        cp[0] = off[0] / diag[0]
        for i in range(1, m):
            denom[i] = diag[i] - off[i - 1] * cp[i - 1]
            if i < m - 1:
                cp[i] = off[i] / denom[i]
    return cp, denom


def cholesky_solve(f, ops, axis=-1):
    """``M_{l-1} z = f`` along ``axis`` by banded Cholesky, one RHS at a time."""
    f = np.moveaxis(np.asarray(f, dtype=np.float64), axis, -1)
    m = f.shape[-1]
    if m == 1:
        return np.moveaxis(f / ops.mass_bands_coarse[1, 0], -1, axis)
    chol = cholesky_banded(ops.mass_bands_coarse, lower=False)
    z = cho_solve_banded((chol, False), np.ascontiguousarray(f.reshape(-1, m).T))
    return np.moveaxis(z.T.reshape(f.shape), -1, axis)


def mass_multiply_scalar(ops, segment, v):
    """Per-element mass walk (ghost carries in "registers")."""
    m = v.shape[-1]
    if m == 1:
        return v.copy()
    h = ops.h_fine
    out = v.copy()
    # ghost1: original value of the element just before the segment
    # (kept in "registers" because `out` may already be updated there)
    for start in range(0, m, segment):
        stop = min(start + segment, m)
        main = v[..., start:stop]  # staged original values ("shared mem")
        ghost1 = v[..., start - 1] if start > 0 else None
        ghost2 = v[..., stop] if stop < m else None  # first unread value
        out[..., start:stop] = _mass_segment(m, main, ghost1, ghost2, start, stop, h)
    return out


def _mass_segment(m, main, ghost1, ghost2, start, stop, h):
    """Device function of Algorithm 2 on one staged segment.

    Computes ``t = (h1*u[y-1] + 2*(h1+h2)*u[y] + h2*u[y+1]) / 6`` for
    interior rows and the one-sided boundary rows, reading neighbours
    from the ghost regions at segment edges.
    """
    width = stop - start
    t = np.empty_like(main)
    for y_local in range(width):
        y = start + y_local
        left = main[..., y_local - 1] if y_local > 0 else ghost1
        right = main[..., y_local + 1] if y_local + 1 < width else ghost2
        if y == 0:
            t[..., y_local] = (2.0 * h[0] * main[..., y_local] + h[0] * right) / 6.0
        elif y == m - 1:
            t[..., y_local] = (h[-1] * left + 2.0 * h[-1] * main[..., y_local]) / 6.0
        else:
            h1, h2 = h[y - 1], h[y]
            t[..., y_local] = (
                h1 * left + 2.0 * (h1 + h2) * main[..., y_local] + h2 * right
            ) / 6.0
    return t


def transfer_multiply_scalar(ops, segment, f):
    """Per-output restriction walk (one coarse output per thread)."""
    mc = ops.m_coarse
    out = np.empty(f.shape[:-1] + (mc,), dtype=f.dtype)
    for start in range(0, mc, segment):
        stop = min(start + segment, mc)
        for j in range(start, stop):  # one coarse output per thread
            acc = f[..., ops.coarse_pos[j]].copy()
            # own-interval (left-weight) contribution before the previous
            # interval's right-weight one: the production operand order
            if j < mc - 1 and ops.has_detail[j]:
                acc += ops.w_left[j] * f[..., ops.interval_detail[j]]
            if j > 0 and ops.has_detail[j - 1]:
                acc += ops.w_right[j - 1] * f[..., ops.interval_detail[j - 1]]
            out[..., j] = acc
    return out


def solve_scalar(ops, segment, f):
    """Segmented Thomas walk with explicit ghost carries.

    The forward sweep walks segments left to right carrying the last
    eliminated value in "registers" (ghost 1); the backward sweep walks
    right to left carrying the last solved value.
    """
    mc = f.shape[-1]
    if mc == 1:
        return f / ops.mass_bands_coarse[1, 0]
    lower = ops.mass_bands_coarse[0, 1:]
    cp, denom = thomas_factor_loop(ops)
    z = f.astype(np.float64, copy=True)
    carry = None  # ghost 1: z[i-1] of the previous segment
    for start in range(0, mc, segment):
        stop = min(start + segment, mc)
        for i in range(start, stop):
            if i == 0:
                z[..., 0] = z[..., 0] / denom[0]
            else:
                prev = carry if i == start else z[..., i - 1]
                z[..., i] = (z[..., i] - lower[i - 1] * prev) / denom[i]
        carry = z[..., stop - 1].copy()
    carry = None  # ghost 1 of the reverse walk: z[i+1]
    for start in reversed(range(0, mc, segment)):
        stop = min(start + segment, mc)
        for i in range(stop - 1, start - 1, -1):
            if i == mc - 1:
                continue
            nxt = carry if i == stop - 1 else z[..., i + 1]
            z[..., i] = z[..., i] - cp[i] * nxt
        carry = z[..., start].copy()
    return z
