"""Linear-processing kernel framework (paper Fig. 5/6 + Algorithm 2).

The three correction kernels (mass-matrix multiplication, transfer-matrix
multiplication, correction solver) update every vector along one
dimension with a neighbour-dependent stencil, *in place*.  The paper's
framework balances parallelism and footprint by

* batching vectors onto thread blocks (vector-wise outer parallelism);
* walking each batch through the vector in fixed-size *segments* staged
  in shared memory, so that updated values never pollute unread
  neighbours; during the walk the data is partitioned into six regions
  (Fig. 6): processed / main (shared mem) / ghost 1 (registers, the
  last original values of the previous segment) / ghost 2 (shared mem,
  the first original values after the main region) / prefetch
  (registers) / unprocessed.

This module executes that structure at two speeds.  The default
methods (:meth:`~LinearProcessingKernel.mass_multiply`,
:meth:`~LinearProcessingKernel.transfer_multiply`,
:meth:`~LinearProcessingKernel.solve`) keep the segment walk but
compute each staged segment with whole-segment NumPy expressions — the
per-element loops of the original validation path are gone, yet the
arithmetic (operand order included) matches the production ops in
:mod:`repro.core` bit for bit, which tests assert.  The solver is the
one kernel whose along-axis recurrence is sequential by construction
(the paper's kernel respects the same dependence); there the
vectorization is over the batch and the walk is a single fused
recurrence without per-segment carry copies.

The original per-element walks (explicit ghost carries, one output per
thread) live on as test oracles in ``tests/scalar_walks.py``; the fast
paths are tested bit for bit against them.
"""

from __future__ import annotations

import numpy as np

from ..core import native
from ..core.grid import LevelOps
from ..core.solver import thomas_factor, thomas_sweep

__all__ = ["LinearProcessingKernel"]


class LinearProcessingKernel:
    """Segment-pipelined in-place linear kernels along the last axis.

    The caller is responsible for presenting the data with the
    processing axis last (the framework's "always batch on the x-y /
    x-z plane" rule means the real kernel does the same re-orientation
    through its access functions).  All methods treat leading axes as
    the vector batch.

    Parameters
    ----------
    ops:
        Per-(dimension, level) operator data.
    segment:
        Main-region length in elements (the shared-memory tile width).
    """

    def __init__(self, ops: LevelOps, segment: int = 8):
        if segment < 2:
            raise ValueError("segment length must be >= 2")
        self.ops = ops
        self.segment = segment

    # ------------------------------------------------------------------
    # mass-matrix multiplication (Algorithm 2)
    # ------------------------------------------------------------------
    def mass_multiply(self, v: np.ndarray) -> np.ndarray:
        """In-place-style mass-matrix apply over segments; returns new array.

        The segment walk of the scalar reference is kept, but each
        staged segment is one vector expression: interior rows read
        their neighbours straight from the original array (the ghost
        regions are just the slice elements flanking the segment), and
        the two boundary rows use the one-sided stencils.
        """
        m = v.shape[-1]
        if m != self.ops.m_fine:
            raise ValueError(f"axis length {m} != m_fine {self.ops.m_fine}")
        if m == 1:
            return v.copy()
        h = self.ops.h_fine
        out = v.copy()
        seg = self.segment
        for start in range(0, m, seg):
            stop = min(start + seg, m)
            lo = max(start, 1)
            hi = min(stop, m - 1)
            if hi > lo:
                hl = h[lo - 1 : hi - 1]
                hr = h[lo:hi]
                out[..., lo:hi] = (
                    hl * v[..., lo - 1 : hi - 1]
                    + 2.0 * (hl + hr) * v[..., lo:hi]
                    + hr * v[..., lo + 1 : hi + 1]
                ) / 6.0
            if start == 0:
                out[..., 0] = (2.0 * h[0] * v[..., 0] + h[0] * v[..., 1]) / 6.0
            if stop == m:
                out[..., m - 1] = (
                    h[-1] * v[..., m - 2] + 2.0 * h[-1] * v[..., m - 1]
                ) / 6.0
        return out

    # ------------------------------------------------------------------
    # transfer-matrix multiplication (restriction)
    # ------------------------------------------------------------------
    def transfer_multiply(self, f: np.ndarray) -> np.ndarray:
        """Segmented load-vector restriction; output has coarse length.

        Each segment of coarse outputs gathers its own-interval
        (left-weight) contributions before the previous interval's
        right-weight contributions — the same accumulation order as the
        vectorized production path, so the result is bit-identical.
        Intervals without a detail node carry zero weights, making the
        clipped gather harmless.
        """
        m = f.shape[-1]
        if m != self.ops.m_fine:
            raise ValueError(f"axis length {m} != m_fine {self.ops.m_fine}")
        ops = self.ops
        mc = ops.m_coarse
        out = np.empty(f.shape[:-1] + (mc,), dtype=f.dtype)
        seg = self.segment
        for start in range(0, mc, seg):
            stop = min(start + seg, mc)
            acc = f[..., ops.coarse_pos[start:stop]].copy()
            if ops.m_detail:
                own_hi = min(stop, mc - 1)
                if own_hi > start:
                    dv = f[..., ops.interval_detail[start:own_hi]]
                    acc[..., : own_hi - start] += ops.w_left[start:own_hi] * dv
                prev_lo = max(start, 1)
                if stop > prev_lo:
                    dv = f[..., ops.interval_detail[prev_lo - 1 : stop - 1]]
                    acc[..., prev_lo - start :] += (
                        ops.w_right[prev_lo - 1 : stop - 1] * dv
                    )
            out[..., start:stop] = acc
        return out

    # ------------------------------------------------------------------
    # correction solver (two dependent segment walks)
    # ------------------------------------------------------------------
    def solve(self, f: np.ndarray) -> np.ndarray:
        """Thomas solve ``M_{l-1} z = f`` along the last axis.

        The along-axis recurrence is sequential by construction — the
        paper's kernel walks it the same way — so the fast path fuses
        the two segment walks into single forward/backward recurrences
        (no per-segment carry copies) with every step vectorized over
        the batch: :func:`repro.core.solver.thomas_sweep`, the one
        solver arithmetic.
        """
        mc = f.shape[-1]
        if mc != self.ops.m_coarse:
            raise ValueError(f"axis length {mc} != m_coarse {self.ops.m_coarse}")
        if mc == 1:
            return f / self.ops.mass_bands_coarse[1, 0]
        lower = self.ops.mass_bands_coarse[0, 1:]
        cp, denom = thomas_factor(self.ops)
        with native.forced("reference"):  # the literal kernels are NumPy walks: the oracle
            return thomas_sweep(f, lower, cp, denom)
