"""Algorithm 3 composed from the literal paper kernels — a test oracle.

Every kernel runs through the *literal* §III frameworks: coefficients and
restore through the tiled grid-processing framework
(:class:`GridProcessingKernel`, Fig. 4 + Algorithm 1); mass, transfer and
solve through the segment-pipelined linear-processing framework
(:class:`LinearProcessingKernel`, Fig. 5/6 + Algorithm 2), slice by slice on
3D data as §III-D prescribes (:class:`SlicedLinearProcessor`).  Production
(``repro.core``) agrees bit for bit on every op but the load vector:
:meth:`LiteralPipeline.mass_transfer_apply` runs the mass and transfer
kernels back to back where production evaluates their product as one
stencil, so the two agree to ``8 * eps * max|z|`` there and whole
refactorings to rounding.  The op methods take what the ``repro.core``
functions of the same name take, so a test can replay production's inputs.
Slow (Python tile loops); kernels are built per call, so nothing outlives
the hierarchy it was built for.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import LevelOps, TensorHierarchy
from repro.kernels.batch3d import SlicedLinearProcessor
from repro.kernels.grid_processing import GridProcessingKernel
from repro.kernels.linear_processing import LinearProcessingKernel


class LiteralPipeline:
    """``b``: grid-processing tile exponent; ``segment``: linear-processing
    main-region length; ``n_streams``: simulated streams of the 3D slice
    walks."""

    def __init__(self, b=3, segment=16, n_streams=8):
        self.b = b
        self.segment = segment
        self.n_streams = n_streams
        self.slice_launches = 0  # §III-D accounting

    def compute_coefficients(self, v, hier: TensorHierarchy, l: int):
        return GridProcessingKernel(hier, l, b=self.b).compute(v)

    def restore_from_coefficients(self, c, vc, hier: TensorHierarchy, l: int):
        return GridProcessingKernel(hier, l, b=self.b).restore(c, vc)

    def _linear(self, data, ops: LevelOps, axis: int, op: str):
        if data.ndim == 3:
            proc = SlicedLinearProcessor(ops, n_streams=self.n_streams, segment=self.segment)
            out = getattr(proc, op)(data, axis)
            self.slice_launches += len(proc.launches)
            return out
        kernel = LinearProcessingKernel(ops, segment=self.segment)
        out = getattr(kernel, op)(np.ascontiguousarray(np.moveaxis(data, axis, -1)))
        return np.moveaxis(out, -1, axis)

    def mass_transfer_apply(self, f, ops: LevelOps, axis: int):
        load = self._linear(f, ops, axis, "mass_multiply")
        load = self._linear(load, ops, axis, "transfer_multiply")
        return np.ascontiguousarray(load, dtype=np.float64)  # rounded like the stencil

    def solve_correction(self, f, ops: LevelOps, axis: int):
        return self._linear(f, ops, axis, "solve")

    # -- Algorithm 3 over the four kernels above
    def compute_correction(self, c, hier: TensorHierarchy, l: int):
        for axis in hier.coarsening_dims(l):
            ops = hier.level_ops(l, axis)
            c = self.solve_correction(self.mass_transfer_apply(c, ops, axis), ops, axis)
        return c

    def decompose(self, data, hier: TensorHierarchy):
        v = hier.validate_array(data)
        out = v.copy()
        for l in range(hier.L, 0, -1):
            c = self.compute_coefficients(v, hier, l)
            out[hier.level_selector(l)] = c
            v = v[hier.coarse_selector(l)] + self.compute_correction(c, hier, l)
        out[hier.level_selector(0)] = v
        return out

    def recompose(self, refactored, hier: TensorHierarchy):
        refactored = hier.validate_array(refactored)
        v = refactored[hier.level_selector(0)].copy()
        for l in range(1, hier.L + 1):
            c = refactored[hier.level_selector(l)].copy()
            c[hier.coarse_selector(l)] = 0.0
            v = self.restore_from_coefficients(c, v - self.compute_correction(c, hier, l), hier, l)
        return v.astype(refactored.dtype, copy=False)
