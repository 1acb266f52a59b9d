"""An execution engine built entirely from the literal kernel frameworks.

The strongest structural claim a reproduction of the paper's §III can
make: Algorithm 3 runs end to end with every kernel executed through
the *literal* framework implementations —

* coefficients/restore through the tiled grid-processing framework
  (:class:`~repro.kernels.grid_processing.GridProcessingKernel`,
  Fig. 4 + Algorithm 1);
* mass/transfer/solve through the segment-pipelined linear-processing
  framework (:class:`~repro.kernels.linear_processing.LinearProcessingKernel`,
  Fig. 5/6 + Algorithm 2), routed slice-by-slice on 3D data exactly as
  §III-D prescribes (:class:`~repro.kernels.batch3d.SlicedLinearProcessor`)

— and produces results identical, bit for bit, to the vectorized
production engine on every op (the correction solve included: both run
the same Thomas recurrence) except the load vector: ``mass_transfer_apply``
runs the paper's mass and transfer kernels back to back where production
evaluates their product as one stencil at the coarse nodes, so the two
agree to ``8 * eps * max|z|`` there and whole refactorings to rounding
(``tests/test_engine_seam.py``).  ``TiledEngine`` is slow (Python tile
loops) and exists for validation and for studying the frameworks;
production runs use the vectorized engines.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import NumpyEngine
from ..core.grid import LevelOps, TensorHierarchy
from .batch3d import SlicedLinearProcessor
from .grid_processing import GridProcessingKernel
from .linear_processing import LinearProcessingKernel

__all__ = ["TiledEngine"]


class TiledEngine(NumpyEngine):
    """Run the refactoring pipeline through the literal paper kernels.

    Parameters
    ----------
    b:
        Grid-processing tile exponent (``2^b`` cells per dimension).
    segment:
        Linear-processing main-region length.
    n_streams:
        Simulated streams for the 3D slice walks.
    kernel_backend:
        Kernel-backend policy forwarded to the linear-processing
        kernels (``None`` defers to the process-wide policy).
    """

    def __init__(
        self,
        b: int = 3,
        segment: int = 16,
        n_streams: int = 8,
        kernel_backend: str | None = None,
    ):
        self.b = b
        self.segment = segment
        self.n_streams = n_streams
        self.kernel_backend = kernel_backend
        self._grid_kernels: dict[tuple[int, int], GridProcessingKernel] = {}
        self.slice_launches = 0  # §III-D accounting, for tests/inspection

    # -- grid-processing kernels ------------------------------------------
    def _grid_kernel(self, hier: TensorHierarchy, l: int) -> GridProcessingKernel:
        key = (id(hier), l)
        if key not in self._grid_kernels:
            self._grid_kernels[key] = GridProcessingKernel(hier, l, b=self.b)
        return self._grid_kernels[key]

    def compute_coefficients(self, v, hier, l):
        return self._grid_kernel(hier, l).compute(v)

    def restore_from_coefficients(self, c, vc, hier, l):
        return self._grid_kernel(hier, l).restore(c, vc)

    # -- linear-processing kernels -------------------------------------------
    def _linear(self, data: np.ndarray, ops: LevelOps, axis: int, op: str) -> np.ndarray:
        if data.ndim == 3:
            proc = SlicedLinearProcessor(ops, n_streams=self.n_streams,
                                         segment=self.segment,
                                         backend=self.kernel_backend)
            out = getattr(proc, op)(data, axis)
            self.slice_launches += len(proc.launches)
            return out
        kernel = LinearProcessingKernel(ops, segment=self.segment,
                                        backend=self.kernel_backend)
        moved = np.moveaxis(data, axis, -1)
        out = getattr(kernel, op)(np.ascontiguousarray(moved))
        return np.moveaxis(out, -1, axis)

    def mass_transfer_apply(self, f, ops, axis, *, hier=None, l=None):
        """The paper's two kernels back to back, rounded to float64 like the
        production stencil — equal to it to a few ulp, not bit for bit."""
        load = self._linear(f, ops, axis, "mass_multiply")
        load = self._linear(load, ops, axis, "transfer_multiply")
        return np.ascontiguousarray(load, dtype=np.float64)

    def solve_correction(self, f, ops, axis, *, hier=None, l=None):
        return self._linear(f, ops, axis, "solve")
