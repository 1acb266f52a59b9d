"""Grid-processing kernel framework (paper Fig. 4 + Algorithm 1).

The paper's grid-processing framework executes the two coefficient
kernels with explicit thread-block tiles:

1. each thread block claims a tile of ``2^b`` coarse cells per dimension
   and stages the ``(2^b + 1)^d`` nodes it covers (tile + one-node halo)
   through shared memory, with warp-contiguous loads;
2. threads are then *re-assigned* from the load layout to interpolation
   work such that every warp executes a single interpolation type in a
   single direction — eliminating warp divergence (Algorithm 1);
3. results are written back in the load layout.

This module implements that structure literally (tile staging buffer =
"shared memory"; all interpolation arithmetic confined to the staged
tile) so tests can verify it is bit-identical to the vectorized fast
path of :mod:`repro.core.coefficients`, and so the divergence-free
thread assignment itself (:func:`interpolation_thread_assignment`) can
be property-tested.  The Python tile loop is the *validation* path;
production calls go through the vectorized path.

Interpolation types generalize the paper's 3D description: a detail
node's type is the non-empty subset of coarsening dimensions in which it
sits at a dropped (odd) position — edges, faces, and the cell center in
3D (7 types), edges and center in 2D (3 types).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..core.coefficients import compute_coefficients as _vec_compute
from ..core.grid import TensorHierarchy

__all__ = [
    "InterpolationAssignment",
    "interpolation_thread_assignment",
    "GridProcessingKernel",
]


@dataclass(frozen=True)
class InterpolationAssignment:
    """Algorithm 1's mapping of threads to interpolation operations.

    Attributes
    ----------
    b:
        Tile exponent; the tile has ``2^b`` cells per dimension.
    warp_size:
        Threads per warp.
    warps_per_type:
        ``P = ceil((2^b - 1)^d / warp_size)`` — warps dedicated to each
        interpolation type.
    n_types:
        Number of interpolation types (``2^d - 1``).
    ops_per_type:
        Work items of each type inside one tile.
    """

    b: int
    ndim: int
    warp_size: int
    warps_per_type: int
    n_types: int
    ops_per_type: int

    @property
    def total_warps(self) -> int:
        return self.warps_per_type * self.n_types

    def warp_type(self, warp_id: int) -> int:
        """Interpolation type executed by a warp (Alg. 1 SelectInterpolation)."""
        return warp_id // self.warps_per_type

    def work_index(self, warp_id: int, lane_id: int) -> int:
        """Linear index of the work item a (warp, lane) pair computes."""
        return (warp_id % self.warps_per_type) * self.warp_size + lane_id

    def work_coords(self, warp_id: int, lane_id: int) -> tuple[int, ...] | None:
        """Per-dimension work coordinates ``(wx, wy, wz)`` or ``None`` if idle.

        Mirrors Algorithm 1: the linear id is unravelled in base
        ``2^b - 1`` (the interior work lattice of the tile); lanes past
        the lattice are idle (but — crucially — *uniformly* idle within
        the trailing warp, so no divergent branches execute).
        """
        side = (1 << self.b) - 1
        p = self.work_index(warp_id, lane_id)
        if p >= side**self.ndim:
            return None
        coords = []
        for _ in range(self.ndim):
            coords.append(p % side)
            p //= side
        return tuple(coords)


def interpolation_thread_assignment(
    b: int, ndim: int = 3, warp_size: int = 32
) -> InterpolationAssignment:
    """Compute Algorithm 1's divergence-free thread↔operation assignment."""
    if b < 1:
        raise ValueError("tile exponent b must be >= 1")
    if ndim not in (1, 2, 3):
        raise ValueError("grid-processing tiles support 1-3 dimensions")
    side = (1 << b) - 1
    ops = side**ndim
    P = math.ceil(ops / warp_size)
    return InterpolationAssignment(
        b=b,
        ndim=ndim,
        warp_size=warp_size,
        warps_per_type=P,
        n_types=(1 << ndim) - 1,
        ops_per_type=ops,
    )


class GridProcessingKernel:
    """Literal tiled execution of the coefficient kernels.

    Parameters
    ----------
    hier, l:
        Hierarchy and the global level of the step ``l -> l-1``.
    b:
        Tile exponent: each thread block covers ``2^b`` coarse cells per
        coarsening dimension (bounded by shared-memory capacity on a
        real device; here it just sets the staging-tile size).
    """

    def __init__(self, hier: TensorHierarchy, l: int, b: int = 3):
        if not 1 <= l <= hier.L:
            raise ValueError(f"level must be in [1, {hier.L}], got {l}")
        self.hier = hier
        self.l = l
        self.b = b
        self.axes = hier.coarsening_dims(l)
        if not self.axes:
            raise ValueError(f"no dimension coarsens at level {l}")
        self.shape = hier.level_shape(l)
        self._ops = {k: hier.level_ops(l, k) for k in self.axes}
        self.assignment = interpolation_thread_assignment(b, ndim=min(len(self.axes), 3))

    # -- tile enumeration ---------------------------------------------------
    def tile_origins(self) -> list[tuple[int, ...]]:
        """Coarse-cell origins of every thread-block tile."""
        per_axis = []
        cells = 1 << self.b
        for k in range(len(self.shape)):
            if k in self.axes:
                n_cells = self._ops[k].m_coarse - 1
                per_axis.append(range(0, max(n_cells, 1), cells))
            else:
                per_axis.append(range(1))  # non-coarsening axes ride along whole
        return list(itertools.product(*per_axis))

    def _tile_node_slices(self, origin: tuple[int, ...]) -> tuple[slice, ...]:
        """Node index range (tile + one-node halo) covered by a tile."""
        cells = 1 << self.b
        out = []
        for k, o in enumerate(origin):
            if k in self.axes:
                pos = self._ops[k].coarse_pos
                j_end = min(o + cells, pos.shape[0] - 1)
                out.append(slice(int(pos[o]), int(pos[j_end]) + 1))
            else:
                out.append(slice(0, self.shape[k]))
        return tuple(out)

    # -- per-tile interpolation ------------------------------------------------
    def _tile_interpolant(self, tile: np.ndarray, sls: tuple[slice, ...]) -> np.ndarray:
        """Multilinear interpolant of the tile's coarse nodes, full tile shape.

        Implements the warp work of the framework: gather the coarse
        sub-lattice of the staged tile, then prolong it axis by axis —
        each axis pass is the batch of 1D interpolations that one
        interpolation-type warp group performs.
        """
        # coarse sub-lattice of the tile
        sel = []
        for k in range(tile.ndim):
            if k in self.axes:
                lo, hi = sls[k].start, sls[k].stop
                pos = self._ops[k].coarse_pos
                local = pos[(pos >= lo) & (pos < hi)] - lo
                sel.append(local.astype(np.intp))
            else:
                sel.append(np.arange(tile.shape[k], dtype=np.intp))
        sub = tile[np.ix_(*sel)]
        for k in self.axes:
            sub = self._prolong_axis(sub, k, sls[k])
        return sub

    def _prolong_axis(self, sub: np.ndarray, k: int, sl: slice) -> np.ndarray:
        """Prolong the tile's values from coarse to all nodes along axis ``k``."""
        ops = self._ops[k]
        lo, hi = sl.start, sl.stop
        pos = ops.coarse_pos
        in_tile = (pos >= lo) & (pos < hi)
        local_coarse = pos[in_tile] - lo
        j0 = int(np.nonzero(in_tile)[0][0])  # global interval offset of tile
        mov = np.moveaxis(sub, k, 0)
        out_shape = (hi - lo,) + mov.shape[1:]
        out = np.empty(out_shape, dtype=sub.dtype)
        out[local_coarse] = mov
        details = ops.detail_pos[(ops.detail_pos >= lo) & (ops.detail_pos < hi)]
        if details.size:
            j = details // 2  # global interval of each detail node
            wl = ops.w_left[j].reshape((-1,) + (1,) * (mov.ndim - 1))
            wr = ops.w_right[j].reshape((-1,) + (1,) * (mov.ndim - 1))
            out[details - lo] = wl * mov[j - j0] + wr * mov[j - j0 + 1]
        return np.moveaxis(out, 0, k)

    # -- kernels ----------------------------------------------------------------
    def compute(self, v: np.ndarray, validate_against_fast_path: bool = False) -> np.ndarray:
        """Tiled computation of detail coefficients (decomposition)."""
        if v.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {v.shape}")
        out = np.zeros(v.shape, dtype=v.dtype)  # packed (C order) whatever the layout of v
        for origin in self.tile_origins():
            sls = self._tile_node_slices(origin)
            tile = np.ascontiguousarray(v[sls])  # stage through "shared memory"
            interp = self._tile_interpolant(tile, sls)
            self._writeback(out, tile - interp, sls)
        if validate_against_fast_path:
            ref = _vec_compute(v, self.hier, self.l)
            np.testing.assert_array_equal(out, ref)
        return out

    def restore(self, c: np.ndarray, vc: np.ndarray) -> np.ndarray:
        """Tiled restoration of nodal values (recomposition).

        The restored coarse values ``vc`` are scattered to their packed
        positions, then every tile adds its interpolant to the stored
        coefficients — the exact inverse of :meth:`compute`.
        """
        base = np.zeros(self.shape, dtype=np.result_type(c.dtype, vc.dtype))
        mesh = self.hier.coarse_selector(self.l)
        base[mesh] = vc
        out = np.zeros_like(base)
        for origin in self.tile_origins():
            sls = self._tile_node_slices(origin)
            tile_c = np.ascontiguousarray(c[sls])
            tile_b = np.ascontiguousarray(base[sls])
            interp = self._tile_interpolant(tile_b, sls)
            self._writeback(out, tile_c + interp, sls)
        out[mesh] = vc  # coarse nodes carry exact values, not c + interp noise
        return out

    def _writeback(self, out: np.ndarray, tile: np.ndarray, sls: tuple[slice, ...]) -> None:
        """Store a tile, overwriting the halo consistently.

        Halo nodes are coarse nodes shared between neighbouring tiles;
        both tiles compute identical values for them, so plain overwrite
        is race-free — the property that lets the real kernel store in
        place.
        """
        out[sls] = tile

    def validate(self, rng: np.random.Generator | None = None) -> None:
        """Self-check against the vectorized path on random data."""
        rng = rng or np.random.default_rng(0)
        v = rng.standard_normal(self.shape)
        self.compute(v, validate_against_fast_path=True)
