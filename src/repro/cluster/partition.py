"""Block partitioning: refactoring datasets larger than device memory.

The paper's large-scale runs "assign each GPU an equal sized data
partition and do decomposition and recomposition independently",
noting this "brings great large-scale performance with negligible
impact on decomposition and recomposition results" (each block gets its
own hierarchy; no halo exchange).  This module provides that
partitioning for a *single* device too: a grid that exceeds the GPU's
memory is split into blocks along its slowest axis, each block is
refactored independently, and the classes are tracked per block.

``BlockRefactorer`` is fully functional (lossless reassembly is tested)
and degrades gracefully to a single block when the data fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.classes import CoefficientClasses, extract_classes
from ..core.decompose import decompose, recompose
from ..core.grid import hierarchy_for
from ..gpu.memory import refactoring_footprint

__all__ = ["BlockPlan", "BlockRefactorer", "plan_blocks"]


@dataclass(frozen=True)
class BlockPlan:
    """How a large grid is split along axis 0."""

    shape: tuple[int, ...]
    starts: tuple[int, ...]  # block start rows
    stops: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.starts)

    def block_shape(self, i: int) -> tuple[int, ...]:
        return (self.stops[i] - self.starts[i],) + tuple(self.shape[1:])

    def slices(self, i: int) -> tuple[slice, ...]:
        return (slice(self.starts[i], self.stops[i]),) + tuple(
            slice(None) for _ in self.shape[1:]
        )


def plan_blocks(
    shape: tuple[int, ...], memory_bytes: float, itemsize: int = 8
) -> BlockPlan:
    """Split ``shape`` along axis 0 so each block's footprint fits.

    Uses the footprint model of :mod:`repro.gpu.memory` (data + working
    buffer + solver vectors).  The row budget is snapped down to the nearest
    ``2^k + 1`` when that costs less than 25 % of it, so most blocks get
    multigrid-friendly row counts; correctness never depends on the
    snap.  No block has fewer than 2 rows unless that is arithmetically
    unavoidable (``n0`` odd with a 2-row budget); such 1-row blocks
    still round-trip losslessly — a 1-row hierarchy simply cannot
    coarsen along axis 0.
    """
    if memory_bytes <= 0:
        raise ValueError("memory budget must be positive")
    n0 = shape[0]
    rest = 1
    for s in shape[1:]:
        rest *= s
    # footprint ≈ 2 * rows * rest * itemsize (+ small solver vectors)
    max_rows = int(memory_bytes // max(1, 2 * rest * itemsize))
    if max_rows < 2 and n0 >= 2:
        raise MemoryError(
            f"cannot fit even a 2-row block of {shape} in {memory_bytes:.3g} bytes"
        )
    max_rows = max(1, min(max_rows, n0))
    if 3 <= max_rows < n0:
        # prefer 2^k+1-friendly row counts: deeper per-block hierarchies
        # for nearly the same footprint.  Only when blocking is needed
        # at all — a grid that fits whole stays a single block.
        snapped = 2 ** int(math.floor(math.log2(max_rows - 1))) + 1
        if snapped > 0.75 * max_rows:
            max_rows = snapped
    starts, stops = [], []
    pos = 0
    while pos < n0:
        take = min(max_rows, n0 - pos)
        if n0 - pos - take == 1 and take >= 3:
            # donate a row so the tail block gets 2 rows instead of 1;
            # with take == 2 the donation would just move the 1-row
            # block here, so the (unavoidable) 1-row tail is kept
            take -= 1
        starts.append(pos)
        stops.append(pos + take)
        pos += take
    return BlockPlan(shape=tuple(shape), starts=tuple(starts), stops=tuple(stops))


class BlockRefactorer:
    """Refactor arbitrarily large grids block-by-block.

    Parameters
    ----------
    shape:
        Full grid shape.
    memory_bytes:
        Per-block memory budget (e.g. ``device.memory_gb * 1e9``).
    """

    def __init__(self, shape: tuple[int, ...], memory_bytes: float):
        self.plan = plan_blocks(shape, memory_bytes)
        self.hiers = [
            hierarchy_for(self.plan.block_shape(i))
            for i in range(self.plan.n_blocks)
        ]

    @property
    def n_blocks(self) -> int:
        return self.plan.n_blocks

    def decompose(self, data: np.ndarray) -> np.ndarray:
        """Blockwise decomposition; output layout matches the input grid."""
        if data.shape != self.plan.shape:
            raise ValueError(f"expected shape {self.plan.shape}, got {data.shape}")
        out = np.empty_like(data, dtype=np.float64)
        for i, hier in enumerate(self.hiers):
            sl = self.plan.slices(i)
            out[sl] = decompose(np.ascontiguousarray(data[sl]), hier)
        return out

    def recompose(self, refactored: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`decompose`."""
        if refactored.shape != self.plan.shape:
            raise ValueError(
                f"expected shape {self.plan.shape}, got {refactored.shape}"
            )
        out = np.empty_like(refactored, dtype=np.float64)
        for i, hier in enumerate(self.hiers):
            sl = self.plan.slices(i)
            out[sl] = recompose(np.ascontiguousarray(refactored[sl]), hier)
        return out

    def refactor(self, data: np.ndarray) -> list[CoefficientClasses]:
        """Per-block coefficient classes (each block is independent)."""
        refactored = self.decompose(data)
        out = []
        for i, hier in enumerate(self.hiers):
            block = np.ascontiguousarray(refactored[self.plan.slices(i)])
            out.append(CoefficientClasses(hier, extract_classes(block, hier)))
        return out

    def peak_block_footprint(self) -> int:
        """Largest single-block footprint in bytes (capacity check)."""
        return max(
            refactoring_footprint(h).gpu_total for h in self.hiers
        )
