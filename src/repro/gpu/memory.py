"""Device-memory footprint model for the simulated GPU.

Models the *extra memory footprint* of the GPU design relative to the
CPU baseline, the metric of the paper's Table V.  Both designs use an input/output buffer plus a
working buffer of the same size ("the size of working memory space is
equal to the original input size"); the GPU design additionally keeps
the two per-dimension Thomas-factorization vectors (modified pivots and
superdiagonal) of the correction solver — ``2 × n_k`` doubles per
dimension — which is the only asymptotically-relevant extra state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.grid import TensorHierarchy

__all__ = ["refactoring_footprint", "FootprintReport"]


@dataclass
class FootprintReport:
    """Memory footprint of one refactoring pass (bytes)."""

    data_bytes: int
    working_bytes: int
    solver_bytes: int
    itemsize: int = 8
    details: dict = field(default_factory=dict)

    @property
    def cpu_total(self) -> int:
        """CPU-baseline footprint: data + equally-sized working buffer."""
        return self.data_bytes + self.working_bytes

    @property
    def gpu_total(self) -> int:
        return self.cpu_total + self.solver_bytes

    @property
    def extra_fraction(self) -> float:
        """Extra GPU footprint relative to the CPU baseline (Table V)."""
        return self.solver_bytes / self.cpu_total


def refactoring_footprint(hier: TensorHierarchy, itemsize: int = 8) -> FootprintReport:
    """Model the memory footprint of refactoring one array on the GPU.

    The solver keeps, per dimension, the modified-pivot and modified-
    superdiagonal vectors of the Thomas factorization at the finest
    level (coarser levels reuse prefixes of the same buffers), i.e.
    ``2 * n_k`` elements per dimension ``k``.
    """
    data = int(np.prod(hier.shape)) * itemsize
    solver = sum(2 * n * itemsize for n in hier.shape)
    return FootprintReport(
        data_bytes=data,
        working_bytes=data,
        solver_bytes=solver,
        itemsize=itemsize,
        details={"per_dim_solver_elems": [2 * n for n in hier.shape]},
    )
