"""Public high-level API: the :class:`Refactorer`.

A ``Refactorer`` binds a grid shape (and optional non-uniform
coordinates) to a hierarchy and exposes the three operations
downstream users need:

>>> import numpy as np
>>> from repro import Refactorer
>>> r = Refactorer((65, 65))
>>> data = np.random.default_rng(0).random((65, 65))
>>> refactored = r.decompose(data)
>>> roundtrip = r.recompose(refactored)
>>> bool(np.allclose(roundtrip, data, atol=1e-9))
True
>>> cc = r.refactor(data)                     # split into classes
>>> approx = cc.reconstruct(k=3)              # progressive recovery
>>> approx.shape
(65, 65)
"""

from __future__ import annotations

import numpy as np

from .classes import CoefficientClasses, extract_classes, num_classes
from .decompose import decompose, recompose
from .grid import TensorHierarchy, hierarchy_for

__all__ = ["Refactorer"]


class Refactorer:
    """Multigrid hierarchical data refactoring for one grid geometry.

    Parameters
    ----------
    shape:
        Grid shape.  Any sizes ≥ 1 are supported; the paper's benchmarks
        use per-dimension sizes of the form ``2^L + 1``.
    coords:
        Optional per-dimension strictly-increasing coordinate arrays for
        non-uniformly spaced grids (``None`` entries mean uniform).

    Hierarchies are resolved through the shared cache
    (:func:`repro.core.grid.hierarchy_for`), so constructing many
    refactorers for the same geometry — the streaming and multi-field
    pattern — builds the per-level operator data exactly once.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        coords: tuple[np.ndarray | None, ...] | None = None,
    ):
        self.hier = hierarchy_for(tuple(shape), coords)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.hier.shape

    @property
    def levels(self) -> int:
        """Number of decomposition levels ``L``."""
        return self.hier.L

    @property
    def n_classes(self) -> int:
        """Number of coefficient classes (``L + 1``)."""
        return num_classes(self.hier)

    # ------------------------------------------------------------------
    def decompose(self, data: np.ndarray) -> np.ndarray:
        """Refactor ``data`` in the in-place multilevel layout."""
        return decompose(data, self.hier)

    def recompose(self, refactored: np.ndarray) -> np.ndarray:
        """Invert :meth:`decompose` (lossless to fp rounding)."""
        return recompose(refactored, self.hier)

    def refactor(self, data: np.ndarray) -> CoefficientClasses:
        """Decompose and split into coefficient classes in one call."""
        refactored = self.decompose(data)
        return CoefficientClasses(self.hier, extract_classes(refactored, self.hier))

    def reconstruct(
        self, cc: CoefficientClasses, k: int | None = None
    ) -> np.ndarray:
        """Approximation from the first ``k`` classes of ``cc``."""
        if cc.hier is not self.hier and cc.hier.shape != self.hier.shape:
            raise ValueError("coefficient classes belong to a different grid")
        return cc.reconstruct(k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Refactorer(shape={self.shape}, levels={self.levels})"
