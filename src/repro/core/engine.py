"""Execution-engine abstraction for the refactoring driver.

The decomposition/recomposition driver (:mod:`repro.core.decompose`) is
written once against this small interface and can then run on different
*engines*:

* :class:`NumpyEngine` — the pure vectorized host implementation (no
  performance accounting), the engine production runs: every op works
  along its native axis on C-contiguous arrays with basic slices and
  returns a C-contiguous array.
* :class:`repro.kernels.cpu.CpuRefEngine` — same arithmetic, plus a cost
  model of the serial CPU MGARD implementation (the paper's baseline).
* :class:`repro.kernels.gpu_engine.GpuSimEngine` — kernels structured
  after the paper's grid-/linear-processing GPU frameworks, executed
  functionally and metered by the simulated-GPU cost model.

Every data-touching step of Algorithm 3 goes through an engine method so
that engines can meter the memory-copy (``MC``) and node-packing (``PN``)
traffic the paper's Table IV reports, not only the four math kernels.
Where the host driver can reuse an array instead of moving it (the paper's
device design cannot: its output lives in a buffer of its own), it tells
the engine through :meth:`Engine.elided`, so the metered record stream
stays that of Algorithm 3.
"""

from __future__ import annotations

import abc

import numpy as np

from . import coefficients as _coef
from . import solver as _solver
from . import transfer as _transfer
from .grid import LevelOps, TensorHierarchy

__all__ = ["Engine", "NumpyEngine"]


class Engine(abc.ABC):
    """Interface the refactoring driver programs against.

    Methods mirror the paper's kernels (mass multiplication and load-vector
    restriction as the one product the correction needs) plus the two
    data-movement operations of Algorithm 3 (working-buffer copies and node
    packing).
    Implementations must be *functionally exact*: engines differ in how
    the work is scheduled and metered, never in the arithmetic result.
    """

    # -- grid-processing kernels -------------------------------------------
    @abc.abstractmethod
    def compute_coefficients(self, v: np.ndarray, hier: TensorHierarchy, l: int) -> np.ndarray:
        """Detail coefficients ``c = (I - Π_{l-1}) v`` on the level-``l`` grid."""

    @abc.abstractmethod
    def restore_from_coefficients(
        self, c: np.ndarray, vc: np.ndarray, hier: TensorHierarchy, l: int
    ) -> np.ndarray:
        """Rebuild level-``l`` nodal values from coefficients + coarse values."""

    # -- linear-processing kernels ------------------------------------------
    #
    # The optional ``hier``/``l`` keywords identify the decomposition step
    # so cost-modeling engines can recover the *unpacked* access stride
    # (``hier.level_stride(l, axis)``) that the paper's CPU baseline and
    # naive GPU design would pay.  Pure engines ignore them.

    @abc.abstractmethod
    def mass_transfer_apply(
        self, f: np.ndarray, ops: LevelOps, axis: int,
        *, hier: TensorHierarchy | None = None, l: int | None = None,
    ) -> np.ndarray:
        """Coarse load vector ``R_l M_l f`` along ``axis``: the fine mass
        matrix, then the restriction, as one float64 result."""

    @abc.abstractmethod
    def solve_correction(
        self, f: np.ndarray, ops: LevelOps, axis: int,
        *, hier: TensorHierarchy | None = None, l: int | None = None,
    ) -> np.ndarray:
        """Coarse mass-matrix solve along ``axis``."""

    # -- data movement --------------------------------------------------------
    @abc.abstractmethod
    def copy(self, arr: np.ndarray, *, reason: str = "copy", level: int = -1) -> np.ndarray:
        """Working-buffer copy (metered as ``MC`` in the paper's breakdown)."""

    @abc.abstractmethod
    def pack(
        self,
        full: np.ndarray,
        selector: tuple,
        *,
        reason: str = "pack",
        level: int = -1,
    ) -> np.ndarray:
        """Gather the nodes of a level into a contiguous working array (``PN``).

        ``selector`` is :meth:`TensorHierarchy.level_selector` of the level.
        The result is always a copy: callers overwrite it (and ``full``)
        independently.
        """

    @abc.abstractmethod
    def unpack(
        self,
        packed: np.ndarray,
        full: np.ndarray,
        selector: tuple,
        *,
        reason: str = "unpack",
        level: int = -1,
    ) -> None:
        """Scatter a packed level array back into the full-resolution array."""

    def elided(self, op: str, shape: tuple[int, ...], *, reason: str, level: int) -> None:
        """Algorithm 3 moves ``shape`` elements here (``op`` is ``"copy"``,
        ``"pack"`` or ``"unpack"``, ``reason``/``level`` as that method would
        get them); the driver reuses the array instead.  Cost-modeling
        engines record the movement, pure engines do nothing."""

    # -- correction application (fused with packing in the paper's Alg. 3) ----
    def add_correction(
        self, v: np.ndarray, z: np.ndarray, hier: TensorHierarchy, l: int
    ) -> np.ndarray:
        """Coarse nodal values ``restrict(v) + z`` of the decomposition step."""
        return v[hier.coarse_selector(l)] + z

    def subtract_correction(
        self, v: np.ndarray, z: np.ndarray, hier: TensorHierarchy, l: int
    ) -> np.ndarray:
        """Undo the correction during recomposition (element-wise ``v - z``)."""
        return v - z

    # -- bookkeeping hooks ------------------------------------------------------
    def begin(self, operation: str, hier: TensorHierarchy) -> None:
        """Called by the driver before a decomposition/recomposition pass."""

    def end(self, operation: str) -> None:
        """Called by the driver after a pass completes."""


class NumpyEngine(Engine):
    """Pure NumPy reference engine — exact arithmetic, no cost accounting."""

    def compute_coefficients(self, v, hier, l):
        return _coef.compute_coefficients(v, hier, l)

    def restore_from_coefficients(self, c, vc, hier, l):
        return _coef.restore_from_coefficients(c, vc, hier, l)

    def mass_transfer_apply(self, f, ops, axis, *, hier=None, l=None):
        return _transfer.mass_transfer_apply(f, ops, axis=axis)

    def solve_correction(self, f, ops, axis, *, hier=None, l=None):
        return _solver.solve_correction(f, ops, axis=axis)

    def copy(self, arr, *, reason="copy", level=-1):
        return arr.copy()

    def pack(self, full, selector, *, reason="pack", level=-1):
        return full[selector].copy()  # a slice selector yields a view of ``full``

    def unpack(self, packed, full, selector, *, reason="unpack", level=-1):
        full[selector] = packed
