"""Error-bound-driven quantization of coefficient classes.

MGARD turns the refactored multilevel coefficients into integers with a
uniform scalar quantizer whose bin width is derived from the user's
absolute error tolerance.  Reconstructing from quantized coefficients
perturbs each coefficient by at most half a bin; the perturbation
propagates to the reconstructed field through the recomposition
operator, whose per-level gain is bounded (piecewise multilinear
interpolation has max-norm 1, and the correction is an L2 projection —
a contraction in the relevant norms).  Budgeting the tolerance across
the ``L + 1`` classes therefore bounds the final L∞ error.

Two budgeting modes:

* ``"uniform"`` — every class gets ``tol / (L + 1)``; simple and safe.
* ``"level"`` — finer classes get geometrically larger bins
  (``∝ 2^(L - l)``-normalized), exploiting that fine-level
  perturbations pass through fewer recomposition stages; yields
  noticeably better compression at equal tolerance (this mirrors
  MGARD's s-norm weighting for ``s = 0``/L∞ control).

Property tests verify the achieved error honours ``tol`` on assorted
fields; :class:`Quantizer` is exactly invertible metadata-wise
(de-quantized bins land within half a bin).

The compressor quantizes the refactored array itself
(:meth:`Quantizer.quantize_refactored`): the class split fused with the
flat pass, one C walk per class where the compiled kernels take it.
"""

from __future__ import annotations

import numpy as np

from ..core import native
from ..core.classes import (CoefficientClasses, assemble_from_classes, class_sizes,
                            extract_classes, num_classes)
from ..core.grid import TensorHierarchy

__all__ = ["Quantizer", "checked_tol"]

# the share of ``tol`` the per-class budgets spend; the rest absorbs the
# (bounded) cross-level amplification of the recomposition
_SAFETY = 0.5


def checked_tol(tol: float) -> float:
    """``tol`` as a float; ``ValueError`` unless it is finite and > 0.

    Every constructor that takes an error bound checks it here, before
    it builds anything (a NaN passes a ``tol <= 0`` test).
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return float(tol)


class Quantizer:
    """Uniform scalar quantizer with per-class error budgeting.

    Parameters
    ----------
    tol:
        Absolute L∞ error tolerance for the reconstructed field.
    mode:
        ``"uniform"`` or ``"level"`` budgeting (see module docstring).
    """

    def __init__(self, tol: float, mode: str = "level"):
        if mode not in ("uniform", "level"):
            raise ValueError(f"unknown budgeting mode {mode!r}")
        self.tol = checked_tol(tol)
        self.mode = mode

    # ------------------------------------------------------------------
    def steps_for(self, n_classes: int) -> list[float]:
        """Quantization step (bin width) per class, coarse-to-fine."""
        budget = self.tol * _SAFETY
        if self.mode == "uniform":
            return [2.0 * (budget / n_classes)] * n_classes
        # "level": allocate a geometric series of the budget, smallest
        # share to the coarsest class (whose perturbations traverse the
        # most recomposition stages).
        weights = np.asarray([2.0 ** (l - n_classes + 1) for l in range(n_classes)])
        weights /= weights.sum()
        return [2.0 * budget * float(w) for w in weights]

    def quantize_flat(
        self, cc: CoefficientClasses
    ) -> tuple[np.ndarray, list[int], list[float]]:
        """Quantize all classes in one fused pass.

        Returns ``(bins, sizes, steps)`` where ``bins`` is the int64
        concatenation of every class (coarse-to-fine) — the batched
        layout the single-header entropy stage consumes.
        """
        steps = self.steps_for(cc.n_classes)
        sizes = [int(c.size) for c in cc.classes]
        flat = np.concatenate([np.ravel(c) for c in cc.classes])
        inv = np.repeat(1.0 / np.asarray(steps, dtype=np.float64), sizes)
        return native.quantize(flat, inv), sizes, steps

    @staticmethod
    def dequantize_flat(
        bins: np.ndarray, sizes: list[int], steps: list[float]
    ) -> list[np.ndarray]:
        """Invert :meth:`quantize_flat` back to per-class float arrays."""
        if bins.size != sum(sizes):
            raise ValueError(
                f"flat payload has {bins.size} values, expected {sum(sizes)}"
            )
        scale = np.repeat(np.asarray(steps, dtype=np.float64), sizes)
        return np.split(native.dequantize(bins, scale), np.cumsum(sizes)[:-1])

    def quantize_refactored(
        self, refactored: np.ndarray, hier: TensorHierarchy
    ) -> tuple[np.ndarray, list[int], list[float]]:
        """:meth:`quantize_flat` of ``refactored``'s classes, split and
        quantized in one C walk per class where the library takes it."""
        steps = self.steps_for(num_classes(hier))
        sizes = class_sizes(hier)
        bins = np.empty(sum(sizes), dtype=np.int64)
        inv = 1.0 / np.asarray(steps, dtype=np.float64)
        if native.class_walk("quantize", refactored, np.split(bins, np.cumsum(sizes)[:-1]), hier, inv):
            return bins, sizes, steps
        return self.quantize_flat(CoefficientClasses(hier, extract_classes(refactored, hier)))

    @staticmethod
    def dequantize_refactored(
        bins: np.ndarray, sizes: list[int], steps: list[float], hier: TensorHierarchy,
        add_to: np.ndarray | None = None,
    ) -> np.ndarray:
        """:func:`~repro.core.classes.assemble_from_classes` of
        :meth:`dequantize_flat` (every class of ``hier``), one C walk per class
        where the library takes ``bins`` — added in place into the float64
        array ``add_to`` of ``hier.shape`` and returned as it, when given."""
        if list(sizes) != class_sizes(hier):
            raise ValueError(f"payload has class sizes {list(sizes)}, not {class_sizes(hier)}")
        if bins.size == sum(sizes) and len(steps) == len(sizes):
            out = np.empty(hier.shape) if add_to is None else add_to  # every node is in one class
            scale = np.asarray(steps, dtype=np.float64)
            # the classes are slices of one array: the add walk refuses the first or none
            if native.class_walk("dequantize" if add_to is None else "dequantize_add", out,
                                 np.split(bins, np.cumsum(sizes)[:-1]), hier, scale):
                return out
        values = assemble_from_classes(Quantizer.dequantize_flat(bins, sizes, steps), hier)
        return values if add_to is None else np.add(add_to, values, out=add_to)
