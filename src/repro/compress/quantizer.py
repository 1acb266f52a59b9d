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
(dequantize(quantize(x)) lands within half a bin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import native
from ..core.classes import CoefficientClasses

__all__ = ["QuantizedClasses", "Quantizer"]


@dataclass
class QuantizedClasses:
    """Integer coefficient classes plus the metadata to invert them."""

    bins: list[np.ndarray]  # int64 per class
    steps: list[float]  # quantization step per class
    tol: float
    mode: str

    @property
    def n_classes(self) -> int:
        return len(self.bins)

    def nbytes_raw(self) -> int:
        """Size of the raw (unencoded) integer payload."""
        return sum(b.nbytes for b in self.bins)


class Quantizer:
    """Uniform scalar quantizer with per-class error budgeting.

    Parameters
    ----------
    tol:
        Absolute L∞ error tolerance for the reconstructed field.
    mode:
        ``"uniform"`` or ``"level"`` budgeting (see module docstring).
    safety:
        Multiplicative safety factor < 1 applied to the budget to absorb
        the (bounded) cross-level amplification of the recomposition.
    """

    def __init__(self, tol: float, mode: str = "level", safety: float = 0.5):
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        if mode not in ("uniform", "level"):
            raise ValueError(f"unknown budgeting mode {mode!r}")
        if not 0 < safety <= 1:
            raise ValueError("safety factor must be in (0, 1]")
        self.tol = float(tol)
        self.mode = mode
        self.safety = float(safety)
        self._steps_cache: dict[int, list[float]] = {}

    # ------------------------------------------------------------------
    def seed_steps(self, n_classes: int, steps) -> None:
        """Pre-populate the per-class step budget (from a cached plan)."""
        if len(steps) != n_classes:
            raise ValueError(f"expected {n_classes} steps, got {len(steps)}")
        self._steps_cache[int(n_classes)] = [float(s) for s in steps]

    def steps_for(self, n_classes: int) -> list[float]:
        """Quantization step (bin width) per class, coarse-to-fine.

        The budget depends only on the class count, so it is resolved
        once per count and memoized on the quantizer.
        """
        cached = self._steps_cache.get(n_classes)
        if cached is not None:
            return list(cached)
        budget = self.tol * self.safety
        if self.mode == "uniform":
            per = budget / n_classes
            steps = [2.0 * per] * n_classes
        else:
            # "level": allocate a geometric series of the budget, smallest
            # share to the coarsest class (whose perturbations traverse the
            # most recomposition stages).
            weights = np.asarray([2.0 ** (l - n_classes + 1) for l in range(n_classes)])
            weights /= weights.sum()
            steps = [2.0 * budget * float(w) for w in weights]
        self._steps_cache[n_classes] = steps
        return list(steps)

    def quantize(self, cc: CoefficientClasses) -> QuantizedClasses:
        """Quantize every class to integer bins."""
        steps = self.steps_for(cc.n_classes)
        bins = []
        for values, step in zip(cc.classes, steps):
            q = np.round(values / step).astype(np.int64)
            bins.append(q)
        return QuantizedClasses(bins=bins, steps=steps, tol=self.tol, mode=self.mode)

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

    def dequantize(self, qc: QuantizedClasses, cc_template: CoefficientClasses) -> CoefficientClasses:
        """Rebuild (perturbed) coefficient classes from integer bins."""
        if qc.n_classes != cc_template.n_classes:
            raise ValueError("class count mismatch between payload and template hierarchy")
        classes = []
        for b, step, ref in zip(qc.bins, qc.steps, cc_template.classes):
            if b.size != ref.size:
                raise ValueError("class size mismatch between payload and template hierarchy")
            classes.append(b.astype(np.float64) * step)
        return CoefficientClasses(cc_template.hier, classes)
