"""Time-series compression: refactoring + temporal prediction.

The paper's introduction motivates refactoring with simulations that
"decimate in time ... based on some arbitrary factor" because they
cannot afford to store every step.  Refactoring changes that trade-off:
store every step, but spend bits where the data changes.  This module
composes the spatial compressor with a temporal predictor:

* frame 0 is compressed directly (a *key frame*);
* each subsequent frame is predicted by the previous *reconstructed*
  frame (closed-loop prediction, so the error bound never drifts) and
  only the residual is quantized/encoded.

The loop runs on coefficients.  Refactoring is linear, so the residual's
coefficients are the frame's coefficients less the sum of every
de-quantized step since the key frame; the compressor keeps that sum in
the refactored layout and pays one ``decompose`` and no ``recompose``
per step.  A step's coefficient error is then exactly its quantization
error — the bound holds at every step, with no drift.  The decoder
recomposes each step and sums in space; the two sums differ by
recomposition roundoff only, which the quantizer's safety factor absorbs.

For slowly-varying fields the residuals are small and quantize to
near-zero bins, so the stream compresses far better than independent
frames at the same L∞ bound — which tests assert.  Key frames can be
re-inserted periodically to bound random-access cost.

Entropy setup is amortized the same way the signal is: with the
``huffman`` backend the compressor keeps each class's code book in a
scratch dict of its own and *reuses* it across steps (a non-key step
whose data the book still codes well ships a one-integer ``table_ref``
instead of the book, and skips building one), with a full rebuild at
key frames.  The decoder caches the books shipped since the key frame,
so frames decode in stream order from any key frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.decompose import decompose
from ..core.grid import TensorHierarchy
from .mgard import CompressedData, MgardCompressor, PreparedFrame
from .quantizer import Quantizer

__all__ = ["CompressedSeries", "ResidualPlan", "TimeSeriesCompressor"]


@dataclass
class ResidualPlan:
    """One predicted step, ready for (deferred) entropy coding.

    Produced by :meth:`TimeSeriesCompressor.predict_residual` — the
    in-order half of :meth:`TimeSeriesCompressor.append` that owns the
    closed prediction loop — and consumed by
    :meth:`TimeSeriesCompressor.encode_residual`.  Everything the
    entropy stage needs travels in the plan (quantized bins, key/delta
    decision, code-book context and refresh flag), so the encode may
    run outside the prediction loop: the decoded-feedback dependency
    lives entirely in ``predict_residual``.
    """

    index: int
    is_key: bool
    context: str
    refresh: bool
    prepared: PreparedFrame


@dataclass
class CompressedSeries:
    """A compressed sequence of frames."""

    frames: list[CompressedData]
    is_key: list[bool]
    shape: tuple[int, ...]
    tol: float

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.frames)

    def compression_ratio(self, itemsize: int = 8) -> float:
        n = itemsize * self.n_frames
        for s in self.shape:
            n *= s
        return n / self.nbytes


class TimeSeriesCompressor:
    """Error-bounded compressor for snapshot sequences.

    Parameters
    ----------
    hier:
        Spatial hierarchy shared by every frame.
    tol:
        Per-frame absolute L∞ error bound (holds for every frame, not
        just key frames, thanks to closed-loop prediction).
    key_interval:
        A key frame every this many frames (1 = all independent).
    backend:
        Passed through to the spatial :class:`MgardCompressor`.
    executor:
        Executor (spec string or instance) for the entropy stage's one
        fan-out over class segments (and the zlib sub-blocks of a large one).
    reuse_codebooks:
        Reuse Huffman code books across steps (ignored for zlib, which
        has no per-stream setup to amortize).  Each compressor owns its
        code-book chain, so two streams never alias each other.
    """

    def __init__(
        self,
        hier: TensorHierarchy,
        tol: float,
        key_interval: int = 16,
        backend: str = "zlib",
        executor=None,
        reuse_codebooks: bool = True,
    ):
        if key_interval < 1:
            raise ValueError("key_interval must be >= 1")
        self.hier = hier
        self.tol = float(tol)
        self.key_interval = key_interval
        self._spatial = MgardCompressor(hier, tol, backend=backend, executor=executor)
        self.reuse_codebooks = bool(reuse_codebooks) and backend == "huffman"
        self._scratch = {} if self.reuse_codebooks else None
        # the loop state: float64 sum, in the refactored layout, of the
        # de-quantized coefficients of every step since the key frame
        self._coeff_sum: np.ndarray | None = None
        self._t = 0
        self._rebase_delta = False

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restart the prediction loop (the next frame is a key frame)."""
        self._coeff_sum = None
        self._t = 0
        self._rebase_delta = False

    def append(self, frame: np.ndarray) -> tuple[CompressedData, bool]:
        """Compress one more step of the stream; returns (blob, is_key).

        This is the producer-side incremental API: a running simulation
        appends steps as they are computed, and the compressor keeps the
        closed prediction loop and the code-book chain across calls.
        Equivalent to ``encode_residual(predict_residual(frame))``.
        """
        return self.encode_residual(self.predict_residual(frame))

    def predict_residual(self, frame: np.ndarray) -> ResidualPlan:
        """Refactor + predict + quantize one step; advance the loop.

        The in-order half of :meth:`append`: refactors the frame — in its
        own dtype at key frames, in float64 otherwise — subtracts the
        loop state (the running sum of de-quantized coefficients) from
        the coefficients of a non-key frame, and quantizes the result.
        Entropy coding is lossless, so the loop closes from the bins
        alone: their de-quantized coefficients start the sum at a key
        frame and are added into it otherwise, without waiting for any
        bytes or recomposing anything.  The bins equal those of refactoring
        the spatial residual against the previous reconstruction but for
        values within roundoff of a bin edge.  Calls must arrive in stream
        order; the returned plan may be entropy-coded later, after the next
        frame's prediction, via :meth:`encode_residual`.
        """
        if frame.shape != self.hier.shape:
            raise ValueError(
                f"frame {self._t} has shape {frame.shape}, expected {self.hier.shape}"
            )
        is_key = self._coeff_sum is None or self._t % self.key_interval == 0
        t0 = time.perf_counter()
        coeffs = decompose(np.ascontiguousarray(frame, dtype=None if is_key else np.float64),
                           self.hier)
        if not is_key:
            np.subtract(coeffs, self._coeff_sum, out=coeffs)  # coeffs is fresh
        prepared = self._spatial.prepare_refactored(coeffs, refactor_wall=time.perf_counter() - t0)
        self._coeff_sum = Quantizer.dequantize_refactored(
            prepared.bins, prepared.sizes, prepared.steps, self.hier,
            add_to=None if is_key else self._coeff_sum)
        # key frames and temporal residuals have very different bin
        # statistics, so each keeps its own code-book chain; both chains
        # re-base (full books) once per key interval, which also keeps
        # every table_ref resolvable from the nearest key frame — the
        # random-access granularity closed-loop prediction has anyway
        if is_key:
            context, refresh = "key", True
            self._rebase_delta = True
        else:
            context, refresh = "delta", self._rebase_delta
            self._rebase_delta = False
        plan = ResidualPlan(
            index=self._t,
            is_key=is_key,
            context=context,
            refresh=refresh,
            prepared=prepared,
        )
        self._t += 1
        return plan

    def encode_residual(self, plan: ResidualPlan) -> tuple[CompressedData, bool]:
        """Entropy-code a :class:`ResidualPlan`; returns (blob, is_key).

        Stateless with respect to the prediction loop: the plan carries
        everything the entropy stage needs.  Plans that share this
        compressor's code-book chain (``reuse_codebooks``) must still be
        encoded in stream order, but the *prediction* of later frames
        never waits on this call.
        """
        blob = self._spatial.encode_prepared(
            plan.prepared,
            scratch=self._scratch,
            refresh=plan.refresh,
            context=plan.context,
        )
        return blob, plan.is_key

    def compress(self, frames: list[np.ndarray]) -> CompressedSeries:
        """Compress a frame sequence with closed-loop temporal prediction."""
        if not frames:
            raise ValueError("need at least one frame")
        self.reset()
        blobs: list[CompressedData] = []
        keys: list[bool] = []
        for frame in frames:
            blob, is_key = self.append(frame)
            blobs.append(blob)
            keys.append(is_key)
        return CompressedSeries(
            frames=blobs, is_key=keys, shape=self.hier.shape, tol=self.tol
        )

    def decompress(self, series: CompressedSeries) -> list[np.ndarray]:
        """Reconstruct every frame (each within ``tol`` of the original)."""
        if series.shape != self.hier.shape:
            raise ValueError("series was compressed for a different grid")
        out: list[np.ndarray] = []
        prev: np.ndarray | None = None
        scratch: dict = {}  # rebuilt code-book chain, local to this pass
        for blob, is_key in zip(series.frames, series.is_key):
            delta = self._spatial.decompress(blob, scratch=scratch)
            frame = delta if is_key else np.add(prev, delta, out=delta)
            out.append(frame)
            prev = frame
        return out
