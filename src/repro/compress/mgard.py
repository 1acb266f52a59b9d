"""MGARD-style error-bounded lossy compressor (paper Showcase V-B).

Pipeline (matching the MGARD software the paper accelerates):

1. **data refactoring** — multigrid decomposition into coefficient
   classes (the stage the paper offloads to the GPU);
2. **quantization** — error-budgeted uniform scalar quantization of the
   classes (also offloaded in the paper, to avoid an extra host
   round-trip);
3. **entropy encoding** — lossless coding of the integer bins (zlib in
   the paper; kept on the CPU).

:class:`MgardCompressor` is functional end to end (compress →
decompress honours the L∞ error bound) and reports real wall-clock
times of every stage; the *modeled* hardware times of the paper's
Fig. 11 breakdown are computed from shapes alone by
:func:`repro.experiments.showcases.fig11_mgard`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.decompose import decompose, recompose
from ..core.grid import TensorHierarchy
from .lossless import decode_classes, encode_classes
from .quantizer import Quantizer

__all__ = ["CompressedData", "MgardCompressor", "PreparedFrame", "StageTimes"]


@dataclass
class StageTimes:
    """Per-stage timings of one compress/decompress call (seconds)."""

    refactor_wall: float = 0.0
    quantize_wall: float = 0.0
    entropy_wall: float = 0.0


@dataclass
class PreparedFrame:
    """Refactored + quantized (but not yet entropy-coded) data.

    The output of :meth:`MgardCompressor.prepare` /
    :meth:`~MgardCompressor.prepare_refactored` and the input of
    :meth:`MgardCompressor.encode_prepared` — the seam that splits one
    ``compress`` call into its in-order half (refactor + quantize,
    which closed-loop temporal prediction must run serially because
    the decoded coefficients feed the next frame's residual) and its
    stateless half (entropy coding).  Entropy coding is lossless, so the decoded coefficients are
    already fully determined here: :meth:`Quantizer.dequantize_refactored`
    of ``bins`` inverts the quantization without ever touching the encoder.
    """

    bins: np.ndarray = field(repr=False)  # int64 concatenation of classes
    sizes: list[int]
    steps: list[float]
    shape: tuple[int, ...]
    tol: float
    mode: str
    times: StageTimes = field(default_factory=StageTimes)


@dataclass
class CompressedData:
    """Self-contained compressed representation of one array."""

    payloads: list[bytes]
    headers: list[dict]
    steps: list[float]
    shape: tuple[int, ...]
    tol: float
    mode: str
    times: StageTimes = field(default_factory=StageTimes)

    @property
    def nbytes(self) -> int:
        meta = len(json.dumps(self.headers).encode())
        return sum(len(p) for p in self.payloads) + meta

    def compression_ratio(self, itemsize: int = 8) -> float:
        n = 1
        for s in self.shape:
            n *= s
        return n * itemsize / self.nbytes


class MgardCompressor:
    """Error-bounded lossy compressor built on multigrid refactoring.

    Parameters
    ----------
    hier:
        The grid hierarchy (shape + optional non-uniform coordinates).
    tol:
        Absolute L∞ error bound for round-tripped data.
    mode:
        Quantizer budgeting mode (``"level"`` or ``"uniform"``).
    backend:
        Lossless backend (``"zlib"`` — the paper's choice — or
        ``"huffman"``).
    executor:
        Executor (instance or spec string — ``serial``, ``thread[:N]``,
        ``process[:N]``, ``auto``; see :mod:`repro.parallel`) scheduling
        the entropy stage's work units — the class segments, and the zlib
        sub-blocks of a large one; defaults to the ambient one.  The emitted
        bytes do not depend on this choice.

    All coefficient classes are encoded into one segmented payload with
    a single shared header.
    """

    def __init__(
        self,
        hier: TensorHierarchy,
        tol: float,
        mode: str = "level",
        backend: str = "zlib",
        executor=None,
    ):
        from ..parallel.executors import get_executor

        self.hier = hier
        self.quantizer = Quantizer(tol, mode=mode)
        self.backend = backend
        self.executor = get_executor(executor)

    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedData:
        """Compress ``data`` with the configured error bound: :meth:`prepare`,
        then :meth:`encode_prepared` with no code-book chain."""
        return self.encode_prepared(self.prepare(data))

    def prepare(self, data: np.ndarray) -> PreparedFrame:
        """Refactor and quantize ``data`` without entropy-coding it.

        The in-order half of :meth:`compress`: multigrid decomposition,
        then :meth:`prepare_refactored`.
        """
        t0 = time.perf_counter()
        refactored = decompose(data, self.hier)
        return self.prepare_refactored(refactored, refactor_wall=time.perf_counter() - t0)

    def prepare_refactored(self, refactored: np.ndarray, refactor_wall: float = 0.0) -> PreparedFrame:
        """Quantize an already refactored array (the layout :func:`decompose`
        returns) without entropy-coding it: the class split fused with the
        quantizer (:meth:`Quantizer.quantize_refactored`).  ``refactor_wall``
        is the decomposition's time, recorded in the frame's :class:`StageTimes`.

        The returned :class:`PreparedFrame` fully determines both the final
        container (:meth:`encode_prepared`) and the decoded coefficients
        (:meth:`Quantizer.dequantize_refactored` of its bins), so closed-loop
        prediction can advance to the next frame while the entropy stage
        still runs.
        """
        t0 = time.perf_counter()
        bins, sizes, steps = self.quantizer.quantize_refactored(refactored, self.hier)
        times = StageTimes(refactor_wall=refactor_wall, quantize_wall=time.perf_counter() - t0)
        return PreparedFrame(
            bins=bins,
            sizes=sizes,
            steps=list(steps),
            shape=self.hier.shape,
            tol=self.quantizer.tol,
            mode=self.quantizer.mode,
            times=times,
        )

    def encode_prepared(
        self,
        prep: PreparedFrame,
        *,
        scratch: dict | None = None,
        refresh: bool = False,
        context: str = "default",
    ) -> CompressedData:
        """Entropy-code a :class:`PreparedFrame` into a container.

        The stateless half of :meth:`compress`: given the quantized
        bins, the emitted bytes depend only on (``scratch`` chain
        position, ``refresh``, ``context``) — not on any compressor
        state — so it may run outside the prediction loop.
        ``scratch`` (a dict the caller keeps across calls) enables
        cross-call Huffman code-book reuse, ``refresh=True`` forces a
        full rebuild of every book (key frames), and ``context`` separates reuse
        chains whose statistics differ by construction (key frames vs
        temporal residuals); see :func:`~repro.compress.lossless.encode_classes`.
        Calls that share a ``scratch`` (a code-book chain) must still
        arrive in stream order.
        """
        if prep.shape != self.hier.shape:
            raise ValueError(
                f"prepared frame has shape {prep.shape}, not {self.hier.shape}"
            )
        if prep.tol != self.quantizer.tol or prep.mode != self.quantizer.mode:
            # the bins were quantized under *that* budget; encoding them
            # here would stamp the container with this compressor's
            # tol/mode and claim an error bound the payload cannot honour
            raise ValueError(
                f"prepared frame was quantized for tol={prep.tol}, "
                f"mode={prep.mode!r}; this compressor is "
                f"tol={self.quantizer.tol}, mode={self.quantizer.mode!r}"
            )
        times = StageTimes(
            refactor_wall=prep.times.refactor_wall,
            quantize_wall=prep.times.quantize_wall,
        )
        t0 = time.perf_counter()
        payload, header = encode_classes(
            prep.bins,
            prep.sizes,
            backend=self.backend,
            executor=self.executor,
            scratch=scratch,
            refresh=refresh,
            context=context,
        )
        times.entropy_wall = time.perf_counter() - t0

        return CompressedData(
            payloads=[payload],
            headers=[header],
            steps=list(prep.steps),
            shape=self.hier.shape,
            tol=self.quantizer.tol,
            mode=self.quantizer.mode,
            times=times,
        )

    def decompress(
        self, blob: CompressedData, *, scratch: dict | None = None
    ) -> np.ndarray:
        """Invert :meth:`compress` (up to the error bound).

        ``scratch`` resolves code-book references of blobs encoded with
        cross-call reuse; such blobs must be decoded in stream order
        from their last key frame.
        """
        if blob.shape != self.hier.shape:
            raise ValueError(
                f"blob was compressed for shape {blob.shape}, not {self.hier.shape}"
            )
        times = StageTimes()
        t0 = time.perf_counter()
        flat, sizes = decode_classes(
            blob.payloads[0],
            blob.headers[0],
            executor=self.executor,
            scratch=scratch,
        )
        times.entropy_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        refactored = Quantizer.dequantize_refactored(flat, sizes, blob.steps, self.hier)
        times.quantize_wall = time.perf_counter() - t0  # de-quantization and the class scatter

        t0 = time.perf_counter()
        out = recompose(refactored, self.hier)
        times.refactor_wall = time.perf_counter() - t0

        blob.times = times
        return out
