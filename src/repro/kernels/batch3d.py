"""3D linear processing via batched 2D slice kernels (paper §III-D).

The paper does not write 3D linear-processing kernels; it reuses the 2D
designs slice by slice: "we use the 2D design to build both 2D and 3D
data refactoring routines ... As processing different 2D slices for 3D
input can be performed independently, we use CUDA streams" (opt. 3).
The slicing rule (§III-C) keeps accesses coalesced: vectors along the
first dimension batch on the x-y plane, along the second on x-y, along
the third on x-z — i.e. the *plane* always contains the processing axis
plus one batching axis, and kernels launch once per remaining-axis
slice.

This module is the literal embodiment: :class:`SlicedLinearProcessor`
walks a 3D array slice by slice, runs the genuine 2D
:class:`~repro.kernels.linear_processing.LinearProcessingKernel` on
each slice, assigns launches round-robin to a simulated stream set, and
returns both the (bit-exact) result and the launch timeline.  Tests
assert equality with the vectorized 3D operators and that the timeline
matches the closed-form wave model of the cost layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.grid import LevelOps
from ..gpu.streams import StreamScheduler
from .linear_processing import LinearProcessingKernel

__all__ = ["SliceLaunch", "SlicedLinearProcessor"]


@dataclass(frozen=True)
class SliceLaunch:
    """One recorded 2D-kernel launch of the slice walk."""

    kernel: str
    slice_index: int
    stream: int
    plane_shape: tuple[int, int]


def _slice_axes(axis: int) -> tuple[int, int]:
    """(batch_axis, slice_axis) for a processing ``axis`` on 3D data.

    The plane contains ``axis`` and the batching axis; kernels launch
    once per index of the slicing axis.  Mirrors the paper's x-y / x-z
    plane rule with the processing axis always inside the plane.
    """
    others = [a for a in range(3) if a != axis]
    # batch on the lower remaining axis, slice along the higher one —
    # for C-order arrays this keeps the last (contiguous) axis inside
    # the plane whenever possible
    return others[0], others[1]


class SlicedLinearProcessor:
    """Run the 2D linear kernels over a 3D array, slice by slice.

    Parameters
    ----------
    ops:
        Operator data of the (dimension, level) being processed.
    n_streams:
        Simulated CUDA streams for round-robin launch assignment.
    segment:
        Segment length of the underlying 2D kernels.
    """

    def __init__(
        self,
        ops: LevelOps,
        n_streams: int = 1,
        segment: int = 32,
    ):
        self.ops = ops
        self.kernel2d = LinearProcessingKernel(ops, segment=segment)
        self.scheduler = StreamScheduler(n_streams)
        self.n_streams = n_streams
        self.launches: list[SliceLaunch] = []

    # ------------------------------------------------------------------
    def _walk(self, v: np.ndarray, axis: int, name: str, fn, out_len: int) -> np.ndarray:
        if v.ndim != 3:
            raise ValueError("SlicedLinearProcessor expects 3D data")
        batch_axis, slice_axis = _slice_axes(axis)
        n_slices = v.shape[slice_axis]
        out_shape = list(v.shape)
        out_shape[axis] = out_len
        out = np.empty(tuple(out_shape), dtype=v.dtype)
        for s in range(n_slices):
            idx: list[object] = [slice(None)] * 3
            idx[slice_axis] = s
            plane = v[tuple(idx)]  # 2D view: (batch, axis) in some order
            # orient the plane so the processing axis is last
            plane_axis = 0 if axis < batch_axis else 1
            plane2 = np.moveaxis(plane, plane_axis, -1)
            result = fn(np.ascontiguousarray(plane2))
            out[tuple(idx)] = np.moveaxis(result, -1, plane_axis)
            self.launches.append(
                SliceLaunch(
                    kernel=name,
                    slice_index=s,
                    stream=s % self.n_streams,
                    plane_shape=tuple(plane2.shape),
                )
            )
        return out

    def mass_multiply(self, v: np.ndarray, axis: int) -> np.ndarray:
        """Mass-matrix apply along ``axis`` of a 3D array, slice-wise."""
        return self._walk(v, axis, "mass", self.kernel2d.mass_multiply, self.ops.m_fine)

    def transfer_multiply(self, f: np.ndarray, axis: int) -> np.ndarray:
        """Restriction along ``axis`` of a 3D array, slice-wise."""
        return self._walk(
            f, axis, "transfer", self.kernel2d.transfer_multiply, self.ops.m_coarse
        )

    def solve(self, f: np.ndarray, axis: int) -> np.ndarray:
        """Coarse-mass solve along ``axis`` of a 3D array, slice-wise (float64 out)."""
        f = f.astype(np.float64, copy=False)  # the solve kernel's output dtype
        return self._walk(f, axis, "solve", self.kernel2d.solve, self.ops.m_coarse)

    # ------------------------------------------------------------------
    def modeled_makespan(self, per_launch_seconds: float) -> float:
        """Schedule the recorded launches on the stream set.

        With equal launch durations this equals the closed-form
        ``ceil(n / streams) * duration`` wave model used by
        :func:`repro.gpu.cost.gpu_kernel_time` (tested).
        """
        return self.scheduler.makespan([per_launch_seconds] * len(self.launches))
