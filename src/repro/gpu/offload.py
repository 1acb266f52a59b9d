"""CPU-application offload analysis (paper §I).

The paper argues that even for *CPU-based* applications "it can be
cost-effective to offload the data refactoring workloads to GPUs when
they are available, especially given that fast CPU-GPU interconnections
such as PCIe and NVLinks are available".  This module quantifies that
claim with the same cost model as the rest of the substrate:

offloaded refactoring pays the host→device transfer, the GPU pass, and
the device→host transfer of the refactored payload; in-situ refactoring
pays the serial-CPU pass.  :func:`offload_breakeven` locates the grid
size where offloading starts to win — a decision-support artifact the
paper asserts qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.grid import hierarchy_for
from .analytic import model_pass
from .device import CpuSpec, DeviceSpec, POWER9_CORE, V100

__all__ = ["OffloadPoint", "offload_analysis", "offload_breakeven"]


@dataclass
class OffloadPoint:
    """Cost comparison of one grid size."""

    shape: tuple[int, ...]
    cpu_seconds: float
    transfer_seconds: float
    gpu_seconds: float

    @property
    def offload_seconds(self) -> float:
        return self.transfer_seconds + self.gpu_seconds

    @property
    def offload_speedup(self) -> float:
        return self.cpu_seconds / self.offload_seconds

    @property
    def worthwhile(self) -> bool:
        return self.offload_speedup > 1.0


def offload_analysis(
    shapes: list[tuple[int, ...]],
    device: DeviceSpec = V100,
    cpu: CpuSpec = POWER9_CORE,
    operation: str = "decompose",
    roundtrip: bool = True,
) -> list[OffloadPoint]:
    """Model offloaded vs in-situ refactoring for a sweep of shapes.

    ``roundtrip=True`` charges both H2D and D2H transfers (the data is
    produced and consumed on the host); ``False`` charges H2D only
    (e.g. the refactored payload leaves via GPUDirect, §I).
    """
    from ..kernels.launches import CPU_BASELINE_OPTIONS, EngineOptions

    link_bw = device.pcie_bandwidth_gbps * 1e9
    out = []
    for shape in shapes:
        hier = hierarchy_for(shape)
        nbytes = int(np.prod(shape)) * 8
        n_transfers = 2 if roundtrip else 1
        opts = EngineOptions(n_streams=8 if len(shape) >= 3 else 1)
        out.append(
            OffloadPoint(
                shape=shape,
                cpu_seconds=model_pass(
                    hier, cpu, CPU_BASELINE_OPTIONS, operation
                ).total_seconds,
                transfer_seconds=n_transfers * nbytes / link_bw,
                gpu_seconds=model_pass(hier, device, opts, operation).total_seconds,
            )
        )
    return out


def offload_breakeven(
    sides: tuple[int, ...] = (17, 33, 65, 129, 257, 513, 1025, 2049, 4097, 8193),
    ndim: int = 2,
    device: DeviceSpec = V100,
    cpu: CpuSpec = POWER9_CORE,
    roundtrip: bool = True,
) -> tuple[int | None, list[OffloadPoint]]:
    """Smallest side where offloading beats in-situ CPU refactoring.

    Returns ``(side or None, full sweep)``; ``None`` when offloading
    never wins over the sweep.
    """
    shapes = [tuple(s for _ in range(ndim)) for s in sides]
    points = offload_analysis(shapes, device, cpu, roundtrip=roundtrip)
    for side, p in zip(sides, points):
        if p.worthwhile:
            return side, points
    return None, points
