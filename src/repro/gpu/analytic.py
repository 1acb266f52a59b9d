"""Shape-only (analytic) performance model of full refactoring passes.

Walks Algorithm 3 through :func:`repro.kernels.launches.iter_decompose_launches`
without touching any data, so paper-scale configurations (8193² grids,
4 TB datasets, 4096 GPUs) evaluate in microseconds.  Every modeled
refactoring time in the package comes from :func:`model_pass`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..core.grid import TensorHierarchy, hierarchy_for
from .cost import cpu_kernel_time, gpu_kernel_time
from .device import CpuSpec, DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (gpu <-> kernels)
    from ..kernels.launches import EngineOptions

__all__ = ["ModeledPass", "model_pass", "model_pass_shape"]


@dataclass
class ModeledPass:
    """Modeled time of one decomposition or recomposition pass."""

    operation: str
    shape: tuple[int, ...]
    hardware: str
    total_seconds: float
    category_seconds: dict[str, float] = field(default_factory=dict)
    n_launches: int = 0

    @property
    def throughput_gbps(self) -> float:
        """Useful data throughput: input bytes / modeled seconds."""
        nbytes = 8
        for s in self.shape:
            nbytes *= s
        return nbytes / self.total_seconds / 1e9


def model_pass(
    hier: TensorHierarchy,
    hardware: DeviceSpec | CpuSpec,
    opts: "EngineOptions | None" = None,
    operation: str = "decompose",
) -> ModeledPass:
    """Model one pass over an existing hierarchy."""
    # Imported here to break the repro.gpu <-> repro.kernels cycle.
    from ..kernels.launches import EngineOptions, category_of, iter_decompose_launches

    if opts is None:
        opts = EngineOptions()
    if isinstance(hardware, DeviceSpec):
        timer = lambda rec: gpu_kernel_time(rec, hardware)  # noqa: E731
    elif isinstance(hardware, CpuSpec):
        timer = lambda rec: cpu_kernel_time(rec, hardware)  # noqa: E731
    else:
        raise TypeError(f"hardware must be DeviceSpec or CpuSpec, got {type(hardware)}")
    total = 0.0
    cats: dict[str, float] = defaultdict(float)
    n = 0
    for rec in iter_decompose_launches(hier, opts, operation):
        t = timer(rec)
        total += t
        cats[category_of(rec)] += t
        n += 1
    if isinstance(hardware, CpuSpec) and "PN" in cats:
        cats["MC"] += cats.pop("PN")
    return ModeledPass(
        operation=operation,
        shape=hier.shape,
        hardware=hardware.name,
        total_seconds=total,
        category_seconds=dict(cats),
        n_launches=n,
    )


def model_pass_shape(
    shape: tuple[int, ...],
    hardware: DeviceSpec | CpuSpec,
    opts: "EngineOptions | None" = None,
    operation: str = "decompose",
) -> ModeledPass:
    """Model one pass over a uniform grid of the given shape."""
    return model_pass(hierarchy_for(shape), hardware, opts, operation)
