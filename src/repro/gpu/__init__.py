"""Simulated-GPU substrate: device specs, cost model, memory footprint model.

Stands in for the CUDA devices the paper uses (see DESIGN.md §2 for the
substitution argument).  Functional execution stays in NumPy; this
package converts *what a kernel touches* into *how long it would take*
on a described device.
"""

from .analytic import ModeledPass, model_pass, model_pass_shape
from .cost import KernelLaunch, cpu_kernel_time, gpu_kernel_time
from .device import CpuSpec, DeviceSpec, I7_9700K_CORE, POWER9_CORE, RTX2080TI, V100
from .memory import FootprintReport, refactoring_footprint
from .offload import OffloadPoint, offload_analysis, offload_breakeven

__all__ = [
    "CpuSpec",
    "DeviceSpec",
    "FootprintReport",
    "I7_9700K_CORE",
    "KernelLaunch",
    "ModeledPass",
    "OffloadPoint",
    "POWER9_CORE",
    "RTX2080TI",
    "V100",
    "cpu_kernel_time",
    "gpu_kernel_time",
    "model_pass",
    "model_pass_shape",
    "offload_analysis",
    "offload_breakeven",
    "refactoring_footprint",
]
