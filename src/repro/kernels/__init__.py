"""Kernel frameworks and the launch model.

Embodies the paper's §III: the grid-processing and linear-processing
kernel frameworks (literal tiled implementations for validation), the
backend registry over the NumPy and C kernels, and the launch-record
builders whose Algorithm-3 walk the simulated-GPU / CPU-baseline cost
models price (:func:`repro.gpu.analytic.model_pass`).
"""

from .launches import (
    CATEGORY,
    CPU_BASELINE_OPTIONS,
    EngineOptions,
    category_of,
    iter_decompose_launches,
)
from .batch3d import SliceLaunch, SlicedLinearProcessor
from .grid_processing import GridProcessingKernel, interpolation_thread_assignment
from .launcher import (
    available_backends,
    kernel_backend_policy,
    run_op,
    set_kernel_backend,
)
from .linear_processing import LinearProcessingKernel

__all__ = [
    "CATEGORY",
    "CPU_BASELINE_OPTIONS",
    "GridProcessingKernel",
    "LinearProcessingKernel",
    "SliceLaunch",
    "SlicedLinearProcessor",
    "EngineOptions",
    "available_backends",
    "category_of",
    "interpolation_thread_assignment",
    "iter_decompose_launches",
    "kernel_backend_policy",
    "run_op",
    "set_kernel_backend",
]
