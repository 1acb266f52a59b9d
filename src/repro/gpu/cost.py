"""First-order kernel time model for the simulated GPU and CPU baseline.

Every operation of a refactoring pass is summarized as a
:class:`KernelLaunch` record; :func:`gpu_kernel_time` and
:func:`cpu_kernel_time` convert a record plus a hardware spec into
modeled seconds.  The model is deliberately first-order — the paper's
kernels are memory-bound, so the performance story is carried by how
many bytes move and at what efficiency:

``GPU``
    ``T = waves × (launch_overhead + max(T_mem, T_chain))`` where

    * ``T_mem = wave_bytes / (BW_peak · sustained · scale · coalesce ·
      occupancy / divergence)``;
    * *coalesce* ``= min(1, sector_elems / stride)`` — a stride-``s``
      access pattern wastes all but ``sector/s`` of every DRAM
      transaction (this is what collapses the naive designs at coarse
      levels, paper Fig. 7);
    * *occupancy* ``= min(cap, concurrent_warps / saturating_warps)`` —
      small grids (and per-slice 2D launches on 3D data) cannot keep
      enough warps in flight to hide DRAM latency (paper Fig. 7 right
      side, Fig. 8's stream optimization);
    * *divergence* serializes intra-warp execution paths (the paper's
      Algorithm 1 exists to keep it at 1.0);
    * ``T_chain = chain_length × chain_step_ns`` models the sequential
      dependence of the correction solver (forward + backward sweeps);
    * ``waves = ceil(launches / streams)`` — concurrent CUDA streams
      overlap per-slice launches (paper §III-D optimization 3).

``CPU`` (serial baseline)
    ``T = elements × (element_ns · scale + dram_latency · miss(stride))
    + bytes / stream_bandwidth`` — a scalar loop whose per-element cost
    grows to a full DRAM latency once the access stride exceeds the
    cacheline (the CPU curve of Fig. 7).

Calibration constants live in :mod:`repro.gpu.device` and in the
per-kernel ``sustained_scale`` / ``cpu_scale`` fields set by the record
builders in :mod:`repro.kernels.launches`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .device import CpuSpec, DeviceSpec

__all__ = ["KernelLaunch", "gpu_kernel_time", "cpu_kernel_time"]


@dataclass
class KernelLaunch:
    """One modeled operation (a kernel launch, or a batch of per-slice launches).

    Attributes
    ----------
    name:
        Kernel identifier (``"compute_coefficients"``, ``"mass"``, …).
    kind:
        Category used by reports: ``"grid"``, ``"linear"``, ``"solve"``,
        ``"copy"``, or ``"pack"``.
    elements:
        Element visits (drives the CPU scalar-cost term).
    bytes_read / bytes_written:
        Useful DRAM traffic, before coalescing waste.
    threads:
        Total parallel work items across all launches in the batch.
    stride:
        Dominant access stride in elements (1 = packed/contiguous).
    itemsize:
        Bytes per element (8 for the paper's double-precision data).
    divergence:
        Intra-warp path-serialization factor (1.0 = divergence-free).
    chain_length:
        Length of the longest sequential dependence chain per launch
        (the correction solver's 2·m forward/backward steps); 0 if none.
    occupancy_cap:
        Resource-usage bound on achievable occupancy (< 1 for the
        register/shared-memory-heavy 3D coefficient blocks, §IV-A).
    sustained_scale:
        Per-kernel multiplier on the device's sustained bandwidth.
    cpu_scale:
        Per-kernel multiplier on the CPU per-element cost.
    n_launches:
        Number of identical kernel launches this record aggregates
        (e.g. one per 2D slice of a 3D array).
    n_streams:
        CUDA streams available to overlap those launches.
    level:
        Decomposition level, for reporting/debugging.
    """

    name: str
    kind: str
    elements: int
    bytes_read: int
    bytes_written: int
    threads: int
    stride: int = 1
    itemsize: int = 8
    divergence: float = 1.0
    chain_length: int = 0
    occupancy_cap: float = 1.0
    sustained_scale: float = 1.0
    cpu_scale: float = 1.0
    n_launches: int = 1
    n_streams: int = 1
    level: int = -1
    extra: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


def gpu_kernel_time(k: KernelLaunch, dev: DeviceSpec) -> float:
    """Modeled execution time of ``k`` on GPU ``dev`` in seconds."""
    launches = max(1, k.n_launches)
    streams = max(1, min(k.n_streams, launches, dev.max_concurrent_kernels))
    waves = math.ceil(launches / streams)

    eff_coalesce = min(1.0, dev.sector_elems(k.itemsize) / max(1, k.stride))
    warps_per_launch = max(1.0, k.threads / launches / dev.warp_size)
    concurrent_warps = warps_per_launch * streams
    occupancy = min(k.occupancy_cap, concurrent_warps / dev.saturating_warps, 1.0)
    occupancy = max(occupancy, 1e-4)

    bw = dev.effective_bandwidth * k.sustained_scale * eff_coalesce * occupancy / k.divergence
    wave_bytes = k.total_bytes / waves
    t_mem = wave_bytes / bw
    t_chain = k.chain_length * dev_chain_step_ns(dev) * 1e-9
    return waves * (dev.launch_overhead_us * 1e-6 + max(t_mem, t_chain))


def dev_chain_step_ns(dev: DeviceSpec) -> float:
    """Latency of one dependent step of an in-kernel sequential chain.

    Roughly a shared-memory round trip plus the fused multiply-adds of
    one Thomas-algorithm update; treated as a device constant.
    """
    return 14.0


def cpu_kernel_time(k: KernelLaunch, cpu: CpuSpec) -> float:
    """Modeled execution time of ``k`` on one CPU core, in seconds."""
    line_elems = cpu.line_elems(k.itemsize)
    # Fraction of accesses that miss cache because the stride skips over
    # most of each line; saturates at 1 (every access a fresh line).
    miss = min(1.0, max(0, k.stride - 1) / line_elems)
    per_element_ns = cpu.element_ns * k.cpu_scale + _CPU_DRAM_LATENCY_NS * miss
    t_compute = k.elements * per_element_ns * 1e-9
    t_stream = k.total_bytes / (cpu.stream_bandwidth_gbps * 1e9)
    return max(t_compute, t_stream)


#: Effective random-access DRAM latency of the baseline CPU cores.
_CPU_DRAM_LATENCY_NS = 85.0
