"""Node-level machine models (paper Table VI).

A :class:`NodeSpec` bundles the GPUs and CPU sockets of one machine.
Presets describe the two evaluation platforms:

* ``SUMMIT_NODE`` — 6× V100 + 2× 21-usable-core POWER9 (42 cores);
* ``DESKTOP`` — 1× RTX 2080 Ti + 8-core i7-9700K.

Table VI compares *all GPUs* against *all CPU cores* of one machine on
a dataset partitioned equally — refactoring partitions independently
(no halo exchange), so the node time is the slowest partition's time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.grid import hierarchy_for
from ..gpu.analytic import model_pass
from ..gpu.device import (
    CpuSpec,
    DeviceSpec,
    I7_9700K_CORE,
    POWER9_CORE,
    RTX2080TI,
    V100,
)

__all__ = ["NodeSpec", "SUMMIT_NODE", "DESKTOP", "partition_shape", "node_speedup"]


@dataclass(frozen=True)
class NodeSpec:
    """One machine: its GPUs and its CPU cores."""

    name: str
    gpu: DeviceSpec
    n_gpus: int
    cpu: CpuSpec

    @property
    def n_cores(self) -> int:
        return self.cpu.cores


SUMMIT_NODE = NodeSpec(name="Summit node", gpu=V100, n_gpus=6, cpu=POWER9_CORE)
DESKTOP = NodeSpec(name="GPU-accelerated desktop", gpu=RTX2080TI, n_gpus=1, cpu=I7_9700K_CORE)


def partition_shape(shape: tuple[int, ...], n_parts: int) -> tuple[int, ...]:
    """Per-partition shape when splitting ``shape`` along its first axis.

    The paper partitions by assigning "each GPU an equal sized data
    partition"; partitions are refactored independently, so only the
    largest partition matters for node time.  Refactoring wants
    ``2^L + 1``-friendly sizes, but the hierarchy supports any size, so
    a plain ceil-split is faithful.
    """
    if n_parts < 1:
        raise ValueError("need at least one partition")
    first = -(-shape[0] // n_parts)  # ceil division: the largest part
    return (max(first, 1),) + tuple(shape[1:])


def node_speedup(
    node: NodeSpec,
    shape: tuple[int, ...],
    operation: str = "decompose",
    gpu_opts=None,
) -> dict:
    """Model Table VI: all-GPUs versus all-CPU-cores time on one node.

    Both sides scale near-linearly (independent partitions); the CPU
    side additionally pays the socket's memory-bandwidth contention
    through ``CpuSpec.parallel_efficiency``.
    """
    from ..kernels.launches import CPU_BASELINE_OPTIONS, EngineOptions

    if gpu_opts is None:
        gpu_opts = EngineOptions(n_streams=8 if len(shape) >= 3 else 1)
    gpu_shape = partition_shape(shape, node.n_gpus)
    cpu_shape = partition_shape(shape, node.n_cores)
    t_gpu = model_pass(
        hierarchy_for(gpu_shape), node.gpu, gpu_opts, operation
    ).total_seconds
    t_cpu = (
        model_pass(
            hierarchy_for(cpu_shape), node.cpu, CPU_BASELINE_OPTIONS, operation
        ).total_seconds
        / node.cpu.parallel_efficiency
    )
    return {
        "node": node.name,
        "shape": shape,
        "operation": operation,
        "gpu_seconds": t_gpu,
        "cpu_seconds": t_cpu,
        "speedup": t_cpu / t_gpu,
    }
