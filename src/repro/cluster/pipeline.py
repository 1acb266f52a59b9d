"""Producer→consumer pipeline overlap model.

The paper's workflow showcase treats refactor and I/O as sequential
stages; in a steady-state simulation campaign they *pipeline*: while
step ``t`` writes, step ``t+1`` refactors, and (with GPUDirect-style
paths, paper §I) the transfer stage overlaps too.  This module models
that: a chain of stages with per-step durations, executed over ``n``
steps with unlimited buffering between stages, has makespan

    T = Σ_s d_s  +  (n − 1) · max_s d_s

(fill the pipe once, then the bottleneck stage paces every further
step).  :func:`steady_state_throughput` turns that into sustained
bytes/s, and :func:`workflow_pipeline` builds the stage durations for
the refactor→transfer→write chain from the same models as Fig. 10 —
showing how much of the refactoring cost disappears behind I/O once
the workflow streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.grid import hierarchy_for
from ..gpu.analytic import model_pass
from ..gpu.device import DeviceSpec, V100
from ..io.storage import ALPINE_PFS, StorageTier

__all__ = ["PipelineModel", "workflow_pipeline"]


@dataclass
class PipelineModel:
    """A linear pipeline of stages with fixed per-step durations."""

    stage_names: tuple[str, ...]
    stage_seconds: tuple[float, ...]

    def __post_init__(self):
        if len(self.stage_names) != len(self.stage_seconds):
            raise ValueError("one duration per stage required")
        if not self.stage_seconds:
            raise ValueError("need at least one stage")
        if any(d < 0 for d in self.stage_seconds):
            raise ValueError("durations must be non-negative")

    @property
    def bottleneck(self) -> str:
        return self.stage_names[int(np.argmax(self.stage_seconds))]

    def makespan(self, n_steps: int) -> float:
        """Total time to push ``n_steps`` items through the pipeline."""
        if n_steps < 1:
            raise ValueError("need at least one step")
        return sum(self.stage_seconds) + (n_steps - 1) * max(self.stage_seconds)

    def sequential_time(self, n_steps: int) -> float:
        """The no-overlap baseline (every stage serialized per step)."""
        if n_steps < 1:
            raise ValueError("need at least one step")
        return n_steps * sum(self.stage_seconds)

    def overlap_gain(self, n_steps: int) -> float:
        """Speedup of pipelining over fully sequential execution."""
        return self.sequential_time(n_steps) / self.makespan(n_steps)

    def steady_state_throughput(self, bytes_per_step: int) -> float:
        """Sustained bytes/second once the pipe is full."""
        return bytes_per_step / max(self.stage_seconds)


def workflow_pipeline(
    per_process_shape: tuple[int, ...] = (513, 513, 513),
    n_processes: int = 4096,
    k_classes: int | None = None,
    device: DeviceSpec = V100,
    storage: StorageTier = ALPINE_PFS,
    gpudirect: bool = True,
) -> PipelineModel:
    """Stage durations of the streaming write workflow, per time step.

    Stages: GPU refactor, device→host transfer (skipped with
    ``gpudirect=True``, paper §I), PFS write of the class prefix.
    """
    from ..core.classes import class_sizes
    from ..kernels.launches import EngineOptions

    hier = hierarchy_for(per_process_shape)
    sizes = [s * 8 for s in class_sizes(hier)]
    if k_classes is None:
        k_classes = len(sizes)
    if not 1 <= k_classes <= len(sizes):
        raise ValueError(f"k_classes must be in [1, {len(sizes)}]")
    opts = EngineOptions(n_streams=8 if len(per_process_shape) >= 3 else 1)
    t_refactor = model_pass(hier, device, opts, "decompose").total_seconds
    prefix_bytes = sum(sizes[:k_classes])
    t_write = storage.write_seconds(prefix_bytes * n_processes, n_processes)
    names = ["refactor(GPU)"]
    durations = [t_refactor]
    if not gpudirect:
        names.append("transfer(D2H)")
        durations.append(prefix_bytes / (device.pcie_bandwidth_gbps * 1e9))
    names.append("write(PFS)")
    durations.append(t_write)
    return PipelineModel(stage_names=tuple(names), stage_seconds=tuple(durations))
