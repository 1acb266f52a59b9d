"""Producer→storage→consumer visualization workflow (paper Showcase V-A).

The paper's first showcase writes a 4 TB simulation file with 4096
processes and reads it back with 512 processes for in-situ-style
visualization, both through refactoring: writers store only the first
``k`` coefficient classes, readers fetch a (possibly smaller) prefix
and recompose before extracting iso-surfaces.  Two views:

* :func:`model_workflow` — the Fig. 10 cost model at paper scale:
  refactor time (GPU-accelerated or CPU), bytes of the class prefix,
  and PFS write/read time, versus the no-refactoring baseline.
* :func:`run_workflow_demo` — a fully functional small-scale run:
  Gray–Scott data, container write, prefix reads, recomposition, and
  the iso-surface-area accuracy the paper quotes (~95 % with 3/10
  classes).

The streaming write itself is :class:`~repro.io.stream.StepStreamWriter`;
:func:`follow_stream` is its read side.  The overlap of refactor and
I/O across time steps is modeled, not executed:
:func:`repro.cluster.pipeline.workflow_pipeline`.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..analysis.isosurface import contour_length, feature_accuracy, isosurface_area
from ..core.classes import class_sizes
from ..core.grid import hierarchy_for
from ..core.refactor import Refactorer
from ..gpu.analytic import model_pass
from ..gpu.device import CpuSpec, DeviceSpec, POWER9_CORE, V100
from .container import RefactoredFileReader, write_refactored
from .storage import ALPINE_PFS, StorageTier
from .stream import StepStreamReader

__all__ = [
    "WorkflowPoint",
    "model_workflow",
    "run_workflow_demo",
    "DemoResult",
    "follow_stream",
]


def follow_stream(root: str | Path, *, stop: int | None = None, timeout: float | None = 30.0):
    """Tail a live stream from step 0, yielding ``(step, field)`` as steps commit.

    The consumer half of the streaming workflow: a producer appends
    through :class:`~repro.io.stream.StepStreamWriter` (or the
    service's ``put_step``) while any number of followers iterate this
    generator — in-situ visualization's read side as a three-line loop.  Waiting uses
    :meth:`StepStreamReader.wait_for_step`'s exponential backoff, not a
    busy ``refresh()`` loop, so an idle follower costs microseconds of
    CPU per second.

    Iteration ends at ``stop`` (exclusive; ``None`` follows forever)
    or when no new step appears within ``timeout`` seconds.
    """
    reader = StepStreamReader(root)
    step = 0
    while stop is None or step < stop:
        if not reader.wait_for_step(step, timeout=timeout):
            return
        yield step, reader.read_region(step)
        step += 1


@dataclass
class WorkflowPoint:
    """Modeled cost of one (k classes, GPU on/off) configuration."""

    k_classes: int
    bytes_stored: int
    refactor_seconds: float
    io_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.refactor_seconds + self.io_seconds


def model_workflow(
    per_process_shape: tuple[int, ...] = (513, 513, 513),
    n_processes: int = 4096,
    operation: str = "write",
    use_gpu: bool = True,
    device: DeviceSpec = V100,
    cpu: CpuSpec = POWER9_CORE,
    storage: StorageTier = ALPINE_PFS,
    ks: tuple[int, ...] | None = None,
) -> list[WorkflowPoint]:
    """Model Fig. 10: end-to-end write (or read) cost versus classes kept.

    ``operation="write"`` models decompose + write of the class prefix;
    ``"read"`` models read of the prefix + recompose.  The paper's
    configuration is the default: 4 TB split across 4096 writers
    (1 GB ≈ 513³ doubles each) and 512 readers.
    """
    from ..kernels.launches import CPU_BASELINE_OPTIONS, EngineOptions

    if operation not in ("write", "read"):
        raise ValueError("operation must be 'write' or 'read'")
    hier = hierarchy_for(per_process_shape)
    sizes = [s * 8 for s in class_sizes(hier)]
    n_classes = len(sizes)
    if ks is None:
        ks = tuple(range(1, n_classes + 1))
    pass_op = "decompose" if operation == "write" else "recompose"
    if use_gpu:
        opts = EngineOptions(n_streams=8 if len(per_process_shape) >= 3 else 1)
        t_refactor = model_pass(hier, device, opts, pass_op).total_seconds
    else:
        t_refactor = model_pass(hier, cpu, CPU_BASELINE_OPTIONS, pass_op).total_seconds
    out = []
    for k in ks:
        if not 1 <= k <= n_classes:
            raise ValueError(f"k must be in [1, {n_classes}]")
        prefix = sum(sizes[:k]) * n_processes
        io = (
            storage.write_seconds(prefix, n_processes)
            if operation == "write"
            else storage.read_seconds(prefix, n_processes)
        )
        out.append(
            WorkflowPoint(
                k_classes=k,
                bytes_stored=prefix,
                refactor_seconds=t_refactor,
                io_seconds=io,
            )
        )
    return out


@dataclass
class DemoResult:
    """Functional small-scale workflow outcome for one class prefix."""

    k_classes: int
    bytes_read: int
    feature_value: float
    accuracy: float
    reconstruction: np.ndarray = field(repr=False, default=None)


def run_workflow_demo(
    data: np.ndarray,
    iso: float,
    ks: tuple[int, ...] | None = None,
    workdir: str | Path | None = None,
    keep_reconstructions: bool = False,
) -> list[DemoResult]:
    """Run the producer→file→consumer loop for real on a small grid.

    Refactors ``data``, writes the container, then for each ``k`` reads
    only the first ``k`` classes, recomposes, extracts the iso-feature
    (surface area in 3D, contour length in 2D), and scores it against
    the full-data feature.
    """
    if data.ndim not in (2, 3):
        raise ValueError("demo supports 2D and 3D data")
    refactorer = Refactorer(data.shape)
    cc = refactorer.refactor(data)
    tmp_ctx = None
    if workdir is None:
        tmp_ctx = tempfile.TemporaryDirectory()
        workdir = tmp_ctx.name
    path = Path(workdir) / "refactored.rprc"
    try:
        write_refactored(path, cc, attrs={"iso": iso})
        reader = RefactoredFileReader(path)
        feature = isosurface_area if data.ndim == 3 else contour_length
        exact = feature(data, iso)
        if ks is None:
            ks = tuple(range(1, reader.n_classes + 1))
        nbytes = reader.class_nbytes()
        out = []
        for k in ks:
            classes = reader.read_classes(k)
            from ..core.classes import reconstruct_from_classes

            approx = reconstruct_from_classes(classes, refactorer.hier)
            value = feature(approx, iso)
            out.append(
                DemoResult(
                    k_classes=k,
                    bytes_read=sum(nbytes[:k]),
                    feature_value=value,
                    accuracy=feature_accuracy(value, exact),
                    reconstruction=approx if keep_reconstructions else None,
                )
            )
        return out
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()
