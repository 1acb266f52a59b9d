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
* :func:`run_streaming_pipeline` — the *measured* counterpart of the
  Fig. 10 overlap story: the refactor→encode→write chain executed for
  real over a live :class:`~repro.io.stream.StepStreamWriter` through
  :func:`repro.cluster.pipeline.run_pipeline`, with the measured stage
  overlap compared against :meth:`PipelineModel.makespan
  <repro.cluster.pipeline.PipelineModel.makespan>`.
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
from .stream import StepStreamReader, StepStreamWriter

__all__ = [
    "WorkflowPoint",
    "model_workflow",
    "run_workflow_demo",
    "DemoResult",
    "MeasuredPipeline",
    "run_streaming_pipeline",
    "follow_stream",
]


def follow_stream(root: str | Path, *, stop: int | None = None, timeout: float | None = 30.0):
    """Tail a live stream from step 0, yielding ``(step, field)`` as steps commit.

    The consumer half of the streaming workflow: a producer appends
    through :class:`~repro.io.stream.StepStreamWriter` (or
    :func:`run_streaming_pipeline`, or the service's ``put_step``)
    while any number of followers iterate this generator — in-situ
    visualization's read side as a three-line loop.  Waiting uses
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


# ----------------------------------------------------------------------
# measured streaming pipeline (Fig. 10 overlap, executed for real)


@dataclass
class MeasuredPipeline:
    """Measured vs modeled outcome of one streaming-write pipeline.

    ``stage_seconds`` are the per-step stage durations calibrated from
    a serial (no-overlap) run; they feed the analytic
    :class:`~repro.cluster.pipeline.PipelineModel` whose makespan is
    compared against the wall time of the actually-overlapped run.
    ``mode`` records which stream mode ran (``refactored`` or
    ``compressed``) and ``backend`` the compressed mode's entropy
    backend (``None`` for refactored streams, which do not encode);
    ``shards`` is the per-step shard count of a sharded run (``None``
    for monolithic steps).
    """

    n_steps: int
    stage_names: tuple[str, ...]
    stage_seconds: tuple[float, ...]
    serial_wall: float
    pipelined_wall: float
    pipelined_busy: tuple[float, ...]
    bytes_written: int
    executor: str
    mode: str
    backend: str | None
    shards: int | None
    model: "PipelineModel" = field(repr=False)  # noqa: F821 - lazy import

    @property
    def measured_overlap_gain(self) -> float:
        """Speedup of the overlapped run over the serial run."""
        return self.serial_wall / max(self.pipelined_wall, 1e-12)

    @property
    def modeled_makespan(self) -> float:
        return self.model.makespan(self.n_steps)

    @property
    def modeled_sequential(self) -> float:
        return self.model.sequential_time(self.n_steps)

    @property
    def modeled_overlap_gain(self) -> float:
        return self.model.overlap_gain(self.n_steps)

    @property
    def bottleneck(self) -> str:
        return self.model.bottleneck

    def record(self) -> dict:
        """JSON-ready record of this run (the ``BENCH_pipeline`` row).

        Carries everything needed to interpret the numbers later:
        stream mode, entropy backend, both executors' context
        (pipeline stage pool spec and the host's usable core count),
        the calibrated per-stage seconds, and measured-vs-modeled
        walls/gains.
        """
        from ..parallel.executors import available_workers

        return {
            "mode": self.mode,
            "backend": self.backend,
            "shards": self.shards,
            "executor": self.executor,
            "cpu_count": available_workers(),
            "n_steps": self.n_steps,
            "stage_names": list(self.stage_names),
            "stage_seconds": [float(s) for s in self.stage_seconds],
            "serial_wall_s": float(self.serial_wall),
            "pipelined_wall_s": float(self.pipelined_wall),
            "pipelined_busy_s": [float(s) for s in self.pipelined_busy],
            "bytes_written": int(self.bytes_written),
            "measured_overlap_gain": float(self.measured_overlap_gain),
            "modeled_makespan_s": float(self.modeled_makespan),
            "modeled_sequential_s": float(self.modeled_sequential),
            "modeled_overlap_gain": float(self.modeled_overlap_gain),
            "bottleneck": self.bottleneck,
        }


def _stages(writer: StepStreamWriter):
    """``(stage names, [first, second, write])`` of a live writer's chain.

    All chains are three one-argument callables — the spine below neither
    knows nor cares which mode it is running.  ``refactored``: refactor →
    encode (container serialization) → write.  ``compressed``: predict
    owns the closed prediction loop (temporal residual, refactor,
    quantize), encode is the entropy stage plus serialization; both are
    stateful across steps, which the pipeline's per-stage in-order gates
    make safe.  A sharded writer (either payload mode): shard owns only
    the in-order step-index claim, encode runs the per-shard fan-out
    through the writer's executor and is stateless across steps — sharded
    steps are independent partitions — so it overlaps freely.
    """
    if writer._shard_plan is not None:
        name, first, second = "shard", writer.shard_step, writer.encode_sharded
    elif writer.stream_mode == "compressed":
        name, first, second = "predict", writer.predict_step, writer.encode_predicted
    else:
        name, first, second = "refactor", writer.refactorer.refactor, writer.encode_refactored

    def write(prep):
        writer.commit_step(prep)
        return prep.nbytes

    return (name, "encode", "write"), [first, second, write]


def run_streaming_pipeline(
    frames,
    workdir: str | Path | None = None,
    executor: str = "thread:4",
    keep_stream: bool = False,
    mode: str = "refactored",
    tol: float | None = None,
    backend: str = "huffman",
    key_interval: int = 16,
    codec_executor=None,
    shards: int | None = None,
) -> MeasuredPipeline:
    """Execute the Fig. 10 streaming write as a real overlapped pipeline.

    One mode-agnostic spine over
    :func:`repro.cluster.pipeline.run_pipeline`: each frame flows
    through a three-stage chain over a live
    :class:`~repro.io.stream.StepStreamWriter`, so while step ``t``
    writes, step ``t+1`` encodes and step ``t+2`` refactors — exactly
    the overlap the paper's workflow showcase models.  The chain runs
    twice: once serially (the no-overlap baseline, which also
    calibrates per-stage durations for the analytic model) and once
    under ``executor``; the result pairs the measured walls with
    :meth:`PipelineModel.makespan` of the calibrated model.

    ``mode`` selects the chain — two configurations of the same spine:

    ``refactored`` (default)
        refactor → encode (container serialization + truncation hints)
        → write (file + atomic manifest publish).

    ``compressed``
        predict (closed-loop temporal prediction + refactor + quantize,
        the in-order half) → encode (entropy coding + container
        serialization, overlappable since PR 4's prediction split) →
        write.  ``tol`` is the per-step L∞ bound (default: ``1e-3`` of
        frame 0's value range); ``backend``/``key_interval`` configure
        the :class:`~repro.compress.timeseries.TimeSeriesCompressor`,
        and ``codec_executor`` schedules the entropy stage's *internal*
        fan-out (per-class segments, Huffman blocks) independently of
        the pipeline's stage concurrency.

    ``shards > 1`` swaps in the sharded chain for either mode: shard
    (the in-order step-index claim) → encode (the per-shard
    refactor/compress fan-out, scheduled through ``codec_executor``) →
    write.  Sharded compressed steps are spatially compressed per step
    (independent partitions, no temporal chain), so ``key_interval`` is
    not used.

    With an explicit ``workdir``, ``keep_stream=True`` leaves the
    pipelined run's stream directory (``workdir/pipelined``, readable
    with :class:`~repro.io.stream.StepStreamReader`) in place; the
    serial calibration stream is always scratch.
    """
    # imported here: cluster.pipeline pulls io.storage, so a module-level
    # import would re-enter this package mid-initialization
    from ..cluster.pipeline import PipelineModel, run_pipeline

    if mode not in ("refactored", "compressed"):
        raise ValueError(
            f"unknown pipeline mode {mode!r}; choose from ['compressed', 'refactored']"
        )
    frames = list(frames)
    if not frames:
        raise ValueError("need at least one frame")
    shape = frames[0].shape
    sharded = shards is not None and int(shards) > 1
    writer_kwargs: dict = {}
    if mode == "compressed":
        if tol is None:
            span = float(np.max(frames[0]) - np.min(frames[0])) or 1.0
            tol = 1e-3 * span
        writer_kwargs.update(tol=float(tol), backend=backend)
        if not sharded:
            writer_kwargs["key_interval"] = int(key_interval)
    if sharded:
        writer_kwargs["shards"] = int(shards)
    if sharded or mode == "compressed":
        writer_kwargs["executor"] = codec_executor
        # fork the codec's process pool (if any) while this process is
        # still single-threaded — under the pipeline's thread pool a
        # lazy first fork would degrade to forkserver/spawn inside the
        # timed run.  codec_executor=None resolves the ambient spec
        # (REPRO_EXECUTOR), which is exactly the executor the writer
        # will use, so it needs priming just the same.
        from ..parallel.executors import get_executor

        get_executor(codec_executor).prime()
    tmp_ctx = None
    if workdir is None:
        tmp_ctx = tempfile.TemporaryDirectory()
        workdir = tmp_ctx.name
    workdir = Path(workdir)

    def new_writer(name: str) -> StepStreamWriter:
        return StepStreamWriter(workdir / name, shape, **writer_kwargs)

    try:
        # untimed warm-up: one full step through a throwaway stream, so
        # process-wide one-time costs (the cached hierarchy's Thomas
        # factors, NumPy init) land in neither timed run — the serial
        # run is a *calibration*, not a cache-warming lap for the
        # pipelined one
        warmup = new_writer("warmup")
        warmup.commit_step(warmup.encode_step(frames[0]))
        stage_names, stages = _stages(new_writer("serial"))
        serial_run = run_pipeline(
            stages, frames, executor="serial", stage_names=stage_names
        )
        pipelined_run = run_pipeline(
            _stages(new_writer("pipelined"))[1],
            frames,
            executor=executor,
            stage_names=stage_names,
        )
    finally:
        import shutil

        if tmp_ctx is not None:
            tmp_ctx.cleanup()
        else:
            shutil.rmtree(workdir / "warmup", ignore_errors=True)
            shutil.rmtree(workdir / "serial", ignore_errors=True)
            if not keep_stream:
                shutil.rmtree(workdir / "pipelined", ignore_errors=True)
    model = PipelineModel(
        stage_names=stage_names,
        stage_seconds=tuple(
            b / len(frames) for b in serial_run.stage_busy_seconds
        ),
    )
    return MeasuredPipeline(
        n_steps=len(frames),
        stage_names=stage_names,
        stage_seconds=model.stage_seconds,
        serial_wall=serial_run.wall_seconds,
        pipelined_wall=pipelined_run.wall_seconds,
        pipelined_busy=pipelined_run.stage_busy_seconds,
        bytes_written=int(sum(pipelined_run.results)),
        executor=str(executor),
        mode=mode,
        backend=backend if mode == "compressed" else None,
        shards=int(shards) if sharded else None,
        model=model,
    )
