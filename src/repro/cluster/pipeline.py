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

:func:`run_pipeline` *executes* such a chain for real: arbitrary stage
callables over a step sequence, scheduled through the same executor
layer as the encode path (:mod:`repro.parallel.executors`).  Each stage
is serialized by its own lock — the software analogue of one device per
stage — so with a parallel executor, step ``t`` can write while step
``t+1`` refactors, exactly the overlap the makespan formula models;
with the serial executor it degenerates to the no-overlap baseline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..parallel.executors import get_executor
from ..core.grid import hierarchy_for
from ..gpu.analytic import model_pass
from ..gpu.device import DeviceSpec, V100
from ..io.storage import ALPINE_PFS, StorageTier

__all__ = ["PipelineModel", "PipelineRun", "run_pipeline", "workflow_pipeline"]


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


@dataclass
class PipelineRun:
    """Measured outcome of one :func:`run_pipeline` execution."""

    results: list
    stage_names: tuple[str, ...]
    stage_busy_seconds: tuple[float, ...]
    wall_seconds: float

    @property
    def bottleneck(self) -> str:
        return self.stage_names[int(np.argmax(self.stage_busy_seconds))]

    def overlap_gain(self) -> float:
        """Measured speedup over running every stage back to back."""
        return sum(self.stage_busy_seconds) / max(self.wall_seconds, 1e-12)


def run_pipeline(
    stages,
    items,
    executor=None,
    stage_names: tuple[str, ...] | None = None,
) -> PipelineRun:
    """Push ``items`` through a chain of stage callables, overlapped.

    ``stages`` is a sequence of one-argument callables; item ``i``'s
    result flows ``stages[0] -> stages[1] -> …``.  ``executor`` (spec
    string, instance, or ``None`` for the ambient default) sets the
    concurrency *width only*: serial runs items inline back to back,
    anything wider runs them on a *dedicated* thread pool — never the
    shared encode pool (a stage that itself fans out through the
    ambient executor cannot deadlock the pipeline by queueing its
    subtasks behind gate-blocked items), and never a process pool
    (stages are stateful closures — a stream writer, a prediction loop
    — that must mutate in this address space; a stage may still *use*
    a :class:`~repro.parallel.ProcessExecutor` internally for its own
    codec fan-out).  A per-stage gate admits items
    strictly in order, so distinct steps overlap across stages (the
    paper's streaming-write pattern) while every stage sees the steps
    one at a time, in sequence, making stateful stages (a stream
    writer, a closed prediction loop) safe.  Results keep item order
    regardless of executor.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("need at least one stage")
    if stage_names is None:
        stage_names = tuple(
            getattr(fn, "__name__", f"stage{i}") for i, fn in enumerate(stages)
        )
    if len(stage_names) != len(stages):
        raise ValueError("one name per stage required")
    ex = get_executor(executor)
    workers = min(getattr(ex, "max_workers", 1), len(stages) + 1)

    failed = threading.Event()
    root_cause: list[BaseException] = []
    root_lock = threading.Lock()

    class _PipelineAborted(RuntimeError):
        """Raised for items cancelled because another item failed."""

    class _Gate:
        """Admits item indices to one stage strictly in order."""

        def __init__(self):
            self.cond = threading.Condition()
            self.next = 0

        def enter(self, i: int) -> None:
            with self.cond:
                while self.next != i:
                    if failed.is_set():
                        raise _PipelineAborted("pipeline aborted after a stage failure")
                    self.cond.wait(timeout=0.1)
                # re-check after winning the turn: another item may
                # have failed in this very stage while we waited, and a
                # stateful stage must not see any later item after that
                # (it would record them at wrong positions)
                if failed.is_set():
                    raise _PipelineAborted("pipeline aborted after a stage failure")

        def leave(self, i: int) -> None:
            with self.cond:
                self.next = i + 1
                self.cond.notify_all()

    gates = [_Gate() for _ in stages]
    busy = [0.0] * len(stages)
    busy_lock = threading.Lock()

    def work(i, item):
        x = item
        try:
            for s, (fn, gate) in enumerate(zip(stages, gates)):
                gate.enter(i)
                try:
                    t0 = time.perf_counter()
                    x = fn(x)
                except BaseException:
                    # flag the failure *before* the gate opens so the
                    # next item's enter() sees it and never runs this
                    # stage out of order
                    failed.set()
                    raise
                finally:
                    gate.leave(i)
                with busy_lock:
                    busy[s] += time.perf_counter() - t0
        except BaseException as e:
            # remember the real failure (cancelled items raise the
            # generic abort and must not mask it), then wake every
            # waiter so a stage failure cannot strand the thread pool
            # on gates that will never open
            if not isinstance(e, _PipelineAborted):
                with root_lock:
                    if not root_cause:
                        root_cause.append(e)
            failed.set()
            for g in gates:
                with g.cond:
                    g.cond.notify_all()
            raise
        return x

    items = list(items)
    t0 = time.perf_counter()
    if workers <= 1:
        results = [work(i, item) for i, item in enumerate(items)]
    else:
        import concurrent.futures

        try:
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-pipeline"
            ) as pool:
                results = list(pool.map(work, range(len(items)), items))
        except BaseException as e:
            # pool.map surfaces exceptions in item order, which may be a
            # cancelled item's generic abort; raise the real failure
            if root_cause and root_cause[0] is not e:
                raise root_cause[0] from None
            raise
    wall = time.perf_counter() - t0
    return PipelineRun(
        results=results,
        stage_names=tuple(stage_names),
        stage_busy_seconds=tuple(busy),
        wall_seconds=wall,
    )


def workflow_pipeline(
    per_process_shape: tuple[int, ...] = (513, 513, 513),
    n_processes: int = 4096,
    k_classes: int | None = None,
    device: DeviceSpec = V100,
    storage: StorageTier = ALPINE_PFS,
    gpudirect: bool = True,
    tiered=None,
    fast_budget_bytes: int | None = None,
) -> PipelineModel:
    """Stage durations of the streaming write workflow, per time step.

    Stages: GPU refactor, device→host transfer (skipped with
    ``gpudirect=True``, paper §I), PFS write of the class prefix.

    ``tiered`` (a :class:`~repro.io.storage.TieredStorage`) replaces
    the single-tier write with a placement-aware one: the class prefix
    is routed by ``place_classes`` over ``fast_budget_bytes`` of the
    fastest tier (default: a quarter of the prefix per process) and the
    write stage takes the modeled placement time — tiers overlap, so a
    hot prefix on NVMe hides the PFS spill.
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
    if tiered is not None:
        agg = [s * n_processes for s in sizes[:k_classes]]
        if fast_budget_bytes is None:
            fast_budget_bytes = (prefix_bytes * n_processes) // 4
        placement = tiered.place_classes(agg, int(fast_budget_bytes))
        t_write = tiered.write_seconds(agg, placement, n_processes)
        write_name = "write(tiered)"
    else:
        t_write = storage.write_seconds(prefix_bytes * n_processes, n_processes)
        write_name = "write(PFS)"
    names = ["refactor(GPU)"]
    durations = [t_refactor]
    if not gpudirect:
        names.append("transfer(D2H)")
        durations.append(prefix_bytes / (device.pcie_bandwidth_gbps * 1e9))
    names.append(write_name)
    durations.append(t_write)
    return PipelineModel(stage_names=tuple(names), stage_seconds=tuple(durations))
