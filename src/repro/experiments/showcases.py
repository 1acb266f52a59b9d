"""Figures 10 and 11: the two showcases.

Fig. 10 — scientific-visualization workflow: write/read cost of a 4 TB
dataset versus the number of coefficient classes kept, with GPU or CPU
refactoring, plus the functional small-scale accuracy demo (iso-surface
area versus classes).

Fig. 11 — MGARD lossy compression: per-stage time breakdown with the
refactoring (and quantization) on the CPU versus offloaded to the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compress.mgard import MgardCompressor
from ..core.errors import linf
from ..core.grid import hierarchy_for
from ..gpu.device import CpuSpec, DeviceSpec, POWER9_CORE, V100
from ..io.workflow import WorkflowPoint, model_workflow, run_workflow_demo
from ..workloads.grayscott import simulate
from .common import format_seconds, format_table

__all__ = [
    "fig10_workflow",
    "format_fig10",
    "fig10_accuracy_demo",
    "Fig11Row",
    "fig11_mgard",
    "format_fig11",
]


def fig10_workflow(
    ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    n_writers: int = 4096,
    n_readers: int = 512,
) -> dict[str, list[WorkflowPoint]]:
    """Fig. 10 cost model: 4 TB write (4096 procs) and read (512 procs)."""
    out = {}
    for use_gpu, tag in ((True, "gpu"), (False, "cpu")):
        out[f"write/{tag}"] = model_workflow(
            n_processes=n_writers, operation="write", use_gpu=use_gpu, ks=ks
        )
        out[f"read/{tag}"] = model_workflow(
            n_processes=n_readers, operation="read", use_gpu=use_gpu, ks=ks
        )
    return out


def format_fig10(curves: dict[str, list[WorkflowPoint]]) -> str:
    """Text rendering of the Fig. 10 cost curves."""
    headers = ["config"] + [f"k={p.k_classes}" for p in next(iter(curves.values()))]
    rows = []
    for key, pts in curves.items():
        rows.append([key] + [format_seconds(p.total_seconds) for p in pts])
    lines = [
        format_table(
            headers,
            rows,
            title="Fig 10: end-to-end I/O cost (refactor + PFS) vs classes kept, 4 TB (modeled)",
        )
    ]
    sizes = curves[next(iter(curves))]
    lines.append(
        "stored bytes per k: "
        + ", ".join(f"k={p.k_classes}:{p.bytes_stored / 1e12:.3f}TB" for p in sizes)
    )
    return "\n".join(lines)


def fig10_accuracy_demo(
    shape: tuple[int, ...] = (65, 65, 65),
    steps: int = 800,
    iso: float | None = None,
) -> list:
    """Functional accuracy-vs-classes demo (the paper's ~95 % with 3/10).

    Runs Gray–Scott, refactors, and measures iso-surface-area accuracy
    for every class prefix.  Returns :class:`repro.io.workflow.DemoResult`.
    """
    field = simulate(shape, steps=steps, params="stripes")
    if iso is None:
        iso = float(0.25 * field.max() + 0.75 * field.min())
    return run_workflow_demo(field, iso)


# ----------------------------------------------------------------------
# Fig 11: MGARD compression breakdown
# ----------------------------------------------------------------------

@dataclass
class Fig11Row:
    """Per-stage times of one compressor configuration."""

    config: str
    operation: str
    refactor_s: float
    quantize_s: float
    entropy_s: float
    transfer_s: float
    compression_ratio: float

    @property
    def total(self) -> float:
        return self.refactor_s + self.quantize_s + self.entropy_s + self.transfer_s


def fig11_mgard(
    shape: tuple[int, ...] = (129, 129, 129),
    tol_rel: float = 1e-3,
    device: DeviceSpec = V100,
    cpu: CpuSpec = POWER9_CORE,
    steps: int = 400,
) -> list[Fig11Row]:
    """Fig. 11: MGARD stage breakdown, CPU refactoring vs GPU offload.

    Functional end to end on Gray–Scott data (the error bound is
    checked); the refactor/quantize/transfer columns are the modeled
    hardware times the figure is about — refactoring from
    :func:`~repro.gpu.analytic.model_pass`, quantization and the PCIe
    hop from the streaming formulas below — and the entropy stage (zlib,
    always on the CPU in the paper) is measured for real, once, since it
    is the same host work in both configurations.
    """
    from ..gpu.analytic import model_pass
    from ..kernels.launches import CPU_BASELINE_OPTIONS, EngineOptions

    data = simulate(shape, steps=steps, params="spots")
    rng = float(data.max() - data.min()) or 1.0
    tol = tol_rel * rng
    hier = hierarchy_for(shape)
    comp = MgardCompressor(hier, tol)
    blob = comp.compress(data)
    entropy_s = {"compress": blob.times.entropy_wall}
    back = comp.decompress(blob)
    entropy_s["decompress"] = blob.times.entropy_wall
    err = linf(back, data)
    if err > tol:
        raise AssertionError(f"error bound violated: {err} > {tol}")
    nbytes = {"compress": data.nbytes, "decompress": back.nbytes}
    ratio = blob.compression_ratio()

    gpu_opts = EngineOptions(n_streams=8 if len(shape) >= 3 else 1)
    rows = []
    for tag, hardware, opts in (
        ("CPU", cpu, CPU_BASELINE_OPTIONS),
        ("GPU-offload", device, gpu_opts),
    ):
        for operation, pass_op in (("compress", "decompose"), ("decompress", "recompose")):
            n = nbytes[operation]
            if hardware is cpu:
                # host-side scalar quantization loop; nothing crosses PCIe
                quantize_s = (n / 8) * cpu.element_ns * 0.5e-9
                transfer_s = 0.0
            else:
                # quantization offloaded with the refactoring: one streaming
                # pass (read doubles, write ints) at sustained bandwidth, then
                # the (narrowed) bins go to the host for entropy coding
                quantize_s = 1.5 * n / device.effective_bandwidth
                transfer_s = 0.5 * n / (device.pcie_bandwidth_gbps * 1e9)
            rows.append(
                Fig11Row(
                    config=tag,
                    operation=operation,
                    refactor_s=model_pass(hier, hardware, opts, pass_op).total_seconds,
                    quantize_s=quantize_s,
                    entropy_s=entropy_s[operation],
                    transfer_s=transfer_s,
                    compression_ratio=ratio,
                )
            )
    return rows


def format_fig11(rows: list[Fig11Row]) -> str:
    """Text rendering of the Fig. 11 breakdown."""
    table_rows = [
        [
            r.config,
            r.operation,
            format_seconds(r.refactor_s),
            format_seconds(r.quantize_s),
            format_seconds(r.entropy_s),
            format_seconds(r.transfer_s),
            format_seconds(r.total),
            f"{r.compression_ratio:.1f}x",
        ]
        for r in rows
    ]
    return format_table(
        ["config", "op", "refactor", "quantize", "entropy", "transfer", "total", "ratio"],
        table_rows,
        title="Fig 11: MGARD lossy compression stage breakdown (refactor/quantize modeled)",
    )
