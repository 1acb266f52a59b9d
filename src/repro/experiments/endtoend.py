"""Tables V and VI: end-to-end speedups and extra memory footprint.

Table V: one GPU versus one serial CPU core across grid sizes, for both
platforms, plus the GPU design's extra memory footprint relative to the
CPU baseline.  Table VI: all GPUs versus all CPU cores of one machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.node import DESKTOP, NodeSpec, SUMMIT_NODE, node_speedup
from ..core.grid import hierarchy_for
from ..gpu.analytic import model_pass_shape
from ..gpu.memory import refactoring_footprint
from .common import format_table

__all__ = [
    "Table5Row",
    "table5_end_to_end",
    "format_table5",
    "table6_node_level",
    "format_table6",
]


@dataclass
class Table5Row:
    """Speedups of one grid size on both platforms (Table V)."""

    shape: tuple[int, ...]
    desktop_decompose: float
    desktop_recompose: float
    summit_decompose: float
    summit_recompose: float
    extra_memory_fraction: float


def _speedup(shape, node: NodeSpec, operation: str) -> float:
    from ..kernels.launches import CPU_BASELINE_OPTIONS, EngineOptions

    opts = EngineOptions(n_streams=8 if len(shape) >= 3 else 1)
    t_gpu = model_pass_shape(shape, node.gpu, opts, operation).total_seconds
    t_cpu = model_pass_shape(shape, node.cpu, CPU_BASELINE_OPTIONS, operation).total_seconds
    return t_cpu / t_gpu


def table5_end_to_end(
    sides_2d: tuple[int, ...] = (33, 65, 129, 257, 513, 1025, 2049, 4097, 8193),
    sides_3d: tuple[int, ...] = (33, 65, 129, 257, 513),
) -> list[Table5Row]:
    """All rows of Table V (2D sweep then 3D sweep)."""
    rows = []
    shapes = [(n, n) for n in sides_2d] + [(n, n, n) for n in sides_3d]
    for shape in shapes:
        fp = refactoring_footprint(hierarchy_for(shape))
        rows.append(
            Table5Row(
                shape=shape,
                desktop_decompose=_speedup(shape, DESKTOP, "decompose"),
                desktop_recompose=_speedup(shape, DESKTOP, "recompose"),
                summit_decompose=_speedup(shape, SUMMIT_NODE, "decompose"),
                summit_recompose=_speedup(shape, SUMMIT_NODE, "recompose"),
                extra_memory_fraction=fp.extra_fraction,
            )
        )
    return rows


def format_table5(rows: list[Table5Row]) -> str:
    """Text rendering of Table V."""
    table_rows = [
        [
            "x".join(str(s) for s in r.shape),
            f"{r.desktop_decompose:.2f}x",
            f"{r.desktop_recompose:.2f}x",
            f"{r.summit_decompose:.2f}x",
            f"{r.summit_recompose:.2f}x",
            f"{100 * r.extra_memory_fraction:.3f}%",
        ]
        for r in rows
    ]
    return format_table(
        ["input", "desktop dec.", "desktop rec.", "summit dec.", "summit rec.", "extra mem"],
        table_rows,
        title="Table V: one GPU vs one CPU core (modeled) + extra memory footprint",
    )


def table6_node_level(
    desktop_2d: tuple[int, int] = (16386, 32772),
    desktop_3d: tuple[int, int, int] = (1026, 1026, 1026),
    summit_2d: tuple[int, int] = (49158, 57351),
    summit_3d: tuple[int, int, int] = (1539, 1026, 4099),
) -> list[dict]:
    """Table VI: all GPUs vs all CPU cores on each machine.

    Default shapes are the paper's (the Summit 3D extent is reduced from
    the paper's 57351 third dimension to keep the per-GPU partition
    within V100 memory in our stricter capacity model; the paper's
    partitioning splits further along that axis).
    """
    out = []
    for node, shape in (
        (DESKTOP, desktop_2d),
        (DESKTOP, desktop_3d),
        (SUMMIT_NODE, summit_2d),
        (SUMMIT_NODE, summit_3d),
    ):
        for operation in ("decompose", "recompose"):
            out.append(node_speedup(node, shape, operation))
    return out


def format_table6(rows: list[dict]) -> str:
    """Text rendering of Table VI."""
    table_rows = [
        [
            r["node"],
            "x".join(str(s) for s in r["shape"]),
            r["operation"],
            f"{r['speedup']:.2f}x",
        ]
        for r in rows
    ]
    return format_table(
        ["machine", "input", "op", "all-GPUs vs all-cores"],
        table_rows,
        title="Table VI: node-level speedup (modeled)",
    )
