"""Table IV: end-to-end time breakdown per kernel category.

Reproduces the paper's per-category (CC/MM/TM/SC/MC/PN) decomposition
and recomposition times for one serial CPU core and one GPU, on the 2D
``8193²`` and 3D ``513³`` configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.analytic import model_pass_shape
from ..gpu.device import CpuSpec, DeviceSpec, POWER9_CORE, V100
from .common import format_seconds, format_table

__all__ = ["BreakdownRow", "table4_breakdown", "format_table4", "CATEGORIES"]

CATEGORIES = ("CC", "MM", "TM", "SC", "MC", "PN")


@dataclass
class BreakdownRow:
    """One (shape, operation, hardware) breakdown."""

    shape: tuple[int, ...]
    operation: str
    hardware: str
    seconds: dict[str, float]
    total: float


def table4_breakdown(
    shape_2d: tuple[int, int] = (8193, 8193),
    shape_3d: tuple[int, int, int] = (513, 513, 513),
    device: DeviceSpec = V100,
    cpu: CpuSpec = POWER9_CORE,
) -> list[BreakdownRow]:
    """All eight rows of Table IV (2D/3D × decomp/recomp × CPU/GPU)."""
    from ..kernels.launches import CPU_BASELINE_OPTIONS, EngineOptions

    rows = []
    for shape in (shape_2d, shape_3d):
        for operation in ("decompose", "recompose"):
            for hw, opts in (
                (cpu, CPU_BASELINE_OPTIONS),
                (device, EngineOptions()),  # single stream, like the paper's Table IV
            ):
                mp = model_pass_shape(shape, hw, opts, operation)
                rows.append(
                    BreakdownRow(
                        shape=shape,
                        operation=operation,
                        hardware=hw.name,
                        seconds={c: mp.category_seconds.get(c, 0.0) for c in CATEGORIES},
                        total=mp.total_seconds,
                    )
                )
    return rows


def format_table4(rows: list[BreakdownRow]) -> str:
    """Text rendering of Table IV."""
    table_rows = []
    for r in rows:
        cells = [
            "x".join(str(s) for s in r.shape),
            r.operation,
            "GPU" if "NVIDIA" in r.hardware else "CPU",
        ]
        for c in CATEGORIES:
            t = r.seconds[c]
            pct = 100.0 * t / r.total if r.total else 0.0
            cells.append(f"{format_seconds(t)} ({pct:.1f}%)" if t else "-")
        cells.append(format_seconds(r.total))
        table_rows.append(cells)
    return format_table(
        ["shape", "op", "hw", *CATEGORIES, "total"],
        table_rows,
        title="Table IV: time breakdown of data refactoring (modeled)",
    )
