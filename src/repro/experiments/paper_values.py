"""Hard-coded paper numbers + machine-checkable residual report.

EXPERIMENTS.md is prose; this module is the executable version: every
quantitative claim the paper makes that our model reproduces is encoded
here with an accepted residual band, and :func:`validation_report`
re-runs the model and checks each one.  A test pins the whole table, so
any future change to the cost model that silently degrades fidelity
fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.scaling import shape_for_bytes_2d, weak_scaling
from ..gpu.analytic import model_pass_shape
from ..gpu.device import I7_9700K_CORE, POWER9_CORE, RTX2080TI, V100
from ..gpu.memory import refactoring_footprint
from ..core.grid import hierarchy_for
from ..gpu.streams import stream_sweep
from .common import format_table

__all__ = ["Claim", "PAPER_CLAIMS", "validation_report", "format_validation"]


@dataclass
class Claim:
    """One quantitative paper claim with an accepted residual band."""

    id: str
    description: str
    paper_value: float
    band: tuple[float, float]  # accepted measured/paper ratio range
    measured: float | None = None

    @property
    def ratio(self) -> float:
        return self.measured / self.paper_value

    @property
    def ok(self) -> bool:
        return self.band[0] <= self.ratio <= self.band[1]


def _gpu(shape, op="decompose", streams=1):
    from ..kernels.launches import EngineOptions

    return model_pass_shape(shape, V100, EngineOptions(n_streams=streams), op).total_seconds


def _cpu(shape, op="decompose", core=POWER9_CORE):
    from ..kernels.launches import CPU_BASELINE_OPTIONS

    return model_pass_shape(shape, core, CPU_BASELINE_OPTIONS, op).total_seconds


def _table5(shape, node="summit", op="decompose"):
    streams = 8 if len(shape) >= 3 else 1
    if node == "summit":
        return _cpu(shape, op) / _gpu(shape, op, streams)
    from ..kernels.launches import CPU_BASELINE_OPTIONS, EngineOptions

    t_c = model_pass_shape(shape, I7_9700K_CORE, CPU_BASELINE_OPTIONS, op).total_seconds
    t_g = model_pass_shape(
        shape, RTX2080TI, EngineOptions(n_streams=streams), op
    ).total_seconds
    return t_c / t_g


def _extra_mem_pct(shape):
    return 100.0 * refactoring_footprint(hierarchy_for(shape)).extra_fraction


def _fig9(dims, op):
    shape = shape_for_bytes_2d(10**9) if dims == 2 else (513, 513, 513)
    return weak_scaling(shape, gpu_counts=(4096,), operation=op)[0].aggregate_tbps


def _fig8_at8():
    pts = {p.n_streams: p.speedup for p in stream_sweep((513, 513, 513), V100)}
    return pts[8]


#: (claim id, description, paper value, band, evaluator)
_CLAIM_SPECS = [
    # Table IV anchors (the calibration targets: tight bands)
    ("t4-cpu-2d", "CPU 2D 8193^2 decompose total (s)", 15.07, (0.85, 1.15),
     lambda: _cpu((8193, 8193))),
    ("t4-gpu-2d", "GPU 2D 8193^2 decompose total (s)", 4.83e-2, (0.85, 1.15),
     lambda: _gpu((8193, 8193))),
    ("t4-cpu-3d", "CPU 3D 513^3 decompose total (s)", 25.7, (0.85, 1.15),
     lambda: _cpu((513, 513, 513))),
    ("t4-gpu-3d", "GPU 3D 513^3 decompose total (s)", 0.632, (0.85, 1.15),
     lambda: _gpu((513, 513, 513))),
    # Table V end-to-end speedups (shape fidelity: wider bands)
    ("t5-8193-summit", "8193^2 Summit decompose speedup (x)", 311.18, (0.7, 1.4),
     lambda: _table5((8193, 8193))),
    ("t5-8193-desktop", "8193^2 desktop decompose speedup (x)", 102.31, (0.7, 1.4),
     lambda: _table5((8193, 8193), node="desktop")),
    ("t5-33-summit", "33^2 Summit decompose speedup (x, sub-1 crossover)", 0.30,
     (0.5, 2.5), lambda: _table5((33, 33))),
    ("t5-513cu-summit", "513^3 Summit decompose speedup (x)", 103.41, (0.6, 2.0),
     lambda: _table5((513, 513, 513))),
    # extra memory footprint: closed formula, exact
    ("mem-33", "extra memory at 33^2 (%)", 6.06, (0.99, 1.01),
     lambda: _extra_mem_pct((33, 33))),
    ("mem-513", "extra memory at 513^2 (%)", 0.39, (0.99, 1.01),
     lambda: _extra_mem_pct((513, 513))),
    ("mem-33c", "extra memory at 33^3 (%)", 0.28, (0.97, 1.03),
     lambda: _extra_mem_pct((33, 33, 33))),
    # Fig 8 / Fig 9
    ("f8-8streams", "513^3 decompose speedup at 8 streams (x)", 2.6, (0.8, 1.6),
     lambda: _fig8_at8()),
    ("f9-2d-dec", "4096-GPU 2D decompose throughput (TB/s)", 45.42, (0.7, 1.4),
     lambda: _fig9(2, "decompose")),
    ("f9-3d-dec", "4096-GPU 3D decompose throughput (TB/s)", 17.78, (0.7, 1.6),
     lambda: _fig9(3, "decompose")),
]

PAPER_CLAIMS = [
    Claim(id=i, description=d, paper_value=v, band=b) for i, d, v, b, _ in _CLAIM_SPECS
]


def validation_report() -> list[Claim]:
    """Re-run the model against every encoded paper claim."""
    out = []
    for (i, d, v, b, fn) in _CLAIM_SPECS:
        out.append(Claim(id=i, description=d, paper_value=v, band=b, measured=fn()))
    return out


def format_validation(claims: list[Claim]) -> str:
    """Text rendering of the validation report."""
    rows = [
        [
            c.id,
            c.description,
            f"{c.paper_value:g}",
            f"{c.measured:.4g}",
            f"{c.ratio:.2f}",
            f"[{c.band[0]:g}, {c.band[1]:g}]",
            "ok" if c.ok else "OUT OF BAND",
        ]
        for c in claims
    ]
    return format_table(
        ["id", "claim", "paper", "measured", "ratio", "band", "status"],
        rows,
        title="Validation against the paper's reported numbers",
    )
