"""Experiment generators: one module per paper table/figure.

Every generator returns structured data plus a ``format_*`` text block
with the same rows/series the paper reports.  The benchmark harness
(``benchmarks/``), the CLI (``repro-bench``), and EXPERIMENTS.md all
draw from these functions, so the numbers in all three always agree.
"""

from .ablations import ablation_sweep, format_ablations
from .chaos import chaos_experiment, format_chaos
from .breakdown import format_table4, table4_breakdown
from .common import SCALES, Scale, bench_scale, format_seconds, format_table
from .endtoend import (
    format_table5,
    format_table6,
    table5_end_to_end,
    table6_node_level,
)
from .paper_values import PAPER_CLAIMS, format_validation, validation_report
from .offload_exp import format_offload, offload_experiment
from .kernels import (
    fig7_mass_throughput,
    format_fig7,
    format_kernel_table,
    kernel_speedup_table,
    kernel_speedups,
)
from .scaling_exp import fig8_streams, fig9_weak_scaling, format_fig8, format_fig9
from .service_exp import format_service, service_experiment
from .showcases import (
    fig10_accuracy_demo,
    fig10_workflow,
    fig11_mgard,
    format_fig10,
    format_fig11,
)

__all__ = [
    "PAPER_CLAIMS",
    "SCALES",
    "Scale",
    "ablation_sweep",
    "bench_scale",
    "chaos_experiment",
    "fig10_accuracy_demo",
    "fig10_workflow",
    "fig11_mgard",
    "fig7_mass_throughput",
    "fig8_streams",
    "fig9_weak_scaling",
    "format_ablations",
    "format_chaos",
    "format_fig10",
    "format_fig11",
    "format_fig7",
    "format_fig8",
    "format_fig9",
    "format_kernel_table",
    "format_offload",
    "format_service",
    "format_validation",
    "format_seconds",
    "format_table",
    "format_table4",
    "format_table5",
    "format_table6",
    "kernel_speedup_table",
    "kernel_speedups",
    "offload_experiment",
    "service_experiment",
    "table4_breakdown",
    "table5_end_to_end",
    "table6_node_level",
    "validation_report",
]
