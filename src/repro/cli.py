"""Command-line entry point: regenerate any paper table or figure.

Usage::

    repro-bench list                 # available experiments
    repro-bench fig7                 # one experiment
    repro-bench all                  # everything (writes to stdout)

Experiments are modeled (shape-only) unless noted, so even the
paper-scale configurations run in seconds.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments as E

__all__ = ["main"]


def _fig7() -> str:
    return E.format_fig7(E.fig7_mass_throughput(E.bench_scale().fig7_side))


def _table2() -> str:
    s = E.bench_scale()
    return E.format_kernel_table(
        E.kernel_speedup_table("desktop", s.side_2d, s.side_3d), "desktop (Table II)"
    )


def _table3() -> str:
    s = E.bench_scale()
    return E.format_kernel_table(
        E.kernel_speedup_table("summit", s.side_2d, s.side_3d), "Summit (Table III)"
    )


def _table4() -> str:
    return E.format_table4(E.table4_breakdown())


def _table5() -> str:
    s = E.bench_scale()
    return E.format_table5(E.table5_end_to_end(s.sweep_2d, s.sweep_3d))


def _table6() -> str:
    return E.format_table6(E.table6_node_level())


def _fig8() -> str:
    return E.format_fig8(E.fig8_streams())


def _fig9() -> str:
    return E.format_fig9(E.fig9_weak_scaling())


def _fig10() -> str:
    from repro.cluster.pipeline import workflow_pipeline

    parts = [E.format_fig10(E.fig10_workflow())]
    pipe, steps = workflow_pipeline(), 100
    stages = ", ".join(
        f"{name}={E.format_seconds(sec)}"
        for name, sec in zip(pipe.stage_names, pipe.stage_seconds)
    )
    parts.append(
        f"streaming write, {steps} steps (modeled): {stages}; overlap gain "
        f"{pipe.overlap_gain(steps):.2f}x (bottleneck: {pipe.bottleneck})"
    )
    demo = E.fig10_accuracy_demo(shape=(33, 33, 33), steps=400)
    parts.append("functional accuracy demo (33^3 Gray-Scott, iso-surface area):")
    for r in demo:
        parts.append(
            f"  k={r.k_classes:2d}: bytes={r.bytes_read:8d} accuracy={r.accuracy:.3f}"
        )
    return "\n".join(parts)


def _fig11() -> str:
    return E.format_fig11(E.fig11_mgard(shape=(65, 65, 65)))


def _offload() -> str:
    return E.format_offload(E.offload_experiment())


def _lifecycle() -> str:
    from repro.core.classes import num_classes
    from repro.core.grid import hierarchy_for
    from repro.io.lifecycle import simulate_lifecycle, typical_request_trace

    shape = (513, 513, 513)
    nc = num_classes(hierarchy_for(shape))
    trace = typical_request_trace(16, 400, nc)
    lines = ["Post-purge retrieval (intro scenario): 400 analyses over 16 archived 1 GB datasets"]
    for keep in (0.005, 0.02, 0.1):
        out = simulate_lifecycle(shape, trace, keep_fraction=keep)
        base, aware = out["baseline"], out["refactoring-aware"]
        lines.append(
            f"  hot budget {keep:5.1%}: baseline {base.total_seconds:8.1f}s "
            f"vs refactoring-aware {aware.total_seconds:7.1f}s "
            f"({base.total_seconds / aware.total_seconds:5.1f}x faster, "
            f"{aware.pfs_only_fraction:.1%} served without archive)"
        )
    return "\n".join(lines)


def _chaos() -> str:
    """Fault-injection chaos matrix: crash recovery, corrupt reads, kills."""
    return E.format_chaos(E.chaos_experiment())


def _service() -> str:
    """Network-service load: batched vs naive tail latency + kill/reconnect."""
    return E.format_service(E.service_experiment())


def _validate() -> str:
    return E.format_validation(E.validation_report())


def _ablations() -> str:
    return "\n\n".join(
        E.format_ablations(E.ablation_sweep(shape))
        for shape in ((4097, 4097), (257, 257, 257))
    )


EXPERIMENTS = {
    "fig7": (_fig7, "mass-matrix throughput per level (CPU / naive GPU / LPF)"),
    "table2": (_table2, "kernel speedups on the desktop"),
    "table3": (_table3, "kernel speedups on Summit"),
    "table4": (_table4, "end-to-end time breakdown (2D 8193^2, 3D 513^3)"),
    "table5": (_table5, "one GPU vs one CPU core across sizes + extra memory"),
    "table6": (_table6, "all GPUs vs all cores, node level"),
    "fig8": (_fig8, "CUDA-stream speedups on 3D data"),
    "fig9": (_fig9, "weak scaling to 4096 GPUs (TB/s)"),
    "fig10": (
        _fig10,
        "visualization-workflow I/O cost + modeled streaming overlap + accuracy demo",
    ),
    "fig11": (_fig11, "MGARD compression stage breakdown"),
    "offload": (_offload, "CPU-app offload break-even analysis (paper §I)"),
    "chaos": (
        _chaos,
        "fault-injection chaos matrix: writer-crash recovery rate, "
        "corrupt-read degradation, worker-kill retry latency",
    ),
    "service": (
        _service,
        "compression-service load generator: batched vs naive p50/p99/p99.9, "
        "coalescing + cache hit rates, kill/reconnect chaos",
    ),
    "validate": (_validate, "machine-checkable residuals vs the paper's numbers"),
    "lifecycle": (_lifecycle, "post-purge retrieval: refactoring-aware archive policy"),
    "ablations": (_ablations, "design-choice ablations"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of Chen et al., IPDPS 2021.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="list",
        help="experiment id (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--executor",
        default=None,
        metavar="SPEC",
        help="codec executor backend: serial (default), thread[:N] "
        "('parallel' is an alias), process[:N], or auto; also settable "
        "via REPRO_EXECUTOR",
    )
    parser.add_argument(
        "--kernel-backend",
        default=None,
        choices=("reference", "native", "auto"),
        help="kernel backend policy: reference (NumPy), native (C through "
        "cc + ctypes; falls back with a warning when there is no "
        "compiler), or auto (native whenever available, the default); "
        "also settable via REPRO_KERNEL_BACKEND",
    )
    args = parser.parse_args(argv)
    if args.kernel_backend is not None:
        from repro.kernels.launcher import set_kernel_backend

        set_kernel_backend(args.kernel_backend)
    if args.executor is not None:
        from repro.parallel.executors import set_default_executor

        try:
            set_default_executor(args.executor)
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return 2
    if args.experiment == "list":
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:10s} {desc}")
        return 0
    if args.experiment == "all":
        for name, (fn, _) in EXPERIMENTS.items():
            print(f"==== {name} " + "=" * (60 - len(name)))
            print(fn())
            print()
        return 0
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2
    try:
        print(EXPERIMENTS[args.experiment][0]())
    except BrokenPipeError:  # e.g. `repro-bench fig7 | head`
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
