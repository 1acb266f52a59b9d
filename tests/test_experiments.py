"""Tests for the experiment generators: the paper's qualitative findings.

These tests pin the *shapes* of the paper's results: who wins, how
trends move with size/stride/streams, where crossovers fall.  Absolute
numbers are covered by EXPERIMENTS.md, not asserted here (the model is
first-order by design).
"""

import numpy as np
import pytest

from repro.experiments import (
    ablation_sweep,
    bench_scale,
    fig7_mass_throughput,
    fig8_streams,
    fig9_weak_scaling,
    fig10_workflow,
    fig11_mgard,
    format_ablations,
    format_fig7,
    format_fig8,
    format_fig9,
    format_fig10,
    format_fig11,
    format_kernel_table,
    format_table4,
    format_table5,
    format_table6,
    kernel_speedup_table,
    table4_breakdown,
    table5_end_to_end,
    table6_node_level,
)


class TestFig7:
    def test_lpf_dominates(self):
        for p in fig7_mass_throughput(1025):
            assert p.lpf_gpu_gbps > p.naive_gpu_gbps
            # on grids big enough to fill a launch, LPF also beats the CPU
            if p.grid_side >= 17:
                assert p.lpf_gpu_gbps > p.cpu_gbps

    def test_naive_collapses_exponentially_with_stride(self):
        pts = fig7_mass_throughput(4097)
        top = pts[0].naive_gpu_gbps
        deep = [p for p in pts if p.stride >= 256][0].naive_gpu_gbps
        assert top / deep > 50

    def test_lpf_sustains_until_small_grids(self):
        pts = fig7_mass_throughput(4097)
        # within the first few levels LPF holds >50% of its peak
        assert pts[2].lpf_gpu_gbps > 0.5 * pts[0].lpf_gpu_gbps
        # and only collapses for tiny grids
        assert pts[-1].lpf_gpu_gbps < 0.05 * pts[0].lpf_gpu_gbps

    def test_cpu_degrades_with_stride(self):
        pts = fig7_mass_throughput(4097)
        assert pts[0].cpu_gbps > 2 * pts[-1].cpu_gbps

    def test_format(self):
        assert "mass-matrix" in format_fig7(fig7_mass_throughput(129))


class TestKernelTables:
    @pytest.mark.parametrize("platform", ["desktop", "summit"])
    def test_rows_and_ordering(self, platform):
        rows = kernel_speedup_table(platform, side_2d=2049, side_3d=129)
        assert len(rows) == 5
        by_kernel = {(r.dims, r.kernel): r for r in rows}
        # solver is the least accelerated 2D kernel (the paper's finding)
        sc = by_kernel[("2D", "Solve Correction")]
        for (dims, kern), r in by_kernel.items():
            assert r.min <= r.avg <= r.max
            if dims == "2D" and kern != "Solve Correction":
                assert r.avg > sc.avg
        # 3D coefficients speed up less than 2D coefficients
        assert (
            by_kernel[("3D", "Comp. Coefficients")].max
            < by_kernel[("2D", "Comp. Coefficients")].max
        )

    def test_summit_max_exceeds_desktop(self):
        d = kernel_speedup_table("desktop", 8193, 257)
        s = kernel_speedup_table("summit", 8193, 257)
        d_cc = [r for r in d if r.dims == "2D" and "Coeff" in r.kernel][0]
        s_cc = [r for r in s if r.dims == "2D" and "Coeff" in r.kernel][0]
        assert s_cc.max > d_cc.max

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            kernel_speedup_table("laptop")

    def test_format(self):
        rows = kernel_speedup_table("desktop", 513, 65)
        assert "desktop" in format_kernel_table(rows, "desktop")


class TestTable4:
    def test_gpu_beats_cpu_per_category(self):
        rows = table4_breakdown(shape_2d=(2049, 2049), shape_3d=(129, 129, 129))
        assert len(rows) == 8
        by = {(r.shape, r.operation, "NVIDIA" in r.hardware): r for r in rows}
        for shape in [(2049, 2049), (129, 129, 129)]:
            for op in ("decompose", "recompose"):
                cpu = by[(shape, op, False)]
                gpu = by[(shape, op, True)]
                # single-stream Table IV regime; 3D at 129^3 is launch-bound
                assert cpu.total > 5 * gpu.total
                # solver dominates the GPU side more than the CPU side
                assert (
                    gpu.seconds["SC"] / gpu.total > cpu.seconds["SC"] / cpu.total
                )

    def test_cpu_has_no_pn_row(self):
        rows = table4_breakdown(shape_2d=(513, 513), shape_3d=(65, 65, 65))
        for r in rows:
            if "NVIDIA" not in r.hardware:
                assert r.seconds["PN"] == 0.0
            else:
                assert r.seconds["PN"] > 0.0

    def test_format(self):
        assert "Table IV" in format_table4(
            table4_breakdown(shape_2d=(513, 513), shape_3d=(65, 65, 65))
        )


class TestTable5:
    def test_speedup_grows_with_size_and_crossover(self):
        rows = table5_end_to_end(sides_2d=(33, 129, 513, 2049), sides_3d=(33, 129))
        two_d = [r for r in rows if len(r.shape) == 2]
        # monotone growth with size
        for a, b in zip(two_d[:-1], two_d[1:]):
            assert b.summit_decompose > a.summit_decompose
            assert b.desktop_decompose > a.desktop_decompose
        # crossover: GPU loses on the smallest grid, wins at scale
        assert two_d[0].summit_decompose < 1.0
        assert two_d[-1].summit_decompose > 50.0

    def test_summit_beats_desktop_at_scale(self):
        rows = table5_end_to_end(sides_2d=(4097,), sides_3d=())
        assert rows[0].summit_decompose > 2 * rows[0].desktop_decompose

    def test_extra_memory_matches_paper_exactly(self):
        rows = table5_end_to_end(sides_2d=(33, 513), sides_3d=(33,))
        by_shape = {r.shape: 100 * r.extra_memory_fraction for r in rows}
        assert by_shape[(33, 33)] == pytest.approx(6.06, abs=0.01)
        assert by_shape[(513, 513)] == pytest.approx(0.39, abs=0.01)
        assert by_shape[(33, 33, 33)] == pytest.approx(0.28, abs=0.01)

    def test_format(self):
        assert "Table V" in format_table5(table5_end_to_end((33,), (33,)))


class TestTable6:
    def test_all_rows_and_ordering(self):
        rows = table6_node_level()
        assert len(rows) == 8
        # Summit's 6-GPU node out-speeds the desktop's single GPU vs 8 cores
        summit_2d = [r for r in rows if "Summit" in r["node"] and len(r["shape"]) == 2]
        desk_2d = [r for r in rows if "desktop" in r["node"] and len(r["shape"]) == 2]
        assert summit_2d[0]["speedup"] > desk_2d[0]["speedup"] > 1

    def test_format(self):
        assert "Table VI" in format_table6(table6_node_level())


class TestFig8:
    def test_shape(self):
        sweeps = fig8_streams(shape=(129, 129, 129))
        assert set(sweeps) == {
            "desktop/decompose",
            "desktop/recompose",
            "summit/decompose",
            "summit/recompose",
        }
        for pts in sweeps.values():
            speeds = [p.speedup for p in pts]
            assert speeds[0] == 1.0
            assert max(speeds) == pytest.approx(speeds[-1], rel=1e-9)  # plateau
            assert 1.5 < max(speeds) < 6.0

    def test_format(self):
        assert "CUDA streams" in format_fig8(fig8_streams(shape=(65, 65, 65)))


class TestFig9:
    def test_near_linear_and_2d_beats_3d(self):
        curves = fig9_weak_scaling(gpu_counts=(1, 64, 4096))
        for pts in curves.values():
            per = [p.aggregate_tbps / p.n_gpus for p in pts]
            assert per[-1] > 0.9 * per[0]
        assert (
            curves["2D/decompose"][-1].aggregate_tbps
            > curves["3D/decompose"][-1].aggregate_tbps
        )

    def test_paper_magnitudes(self):
        curves = fig9_weak_scaling(gpu_counts=(4096,))
        # paper: 45.42 / 40.45 / 17.78 / 19.86 TB/s
        assert 30 < curves["2D/decompose"][0].aggregate_tbps < 70
        assert 12 < curves["3D/decompose"][0].aggregate_tbps < 35

    def test_format(self):
        assert "TB/s" in format_fig9(fig9_weak_scaling(gpu_counts=(1, 4)))


class TestFig10:
    def test_refactoring_pays_off_with_gpu_only(self):
        curves = fig10_workflow(ks=(3, 10), n_writers=4096)
        gpu = curves["write/gpu"]
        cpu = curves["write/cpu"]
        # with GPU refactoring, storing 3 classes cuts the total cost
        assert gpu[0].total_seconds < 0.5 * gpu[1].total_seconds
        # with CPU refactoring the refactor time swamps any I/O saving
        assert cpu[0].total_seconds > 0.8 * cpu[1].total_seconds

    def test_format(self):
        assert "I/O cost" in format_fig10(fig10_workflow(ks=(1, 2)))


class TestFig11:
    def test_offload_shifts_bottleneck_to_entropy(self):
        # at 65^3 the modeled V100 pass is mostly launch latency, within
        # noise of the measured deflate; 97^3 keeps a ~2x margin
        rows = fig11_mgard(shape=(97, 97, 97), steps=100)
        by = {(r.config, r.operation): r for r in rows}
        cpu = by[("CPU", "compress")]
        gpu = by[("GPU-offload", "compress")]
        assert gpu.total < cpu.total
        # CPU config: refactoring dominates; GPU config: entropy dominates
        assert cpu.refactor_s > cpu.entropy_s
        assert gpu.entropy_s > gpu.refactor_s

    def test_format(self):
        rows = fig11_mgard(shape=(33, 33, 33), steps=50)
        assert "MGARD" in format_fig11(rows)


class TestAblations:
    def test_2d_packing_and_divergence_cost(self):
        rows = {r.name: r for r in ablation_sweep((2049, 2049))}
        assert rows["no node packing"].slowdown > 1.1
        assert rows["divergent warps"].slowdown > 1.02
        assert rows["naive linear kernels"].slowdown > 2.0

    def test_3d_single_stream_cost(self):
        rows = {r.name: r for r in ablation_sweep((129, 129, 129))}
        assert rows["single stream"].slowdown > 1.5

    def test_format(self):
        assert "Ablations" in format_ablations(ablation_sweep((513, 513)))


class TestScaleSelection:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale().name == "paper"

    def test_ci_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "ci")
        assert bench_scale().side_2d == 1025

    def test_invalid_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            bench_scale()


class TestFormatHelpers:
    def test_format_seconds_scales(self):
        from repro.experiments import format_seconds

        assert format_seconds(0) == "0"
        assert format_seconds(5e-7) == "0.5us"
        assert format_seconds(2.5e-3) == "2.50ms"
        assert format_seconds(12.0) == "12.00s"

    def test_format_table_alignment(self):
        from repro.experiments import format_table

        out = format_table(["a", "bbb"], [["1", "2"], ["10", "20"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])
