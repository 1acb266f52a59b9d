"""Tests for memory accounting, the analytic model, and stream scheduling."""

import pytest

from repro.core.grid import TensorHierarchy
from repro.gpu.analytic import model_pass, model_pass_shape
from repro.gpu.cost import cpu_kernel_time, gpu_kernel_time
from repro.gpu.device import POWER9_CORE, V100
from repro.gpu.memory import refactoring_footprint
from repro.gpu.streams import StreamScheduler, stream_sweep
from repro.kernels.launches import (
    CPU_BASELINE_OPTIONS,
    EngineOptions,
    category_of,
    iter_decompose_launches,
)


class TestFootprint:
    @pytest.mark.parametrize(
        "shape,paper_pct",
        [
            ((33, 33), 6.06),
            ((65, 65), 3.08),
            ((513, 513), 0.39),
            ((8193, 8193), 0.02),
            ((33, 33, 33), 0.28),
        ],
    )
    def test_extra_footprint_matches_paper_table5(self, shape, paper_pct):
        fp = refactoring_footprint(TensorHierarchy.from_shape(shape))
        assert 100 * fp.extra_fraction == pytest.approx(paper_pct, abs=0.02)

    def test_513_cubed_in_permille(self):
        fp = refactoring_footprint(TensorHierarchy.from_shape((513, 513, 513)))
        # paper: 0.01 per-mille
        assert 1000 * fp.extra_fraction == pytest.approx(0.0114, abs=0.001)

    def test_totals(self):
        fp = refactoring_footprint(TensorHierarchy.from_shape((9, 9)))
        assert fp.cpu_total == 2 * 81 * 8
        assert fp.gpu_total == fp.cpu_total + 2 * 18 * 8


class TestAnalyticModel:
    @pytest.mark.parametrize("shape", [(33, 17), (9, 9, 9), (65,)])
    @pytest.mark.parametrize("operation", ["decompose", "recompose"])
    def test_matches_metered_gpu_clock(self, shape, operation):
        """``model_pass`` is the walk metered record by record: the total is
        the sum of the records' modeled times, per Table IV category too."""
        h = TensorHierarchy.from_shape(shape)
        walk = list(iter_decompose_launches(h, EngineOptions(), operation))
        times = [gpu_kernel_time(rec, V100) for rec in walk]
        mp = model_pass(h, V100, EngineOptions(), operation)
        assert mp.total_seconds == pytest.approx(sum(times), rel=1e-12)
        for cat, seconds in mp.category_seconds.items():
            metered = sum(t for rec, t in zip(walk, times) if category_of(rec) == cat)
            assert seconds == pytest.approx(metered, rel=1e-12)

    def test_matches_metered_cpu_clock(self):
        h = TensorHierarchy.from_shape((33, 17))
        walk = list(iter_decompose_launches(h, CPU_BASELINE_OPTIONS, "decompose"))
        mp = model_pass(h, POWER9_CORE, CPU_BASELINE_OPTIONS, "decompose")
        metered = sum(cpu_kernel_time(rec, POWER9_CORE) for rec in walk)
        assert mp.n_launches == len(walk) and mp.total_seconds == pytest.approx(metered, rel=1e-12)

    def test_throughput_property(self):
        mp = model_pass_shape((1025, 1025), V100)
        assert mp.throughput_gbps == pytest.approx(
            1025 * 1025 * 8 / mp.total_seconds / 1e9
        )

    def test_gpu_beats_cpu_at_scale(self):
        t_gpu = model_pass_shape((4097, 4097), V100).total_seconds
        t_cpu = model_pass_shape(
            (4097, 4097), POWER9_CORE, CPU_BASELINE_OPTIONS
        ).total_seconds
        assert t_cpu / t_gpu > 50

    def test_cpu_beats_gpu_on_tiny_grids(self):
        t_gpu = model_pass_shape((33, 33), V100).total_seconds
        t_cpu = model_pass_shape((33, 33), POWER9_CORE, CPU_BASELINE_OPTIONS).total_seconds
        assert t_cpu < t_gpu  # the paper's Table V crossover

    def test_rejects_unknown_hardware(self):
        with pytest.raises(TypeError):
            model_pass_shape((9, 9), hardware="gpu")


class TestStreams:
    def test_scheduler_equal_tasks_waves(self):
        s = StreamScheduler(4)
        assert s.makespan([1.0] * 8) == pytest.approx(2.0)
        assert s.makespan([1.0] * 9) == pytest.approx(3.0)

    def test_scheduler_empty(self):
        assert StreamScheduler(4).makespan([]) == 0.0

    def test_scheduler_single_stream_serializes(self):
        assert StreamScheduler(1).makespan([0.5, 1.5, 1.0]) == pytest.approx(3.0)

    def test_timeline_consistent(self):
        s = StreamScheduler(2)
        tl = s.timeline([1.0, 1.0, 1.0])
        assert tl[0][1] == 0.0 and tl[1][1] == 0.0 and tl[2][1] == 1.0

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            StreamScheduler(0)

    def test_sweep_monotone_then_plateau(self):
        pts = stream_sweep((129, 129, 129), V100)
        speedups = [p.speedup for p in pts]
        assert speedups[0] == 1.0
        assert all(b >= a - 1e-9 for a, b in zip(speedups[:-1], speedups[1:]))
        # plateau at the device's concurrency cap (8)
        by_n = {p.n_streams: p.speedup for p in pts}
        assert by_n[16] == pytest.approx(by_n[8])
        assert by_n[8] > 1.5

    def test_sweep_matches_paper_shape_at_513(self):
        pts = {p.n_streams: p.speedup for p in stream_sweep((513, 513, 513), V100)}
        # paper: 2.6x (decompose) with 8 streams; we land in [2, 4.5]
        assert 2.0 < pts[8] < 4.5
