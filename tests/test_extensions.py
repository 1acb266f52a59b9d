"""Tests for the extension modules: offload, block partitioning, time series."""

import numpy as np
import pytest

from repro.cluster.partition import BlockRefactorer, plan_blocks
from repro.compress.timeseries import TimeSeriesCompressor
from repro.core.grid import TensorHierarchy
from repro.gpu.device import RTX2080TI, V100
from repro.gpu.offload import offload_analysis, offload_breakeven
from repro.workloads.grayscott import simulate


class TestOffload:
    def test_small_grids_not_worthwhile(self):
        pts = offload_analysis([(33, 33)])
        assert not pts[0].worthwhile

    def test_large_grids_worthwhile(self):
        pts = offload_analysis([(4097, 4097)])
        assert pts[0].worthwhile
        assert pts[0].offload_speedup > 5

    def test_breakeven_exists_and_is_moderate(self):
        side, pts = offload_breakeven()
        assert side is not None
        assert 33 <= side <= 1025
        # monotone advantage beyond breakeven
        after = [p.offload_speedup for p in pts if p.shape[0] >= side]
        assert all(b >= a * 0.8 for a, b in zip(after[:-1], after[1:]))

    def test_one_way_transfer_helps(self):
        two = offload_analysis([(513, 513)], roundtrip=True)[0]
        one = offload_analysis([(513, 513)], roundtrip=False)[0]
        assert one.transfer_seconds == pytest.approx(two.transfer_seconds / 2)

    def test_nvlink_beats_pcie(self):
        # V100 (NVLink 45 GB/s) transfers faster than 2080 Ti (PCIe 12 GB/s)
        nv = offload_analysis([(1025, 1025)], device=V100)[0]
        pcie = offload_analysis([(1025, 1025)], device=RTX2080TI)[0]
        assert nv.transfer_seconds < pcie.transfer_seconds


class TestBlockPartitioning:
    def test_plan_covers_grid(self):
        plan = plan_blocks((1000, 64), memory_bytes=2 * 100 * 64 * 8)
        assert plan.starts[0] == 0 and plan.stops[-1] == 1000
        for a, b in zip(plan.stops[:-1], plan.starts[1:]):
            assert a == b  # contiguous, non-overlapping

    def test_no_single_row_tail(self):
        plan = plan_blocks((101, 8), memory_bytes=2 * 50 * 8 * 8)
        assert all(stop - start >= 2 for start, stop in zip(plan.starts, plan.stops))

    def test_single_block_when_it_fits(self):
        plan = plan_blocks((64, 64), memory_bytes=10**9)
        assert plan.n_blocks == 1

    def test_impossible_budget(self):
        with pytest.raises(MemoryError):
            plan_blocks((100, 1000), memory_bytes=100)
        with pytest.raises(ValueError):
            plan_blocks((100, 10), memory_bytes=0)

    def test_blockwise_roundtrip_lossless(self, rng):
        shape = (130, 33)
        data = rng.standard_normal(shape)
        br = BlockRefactorer(shape, memory_bytes=2 * 40 * 33 * 8)
        assert br.n_blocks >= 3
        rt = br.recompose(br.decompose(data))
        np.testing.assert_allclose(rt, data, atol=1e-9)

    def test_blocks_respect_budget(self):
        budget = 2 * 40 * 33 * 8 + 4 * (40 + 33) * 8
        br = BlockRefactorer((130, 33), memory_bytes=budget)
        assert br.peak_block_footprint() <= budget * 1.1

    def test_per_block_classes(self, rng):
        shape = (64, 17)
        data = rng.standard_normal(shape)
        br = BlockRefactorer(shape, memory_bytes=2 * 20 * 17 * 8)
        blocks = br.refactor(data)
        assert len(blocks) == br.n_blocks
        # reassembling every block's full reconstruction gives the data
        out = np.empty(shape)
        for i, cc in enumerate(blocks):
            out[br.plan.slices(i)] = cc.reconstruct()
        np.testing.assert_allclose(out, data, atol=1e-9)

    def test_shape_validation(self, rng):
        br = BlockRefactorer((64, 17), memory_bytes=10**9)
        with pytest.raises(ValueError):
            br.decompose(rng.standard_normal((64, 16)))

    def test_metered_engine_accumulates_across_blocks(self):
        """Modeled time of a blocked refactoring: one ``model_pass`` per block."""
        from repro.gpu.analytic import model_pass

        br = BlockRefactorer((130, 33), memory_bytes=2 * 40 * 33 * 8)
        per_block = [model_pass(h, V100) for h in br.hiers]
        assert br.n_blocks > 1
        assert all(p.total_seconds > 0 and p.n_launches > 1 for p in per_block)


class TestTimeSeries:
    @pytest.fixture(scope="class")
    def frames(self):
        return simulate((33, 33), steps=120, snapshot_every=20, params="stripes")

    def test_per_frame_error_bound(self, frames):
        hier = TensorHierarchy.from_shape((33, 33))
        rngs = max(float(f.max() - f.min()) for f in frames)
        tol = 1e-3 * rngs
        tsc = TimeSeriesCompressor(hier, tol, key_interval=4)
        series = tsc.compress(frames)
        back = tsc.decompress(series)
        for orig, rec in zip(frames, back):
            assert np.abs(rec - orig).max() <= tol

    def test_temporal_prediction_beats_independent(self, frames):
        hier = TensorHierarchy.from_shape((33, 33))
        rngs = max(float(f.max() - f.min()) for f in frames)
        tol = 1e-3 * rngs
        predicted = TimeSeriesCompressor(hier, tol, key_interval=100).compress(frames)
        independent = TimeSeriesCompressor(hier, tol, key_interval=1).compress(frames)
        assert predicted.nbytes < independent.nbytes
        assert predicted.compression_ratio() > independent.compression_ratio()

    def test_key_frames_marked(self, frames):
        hier = TensorHierarchy.from_shape((33, 33))
        tsc = TimeSeriesCompressor(hier, 1e-3, key_interval=2)
        series = tsc.compress(frames)
        assert series.is_key[0] is True
        assert series.is_key == [t % 2 == 0 for t in range(len(frames))]

    def test_validation(self, frames):
        hier = TensorHierarchy.from_shape((33, 33))
        with pytest.raises(ValueError):
            TimeSeriesCompressor(hier, 1e-3, key_interval=0)
        tsc = TimeSeriesCompressor(hier, 1e-3)
        with pytest.raises(ValueError):
            tsc.compress([])
        with pytest.raises(ValueError):
            tsc.compress([np.zeros((17, 17))])
