"""Tests for the extension modules: offload and time series."""

import numpy as np
import pytest

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
