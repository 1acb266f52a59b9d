"""Tests for streaming I/O, spectrum diagnostics, rate-distortion, tracing."""

import json

import numpy as np
import pytest

from repro.analysis.spectrum import class_band_energy, radial_power_spectrum
from repro.compress.rate import bd_rate_gain, rate_distortion_curve
from repro.core.grid import hierarchy_for
from repro.core.refactor import Refactorer
from repro.gpu.analytic import model_pass_shape
from repro.gpu.device import V100
from repro.gpu.tracing import build_timeline, to_chrome_trace
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError
from repro.kernels.launches import EngineOptions, iter_decompose_launches
from repro.workloads.synthetic import multiscale, smooth


class TestSpectrum:
    def test_pure_tone_peaks_at_its_frequency(self):
        n = 64
        x = np.linspace(0, 1, n, endpoint=False)
        field = np.sin(2 * np.pi * 8 * x)[:, None] * np.ones((1, n))
        k, p = radial_power_spectrum(field, n_bins=32)
        peak = k[int(np.argmax(p[1:])) + 1]
        assert peak == pytest.approx(8.0, abs=1.5)

    def test_class_band_centroids_increase(self):
        shape = (65, 65)
        cc = Refactorer(shape).refactor(multiscale(shape, octaves=6))
        bands = class_band_energy(cc)
        centroids = [b["centroid"] for b in bands if b["energy"] > 1e-12]
        # finer classes carry higher frequencies (allow minor wobble)
        assert centroids[-1] > 2 * centroids[0]
        rising = sum(b > a for a, b in zip(centroids[:-1], centroids[1:]))
        assert rising >= len(centroids) - 2

    def test_energy_partitions_total(self):
        shape = (33, 33)
        data = smooth(shape)
        cc = Refactorer(shape).refactor(data)
        bands = class_band_energy(cc)
        # contributions are a telescoping sum: energies are non-negative
        assert all(b["energy"] >= 0 for b in bands)


class TestRateDistortion:
    @pytest.fixture(scope="class")
    def data(self):
        return multiscale((65, 65))

    def test_curve_monotone(self, data):
        pts = rate_distortion_curve(data, (1e-1, 1e-2, 1e-3, 1e-4))
        rates = [p.bits_per_value for p in pts]
        psnrs = [p.psnr_db for p in pts]
        assert all(a < b for a, b in zip(rates[:-1], rates[1:]))
        assert all(a < b for a, b in zip(psnrs[:-1], psnrs[1:]))
        for p in pts:
            assert p.max_error <= p.tol

    def test_level_mode_cheaper_at_equal_tolerance(self, data):
        tols = (1e-1, 1e-2, 1e-3, 1e-4)
        level = rate_distortion_curve(data, tols, mode="level")
        uniform = rate_distortion_curve(data, tols, mode="uniform")
        # level budgeting optimizes for the Linf *guarantee*: at every
        # tolerance it spends fewer bits (uniform over-delivers PSNR)
        for lv, un in zip(level, uniform):
            assert lv.bits_per_value < un.bits_per_value
        # while in PSNR terms the two modes are nearly equivalent
        assert abs(bd_rate_gain(level, uniform)) < 0.5

    def test_bd_rate_disjoint_ranges_rejected(self, data):
        a = rate_distortion_curve(data, (1e-1,))
        b = rate_distortion_curve(data, (1e-6,))
        with pytest.raises(ValueError):
            bd_rate_gain(a, b)


class TestStepStream:
    def test_write_read_roundtrip(self, tmp_path, rng):
        shape = (33, 33)
        writer = StepStreamWriter(tmp_path, shape)
        frames = [rng.standard_normal(shape) for _ in range(3)]
        for t, f in enumerate(frames):
            assert writer.append(f, time=float(t)) == t
        reader = StepStreamReader(tmp_path)
        assert reader.n_steps == 3
        for t, f in enumerate(frames):
            full = reader.read_full(t).reconstruct()
            np.testing.assert_allclose(full, f, atol=1e-9)

    def test_tolerance_driven_read(self, tmp_path):
        shape = (65, 65)
        writer = StepStreamWriter(tmp_path, shape)
        writer.append(smooth(shape))
        reader = StepStreamReader(tmp_path)
        coarse, coarse_bytes = reader.read(0, tol=1e-1)
        fine, fine_bytes = reader.read(0, tol=1e-8)
        assert coarse_bytes < fine_bytes
        assert coarse.shape == shape

    def test_read_arg_validation(self, tmp_path, rng):
        writer = StepStreamWriter(tmp_path, (17, 17))
        writer.append(rng.standard_normal((17, 17)))
        reader = StepStreamReader(tmp_path)
        with pytest.raises(ValueError):
            reader.read(0)
        with pytest.raises(ValueError):
            reader.read(0, k=1, tol=1e-3)
        with pytest.raises(StreamError):
            reader.read(5, k=1)

    def test_reopen_appends(self, tmp_path, rng):
        shape = (17, 17)
        StepStreamWriter(tmp_path, shape).append(rng.standard_normal(shape))
        w2 = StepStreamWriter(tmp_path, shape)
        assert w2.n_steps == 1
        w2.append(rng.standard_normal(shape))
        assert StepStreamReader(tmp_path).n_steps == 2

    def test_shape_conflict_rejected(self, tmp_path, rng):
        StepStreamWriter(tmp_path, (17, 17))
        with pytest.raises(StreamError):
            StepStreamWriter(tmp_path, (9, 9))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StreamError):
            StepStreamReader(tmp_path / "nope")


class TestTracing:
    def _records(self, n_streams=2):
        opts = EngineOptions(n_streams=n_streams)
        return list(iter_decompose_launches(hierarchy_for((17, 9, 9)), opts, "decompose"))

    def test_timeline_covers_clock(self):
        events = build_timeline(self._records(), V100)
        assert events
        end = max(e.end_s for e in events)
        clock = model_pass_shape((17, 9, 9), V100, EngineOptions(n_streams=2)).total_seconds
        assert end == pytest.approx(clock, rel=0.05)

    def test_events_non_overlapping_per_stream(self):
        events = build_timeline(self._records(n_streams=4))
        by_stream: dict[int, list] = {}
        for e in events:
            by_stream.setdefault(e.stream, []).append(e)
        for evs in by_stream.values():
            evs.sort(key=lambda e: e.start_s)
            for a, b in zip(evs[:-1], evs[1:]):
                assert b.start_s >= a.end_s - 1e-12

    def test_chrome_trace_is_valid_json(self):
        blob = to_chrome_trace(build_timeline(self._records()))
        parsed = json.loads(blob)
        assert parsed["traceEvents"]
        assert all(ev["ph"] == "X" for ev in parsed["traceEvents"])
