"""Tests for quantization, entropy coding, and the MGARD compressor."""

import numpy as np
import pytest

from repro.compress.huffman import huffman_decode, huffman_encode
from repro.compress.lossless import decode_classes, encode_classes
from repro.compress.mgard import MgardCompressor
from repro.compress.quantizer import Quantizer
from repro.core.classes import extract_classes
from repro.core.grid import TensorHierarchy, hierarchy_for
from repro.core.refactor import Refactorer
from repro.io.stream import StepStreamWriter
from repro.workloads.synthetic import discontinuous, multiscale, smooth, white_noise


class TestQuantizer:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Quantizer(0.0)
        with pytest.raises(ValueError):
            Quantizer(1.0, mode="quadratic")

    def test_steps_budget(self):
        q = Quantizer(1.0, mode="uniform")
        steps = q.steps_for(5)
        assert len(steps) == 5
        # half-bin errors across classes sum to the (safety-scaled) budget
        assert sum(s / 2 for s in steps) == pytest.approx(0.5)

    def test_level_mode_finer_classes_get_larger_bins(self):
        steps = Quantizer(1.0, mode="level").steps_for(6)
        assert all(a < b for a, b in zip(steps[:-1], steps[1:]))

    def test_quantize_dequantize_within_half_bin(self, rng):
        r = Refactorer((33, 33))
        refactored = r.decompose(rng.standard_normal((33, 33)))
        bins, sizes, steps = Quantizer(1e-2).quantize_refactored(refactored, r.hier)
        back = Quantizer.dequantize_refactored(bins, sizes, steps, r.hier)
        for orig, deq, step in zip(extract_classes(refactored, r.hier),
                                   extract_classes(back, r.hier), steps):
            assert np.abs(orig - deq).max() <= step / 2 + 1e-15

    @pytest.mark.parametrize("field", [smooth, multiscale, discontinuous, white_noise])
    @pytest.mark.parametrize("mode", ["uniform", "level"])
    @pytest.mark.parametrize("tol", [1e-1, 1e-3])
    def test_reconstruction_honours_bound(self, field, mode, tol):
        shape = (65, 65)
        data = field(shape)
        r = Refactorer(shape)
        q = Quantizer(tol, mode=mode)
        back = Quantizer.dequantize_refactored(*q.quantize_refactored(r.decompose(data), r.hier), r.hier)
        approx = r.recompose(back)
        assert np.abs(approx - data).max() <= tol

    def test_class_count_mismatch(self, rng):
        r9 = Refactorer((9, 9))
        r17 = Refactorer((17, 17))
        q = Quantizer(1e-3)
        bins, sizes, steps = q.quantize_refactored(r9.decompose(rng.standard_normal((9, 9))), r9.hier)
        with pytest.raises(ValueError):
            Quantizer.dequantize_refactored(bins, sizes, steps, r17.hier)


class TestHuffman:
    def test_roundtrip_skewed(self, rng):
        vals = rng.choice([0, 0, 0, 0, 1, -1, 2], size=2000).astype(np.int64)
        p, h = huffman_encode(vals)
        np.testing.assert_array_equal(huffman_decode(p, h), vals)

    def test_roundtrip_single_symbol(self):
        vals = np.full(100, 7, dtype=np.int64)
        p, h = huffman_encode(vals)
        np.testing.assert_array_equal(huffman_decode(p, h), vals)

    def test_roundtrip_with_escapes(self, rng):
        vals = np.concatenate(
            [rng.integers(-3, 3, 500), np.array([2**55, -(2**55), 12345678901])]
        ).astype(np.int64)
        p, h = huffman_encode(vals, max_table=8)
        np.testing.assert_array_equal(huffman_decode(p, h), vals)

    def test_empty_array(self):
        p, h = huffman_encode(np.zeros(0, dtype=np.int64))
        assert huffman_decode(p, h).size == 0

    def test_skewed_beats_fixed_width(self, rng):
        vals = rng.choice([0] * 50 + [1, -1], size=5000).astype(np.int64)
        p, _ = huffman_encode(vals)
        assert len(p) < 5000  # < 1 byte per symbol on a near-constant stream

    def test_truncated_payload_detected(self, rng):
        vals = rng.integers(-5, 5, 100).astype(np.int64)
        p, h = huffman_encode(vals)
        with pytest.raises(ValueError):
            huffman_decode(p[: len(p) // 2], h)


class TestLossless:
    """One class through the segmented codec every blob uses."""

    @staticmethod
    def encode(vals, backend="zlib"):
        return encode_classes(vals, [vals.size], backend=backend)

    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_roundtrip(self, backend, rng):
        vals = rng.integers(-100, 100, 3000).astype(np.int64)
        p, h = self.encode(vals, backend=backend)
        np.testing.assert_array_equal(decode_classes(p, h)[0], vals)

    def test_zlib_narrows_dtype(self, rng):
        vals = rng.integers(-3, 3, 1000).astype(np.int64)
        _, h = self.encode(vals, backend="zlib")
        assert h["segments"][0]["dtype"] == "|i1"

    def test_zlib_wide_values(self):
        vals = np.array([2**40, -(2**40)], dtype=np.int64)
        p, h = self.encode(vals)
        np.testing.assert_array_equal(decode_classes(p, h)[0], vals)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            self.encode(np.zeros(1, dtype=np.int64), backend="lz4")
        p, h = self.encode(np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError):
            decode_classes(p, {**h, "backend": "lz4"})

    @pytest.mark.parametrize("label", ["lz4", None], ids=["lz4", "missing"])
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_decode_refuses_unknown_backend(self, backend, label, rng):
        """A relabelled header is refused before anything is decoded."""
        p, h = self.encode(rng.integers(-5, 5, 500).astype(np.int64), backend=backend)
        h = {k: v for k, v in h.items() if k != "backend"}
        if label is not None:
            h["backend"] = label
        with pytest.raises(ValueError, match="unknown lossless backend"):
            decode_classes(p, h)

    def test_count_mismatch_detected(self, rng):
        vals = rng.integers(-3, 3, 100).astype(np.int64)
        p, h = self.encode(vals)
        h["class_sizes"] = [99]
        with pytest.raises(ValueError):
            decode_classes(p, h)


class TestMgard:
    def test_error_bound_end_to_end(self):
        shape = (65, 65)
        data = multiscale(shape)
        hier = TensorHierarchy.from_shape(shape)
        for tol in (1e-1, 1e-3, 1e-6):
            comp = MgardCompressor(hier, tol)
            blob = comp.compress(data)
            back = comp.decompress(blob)
            assert np.abs(back - data).max() <= tol

    def test_ratio_grows_with_tolerance(self):
        shape = (65, 65)
        data = smooth(shape)
        hier = TensorHierarchy.from_shape(shape)
        ratios = [
            MgardCompressor(hier, tol).compress(data).compression_ratio()
            for tol in (1e-5, 1e-3, 1e-1)
        ]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_smooth_compresses_better_than_noise(self, rng):
        shape = (65, 65)
        hier = TensorHierarchy.from_shape(shape)
        tol = 1e-2
        r_smooth = MgardCompressor(hier, tol).compress(smooth(shape)).compression_ratio()
        r_noise = (
            MgardCompressor(hier, tol).compress(white_noise(shape)).compression_ratio()
        )
        assert r_smooth > 1.5 * r_noise

    def test_level_mode_beats_uniform_on_smooth(self):
        shape = (65, 65)
        data = smooth(shape)
        hier = TensorHierarchy.from_shape(shape)
        level = MgardCompressor(hier, 1e-3, mode="level").compress(data)
        uniform = MgardCompressor(hier, 1e-3, mode="uniform").compress(data)
        assert level.nbytes < uniform.nbytes

    def test_huffman_backend(self):
        shape = (33, 33)
        data = smooth(shape)
        hier = TensorHierarchy.from_shape(shape)
        comp = MgardCompressor(hier, 1e-2, backend="huffman")
        back = comp.decompress(comp.compress(data))
        assert np.abs(back - data).max() <= 1e-2

    def test_shape_mismatch(self, rng):
        h33 = TensorHierarchy.from_shape((33, 33))
        h17 = TensorHierarchy.from_shape((17, 17))
        blob = MgardCompressor(h33, 1e-2).compress(rng.standard_normal((33, 33)))
        with pytest.raises(ValueError):
            MgardCompressor(h17, 1e-2).decompress(blob)

    def test_nonuniform_grid(self, rng):
        from conftest import nonuniform_coords

        shape = (33, 33)
        hier = TensorHierarchy.from_shape(shape, nonuniform_coords(shape, rng))
        data = smooth(shape)
        comp = MgardCompressor(hier, 1e-3)
        back = comp.decompress(comp.compress(data))
        assert np.abs(back - data).max() <= 1e-3

    def test_metered_engines_populate_times(self):
        from repro.experiments.showcases import fig11_mgard

        rows = {(r.config, r.operation): r for r in fig11_mgard(shape=(257, 257), steps=40)}
        for row in rows.values():
            assert row.refactor_s > 0 and row.quantize_s > 0 and row.entropy_s > 0
        assert rows["GPU-offload", "compress"].transfer_s > 0 == rows["CPU", "compress"].transfer_s
        # at 257^2 the modeled GPU refactor is several times faster (Table V)
        for op in ("compress", "decompress"):
            assert rows["CPU", op].refactor_s > 3 * rows["GPU-offload", op].refactor_s


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", ["compressor", "writer", "sharded_writer"])
def test_non_finite_tol_is_refused_before_anything_is_built(tmp_path, tol, make):
    """A NaN bound passes every ``tol <= 0`` test and an infinite one only
    fails at the first compress; both are refused at construction, and a
    stream writer refuses before it creates its directory."""
    root = tmp_path / "s"
    with pytest.raises(ValueError, match="finite and positive"):
        if make == "compressor":
            MgardCompressor(hierarchy_for((17, 17)), tol)
        else:
            StepStreamWriter(root, (17, 17), tol=tol,
                             shards=2 if make == "sharded_writer" else None)
    assert not root.exists()
