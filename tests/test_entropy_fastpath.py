"""Vectorized entropy/quantize fast path vs the scalar oracle in ``tests/``.

The fast path must be *bit-identical* on encode (same segment bytes and
header) and *exact* on decode for adversarial inputs: single-symbol
streams, escape-heavy streams (more distinct values than the symbol
table holds), all-negative bins, and real quantizer output for every
shape in ``ROUNDTRIP_SHAPES``.
"""

import zlib

import numpy as np
import pytest

from conftest import ROUNDTRIP_SHAPES
from huffman_oracle import huffman_decode_scalar, huffman_encode_scalar, split_segment

from repro.compress.huffman import huffman_decode, huffman_encode
from repro.compress.huffman_pack import _SYNC_BLOCK
from repro.compress.lossless import decode_classes, encode_classes
from repro.compress.mgard import MgardCompressor
from repro.compress.quantizer import Quantizer
from repro.core.classes import CoefficientClasses, assemble_from_classes, extract_classes
from repro.core.decompose import decompose
from repro.core.grid import hierarchy_for
from repro.core.refactor import Refactorer
from repro.workloads.synthetic import multiscale


def _adversarial_arrays(rng):
    yield "empty", np.zeros(0, dtype=np.int64)
    yield "single-value", np.full(1, -3, dtype=np.int64)
    yield "single-symbol", np.full(4097, 42, dtype=np.int64)
    yield "two-symbol", rng.choice([0, 1], 1000).astype(np.int64)
    yield "all-negative", -np.abs(rng.integers(1, 40, 3000)).astype(np.int64)
    yield "skewed", (rng.geometric(0.4, 20000).astype(np.int64) - 1) * rng.choice(
        [-1, 1], 20000
    )
    yield "escape-heavy", rng.integers(-(2**60), 2**60, 4000).astype(np.int64)
    yield "extremes", np.array(
        [-(2**63), 2**63 - 1, 0, -1, 1, 2**62, -(2**62)], dtype=np.int64
    )
    yield "sync-boundary", np.arange(2 * _SYNC_BLOCK + 1, dtype=np.int64) % 5
    yield "exact-sync-block", np.arange(_SYNC_BLOCK, dtype=np.int64) % 3


class TestBitIdentical:
    @pytest.mark.parametrize("max_table", [4096, 16, 2])
    def test_payloads_and_headers_match_scalar(self, rng, max_table):
        for name, arr in _adversarial_arrays(rng):
            p_fast, h_fast = huffman_encode(arr, max_table=max_table)
            p_ref, h_ref = huffman_encode_scalar(arr, max_table=max_table)
            assert p_fast == p_ref, (name, max_table)
            assert h_fast == h_ref, (name, max_table)

    def test_quantized_fields_all_shapes(self, rng):
        for shape in ROUNDTRIP_SHAPES:
            cc = Refactorer(shape).refactor(rng.standard_normal(shape))
            bins, _, _ = Quantizer(1e-3).quantize_flat(cc)
            p_fast, h_fast = huffman_encode(bins)
            p_ref, h_ref = huffman_encode_scalar(bins)
            assert p_fast == p_ref and h_fast == h_ref, shape
            np.testing.assert_array_equal(huffman_decode(p_fast, h_fast), bins)


class TestExactDecode:
    def test_roundtrip_all_decoders(self, rng):
        for name, arr in _adversarial_arrays(rng):
            payload, header = huffman_encode(arr, max_table=64)
            np.testing.assert_array_equal(
                huffman_decode(payload, header), arr, err_msg=f"{name} fast"
            )
            np.testing.assert_array_equal(
                huffman_decode_scalar(payload, header), arr, err_msg=f"{name} scalar"
            )

    def test_truncated_payload_detected_by_both_paths(self, rng):
        arr = rng.integers(-5, 5, 3 * _SYNC_BLOCK).astype(np.int64)
        payload, header = huffman_encode(arr)
        assert split_segment(payload, header)[1]
        with pytest.raises(ValueError):
            huffman_decode(payload[: len(payload) // 2], header)
        # one block: the segment carries no sync offsets, only the end bit
        payload, header = huffman_encode(arr[:_SYNC_BLOCK])
        assert not split_segment(payload, header)[1]
        with pytest.raises(ValueError, match="truncated"):
            huffman_decode(payload[: len(payload) // 2], header)

    def test_negative_header_counts_rejected(self, rng):
        arr = rng.integers(-5, 5, 100).astype(np.int64)
        payload, header = huffman_encode(arr)
        for key in ("n", "bits"):
            bad = dict(header)
            bad[key] = -3
            with pytest.raises(ValueError):
                huffman_decode(payload, bad)

    def test_corrupt_sync_offsets_detected(self, rng):
        arr = rng.integers(-5, 5, 3 * _SYNC_BLOCK).astype(np.int64)
        payload, header = huffman_encode(arr)
        _, sync, bitstream = split_segment(payload, header)
        shifted = np.array(sync, dtype="<u8") + 1
        with pytest.raises(ValueError):
            huffman_decode(payload[: header["book"]] + shifted.tobytes() + bitstream, header)

    @pytest.mark.parametrize("n", [241, 10**7, 10**10])
    def test_more_symbols_than_bits_rejected_before_allocation(self, n):
        """Every symbol costs >= 1 bit: ``n > bits`` is refused up front
        (the chain path used to grow its position array to ``n`` first —
        seconds and 10**7-element arrays for a 240-bit payload)."""
        payload, header = huffman_encode(np.arange(80, dtype=np.int64) % 8)
        assert header["bits"] == 240 and not split_segment(payload, header)[1]
        with pytest.raises(ValueError, match="corrupt Huffman header"):
            huffman_decode(payload, {**header, "n": n})

    def test_sync_length_disagreeing_with_n_rejected(self, rng):
        arr = rng.integers(-5, 5, 3 * _SYNC_BLOCK).astype(np.int64)
        payload, header = huffman_encode(arr)
        _, sync, bitstream = split_segment(payload, header)
        for bad in (sync[:-1], sync + [header["bits"]], []):
            words = np.array(bad, dtype="<u8").tobytes()
            with pytest.raises(ValueError, match="truncated|corrupt Huffman segment"):
                huffman_decode(payload[: header["book"]] + words + bitstream, header)


class TestBatchedClasses:
    def test_encode_classes_roundtrip(self, rng):
        for backend in ("zlib", "huffman"):
            sizes = [9, 100, 0, 1, 512]
            bins = rng.integers(-300, 300, sum(sizes)).astype(np.int64)
            payload, header = encode_classes(bins, sizes, backend=backend)
            flat, got = decode_classes(payload, header)
            assert got == sizes
            np.testing.assert_array_equal(flat, bins)

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            encode_classes(np.zeros(5, dtype=np.int64), [2, 2])
        payload, header = encode_classes(np.zeros(4, dtype=np.int64), [2, 2])
        header["class_sizes"] = [2, 3]
        with pytest.raises(ValueError):
            decode_classes(payload, header)

    def test_quantize_refactored_matches_flat_over_extracted_classes(self, rng):
        hier = hierarchy_for((33, 17))
        refactored = decompose(rng.standard_normal((33, 17)), hier)
        q = Quantizer(1e-3)
        classes = extract_classes(refactored, hier)
        flat_bins, flat_sizes, flat_steps = q.quantize_flat(CoefficientClasses(hier, classes))
        bins, sizes, steps = q.quantize_refactored(refactored, hier)
        assert steps == flat_steps
        assert sizes == flat_sizes == [c.size for c in classes]
        np.testing.assert_array_equal(bins, flat_bins)
        back = Quantizer.dequantize_refactored(bins, sizes, steps, hier)
        per_class = Quantizer.dequantize_flat(bins, sizes, steps)
        np.testing.assert_array_equal(back, assemble_from_classes(per_class, hier))
        for flat_cls, b, step in zip(per_class, np.split(bins, np.cumsum(sizes)[:-1]), steps):
            np.testing.assert_allclose(flat_cls, b.astype(np.float64) * step)

    def test_per_class_blob_layout_is_refused(self):
        """One payload and header per class (pre-batching) has no decoder
        any more: its first header is no batched header."""
        shape = (17, 17)
        hier = hierarchy_for(shape)
        comp = MgardCompressor(hier, 1e-3)
        blob = comp.compress(multiscale(shape))
        bins, sizes, _ = Quantizer(1e-3).quantize_refactored(decompose(multiscale(shape), hier), hier)
        per_class = np.split(bins, np.cumsum(sizes)[:-1])
        blob.payloads = [zlib.compress(b.tobytes()) for b in per_class]
        blob.headers = [{"backend": "zlib", "dtype": b.dtype.str, "n": b.size} for b in per_class]
        with pytest.raises(ValueError, match="not a batched payload"):
            comp.decompress(blob)


class TestPlanCache:
    def test_hierarchy_cache_shares_instances(self, rng):
        from conftest import nonuniform_coords

        shape = (17, 9)
        assert hierarchy_for(shape) is hierarchy_for(shape)
        coords = nonuniform_coords(shape, rng)
        assert hierarchy_for(shape, coords) is hierarchy_for(shape, coords)
        assert hierarchy_for(shape) is not hierarchy_for(shape, coords)

    def test_refactorers_share_cached_hierarchy(self):
        assert Refactorer((33, 33)).hier is Refactorer((33, 33)).hier

    def test_same_shape_compressors_share_hierarchy(self):
        shape = (33, 33)
        data = multiscale(shape)
        comp = MgardCompressor(hierarchy_for(shape), 1e-3)
        again = MgardCompressor(hierarchy_for(shape), 1e-3)
        assert comp.hier is again.hier
        blob = comp.compress(data)
        assert np.abs(again.decompress(blob) - data).max() <= 1e-3
