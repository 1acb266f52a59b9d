"""Compressed-mode streaming: the prediction split and the coefficient loop.

Contracts:

* the closed-loop prediction split (``prepare``/``encode_prepared`` on
  the spatial compressor, ``predict_residual``/``encode_residual`` on
  the time-series compressor, ``predict_step``/``encode_predicted`` on
  the stream writer) is *bit-identical* to the fused ``append`` path —
  containers, headers, and reconstructions;
* the loop, run on coefficients, writes the bytes the spatial loop
  (refactor ``frame - prev``, recompose every step) wrote, and every step of
  a 64-step chain reads back within ``tol``, under both kernel backends;
* a compressed stream written through the split (every step predicted
  ahead, then ``encode_predicted`` → ``commit_step`` in order) emits
  byte-identical step files to ``append`` for every executor backend,
  including ≥3-step code-book chains, and stays readable by a
  live-following consumer;
* Huffman class segments encoded as process-pool jobs (escape-reserving
  books, odd lengths, stats, guards) are bit-identical to serial;
* :meth:`StepStreamReader.refresh` rejects shrunken (torn mid-replace)
  manifest snapshots, so compressed-mode random access keeps rolling
  forward from the nearest key frame.
"""

import functools
import io
import json
import pickle
import threading

import numpy as np
import pytest

import repro.compress.huffman as H
from repro.compress.fileio import save_compressed
from repro.compress.huffman_book import build_code
from repro.compress.huffman_pack import _SYNC_BLOCK
from repro.compress.lossless import decode_classes, encode_classes
from repro.compress.mgard import MgardCompressor
from repro.compress.quantizer import Quantizer
from repro.compress.timeseries import TimeSeriesCompressor
from repro.core import native
from repro.core.decompose import recompose
from repro.core.grid import hierarchy_for
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError
from repro.parallel import get_executor

BACKEND_SPECS = ("serial", "thread:4", "process:2")


def drifting_frames(rng, shape=(17, 17), n=8, amp=0.04):
    base = rng.standard_normal(shape).cumsum(0).cumsum(1)
    drift = np.roll(base, 1, axis=0) * amp
    return [base + t * drift for t in range(n)], base


# ----------------------------------------------------------------------
# the prediction split, layer by layer


class TestPredictionSplit:
    def test_prepare_encode_equals_compress(self, rng):
        data = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        tol = 1e-3 * float(np.abs(data).max())
        comp = MgardCompressor(hierarchy_for(data.shape), tol, backend="huffman")
        fused = comp.compress(data)
        split = comp.encode_prepared(comp.prepare(data))
        assert fused.payloads == split.payloads
        assert json.dumps(fused.headers) == json.dumps(split.headers)
        assert fused.steps == split.steps

    def test_key_step_loop_state_recomposes_to_decompress(self, rng):
        data = rng.standard_normal((9, 9, 9)).cumsum(0)
        tol = 1e-2 * float(np.abs(data).max())
        tsc = TimeSeriesCompressor(hierarchy_for(data.shape), tol)
        blob, is_key = tsc.append(data)
        recon = recompose(tsc._coeff_sum, tsc.hier)
        # entropy coding is lossless, so the loop state of a key step must
        # recompose to the full round trip *bit for bit*, not just within tol
        assert is_key
        np.testing.assert_array_equal(recon, MgardCompressor(tsc.hier, tol).decompress(blob))
        assert np.abs(recon - data).max() <= tol

    def test_prepare_rejects_wrong_shape_on_encode(self, rng):
        a = MgardCompressor(hierarchy_for((17, 17)), 1e-3)
        b = MgardCompressor(hierarchy_for((33, 17)), 1e-3)
        prep = a.prepare(rng.standard_normal((17, 17)))
        with pytest.raises(ValueError, match="shape"):
            b.encode_prepared(prep)

    def test_timeseries_split_equals_fused(self, rng):
        frames, base = drifting_frames(rng, n=9)
        tol = 1e-3 * float(np.abs(base).max())
        hier = hierarchy_for(base.shape)

        fused = TimeSeriesCompressor(hier, tol, key_interval=4, backend="huffman")
        split = TimeSeriesCompressor(hier, tol, key_interval=4, backend="huffman")
        for t, frame in enumerate(frames):
            blob_f, key_f = fused.append(frame)
            plan = split.predict_residual(frame)
            assert plan.index == t
            blob_s, key_s = split.encode_residual(plan)
            assert key_f == key_s
            assert blob_f.payloads == blob_s.payloads
            assert json.dumps(blob_f.headers) == json.dumps(blob_s.headers)

    def test_prediction_runs_ahead_of_encode(self, rng):
        """The decoded-feedback dependency lives only in the predict
        half: all frames can be predicted before any is encoded."""
        frames, base = drifting_frames(rng, n=6)
        tol = 1e-3 * float(np.abs(base).max())
        hier = hierarchy_for(base.shape)
        ref = TimeSeriesCompressor(hier, tol, key_interval=3, backend="huffman")
        ahead = TimeSeriesCompressor(hier, tol, key_interval=3, backend="huffman")
        plans = [ahead.predict_residual(f) for f in frames]  # all up front
        for frame, plan in zip(frames, plans):
            blob_f, _ = ref.append(frame)
            blob_a, _ = ahead.encode_residual(plan)
            assert blob_f.payloads == blob_a.payloads
            assert json.dumps(blob_f.headers) == json.dumps(blob_a.headers)

    def test_chain_accumulated_in_place_keeps_the_bits(self, rng, tmp_path):
        """The compressor's loop state is the running sum of the blobs'
        de-quantized coefficients; series decode and stream reader sum the
        chain into the freshly decoded array — the frames must equal ``prev +
        delta`` written out, and no frame handed out may be overwritten by a
        later one."""
        frames, base = drifting_frames(rng, n=7)
        tol = 1e-3 * float(np.abs(base).max())
        hier = hierarchy_for(base.shape)
        tsc = TimeSeriesCompressor(hier, tol, key_interval=3)
        spatial = MgardCompressor(hier, tol)
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=3)
        blobs, keys = [], []
        coeff_sum = None
        for frame in frames:
            blob, is_key = tsc.encode_residual(tsc.predict_residual(frame))
            blobs.append(blob)
            keys.append(is_key)
            w.append(frame)
            deq = Quantizer.dequantize_refactored(
                *decode_classes(blob.payloads[0], blob.headers[0]), blob.steps, hier)
            coeff_sum = deq if is_key else coeff_sum + deq
            assert np.array_equal(tsc._coeff_sum, coeff_sum)
        want, prev = [], None
        for blob, is_key in zip(blobs, keys):
            delta = spatial.decompress(blob)
            prev = delta if is_key else prev + delta
            want.append(prev)
        assert keys.count(False) >= 4
        series = tsc.compress(frames)
        got = tsc.decompress(series)
        reader = StepStreamReader(tmp_path)
        read = [reader.read_step(t) for t in range(len(frames))]
        for t, frame in enumerate(want):
            assert np.array_equal(got[t], frame)
            assert np.array_equal(read[t], frame)
            assert np.abs(frame - frames[t]).max() <= tol


def _spatial_loop(frames, hier, tol, key_interval, backend):
    """The closed loop as it ran in space: refactor ``frame - prev`` and
    recompose each step's de-quantized coefficients into ``prev``."""
    spatial = MgardCompressor(hier, tol, backend=backend)
    scratch, prev, rebase, blobs = {} if backend == "huffman" else None, None, False, []
    for t, frame in enumerate(frames):
        is_key = t % key_interval == 0
        prep = spatial.prepare(np.ascontiguousarray(frame if is_key else frame - prev))
        recon = recompose(Quantizer.dequantize_refactored(prep.bins, prep.sizes, prep.steps, hier), hier)
        prev = recon if is_key else prev + recon
        blobs.append(spatial.encode_prepared(prep, scratch=scratch, refresh=is_key or rebase,
                                             context="key" if is_key else "delta"))
        rebase = is_key
    return blobs


def _noisy_f32_frames(rng, shape=(9, 9, 9), n=64):
    frames, base = drifting_frames(rng, shape, n=n)
    return [(f + 1e-3 * rng.standard_normal(shape)).astype(np.float32) for f in frames], base


@pytest.fixture(params=["reference", "native"])
def kernel_backend(request):
    """Every leaf of the process (the thread executor's workers too) under one backend."""
    if request.param == "native" and not native.available():
        pytest.skip("no C compiler on this host")
    native.set_kernel_backend(request.param)
    yield request.param
    native.set_kernel_backend(None)


class TestCoefficientLoop:
    """The loop on coefficients against the spatial loop it replaced: the same
    bytes, and every step of a 64-step chain within ``tol``."""

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-10])
    @pytest.mark.parametrize("frames_kind", ["f64", "f32"])
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    @pytest.mark.parametrize("key_interval", [4, 64])
    def test_bytes_equal_the_spatial_loop_and_the_chain_keeps_the_bound(
            self, tmp_path, kernel_backend, frames_kind, rel_tol, backend, key_interval):
        rng = np.random.default_rng([29, key_interval])
        n = 64 if key_interval == 64 else 16  # one 64-step chain; four short ones
        if frames_kind == "f64":
            frames, base = drifting_frames(rng, (9, 9, 9), n=n)
        else:
            frames, base = _noisy_f32_frames(rng, n=n)
        tol = rel_tol * float(base.max() - base.min())
        # a float32 key frame is refactored in float32, whose rounding alone is
        # ~1e-7 of the range: below that no loop, in space or on coefficients,
        # can keep the bound, so there the bytes are all that is compared
        bounded = frames_kind == "f64" or rel_tol >= 1e-6
        hier = hierarchy_for(base.shape)
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, backend=backend, key_interval=key_interval)
        for frame in frames:
            w.append(frame)
        reader = StepStreamReader(tmp_path)
        for t, (frame, blob) in enumerate(zip(frames, _spatial_loop(frames, hier, tol, key_interval,
                                                                    backend))):
            buf = io.BytesIO()
            save_compressed(buf, blob, materialize=False)
            assert (tmp_path / f"step_{t:06d}.mgz").read_bytes() == buf.getvalue(), t
            assert not bounded or np.abs(reader.read_step(t) - frame).max() <= tol, t


# ----------------------------------------------------------------------
# compressed streams through the split: bit identity + live reader


class TestPipelinedCompressedStream:
    @pytest.mark.parametrize("spec", BACKEND_SPECS)
    def test_pipelined_equals_fused_per_backend(self, rng, tmp_path, spec):
        """Every step predicted ahead, then encode → commit in order,
        emits the same bytes as fused append, for every codec backend —
        across a key interval long enough for ≥3-step code-book
        chains (key, then 5 chained residual steps)."""
        frames, base = drifting_frames(rng, n=7, amp=0.06)
        tol = 1e-3 * float(np.abs(base).max())

        fused_dir = tmp_path / f"fused-{spec.replace(':', '_')}"
        fused = StepStreamWriter(
            fused_dir, base.shape, tol=tol, key_interval=6, executor=spec
        )
        for f in frames:
            fused.append(f)

        split_dir = tmp_path / f"split-{spec.replace(':', '_')}"
        split = StepStreamWriter(
            split_dir, base.shape, tol=tol, key_interval=6, executor=spec
        )
        preds = [split.predict_step(f) for f in frames]
        for pred in preds:
            split.commit_step(split.encode_predicted(pred))
        for t in range(len(frames)):
            name = f"step_{t:06d}.mgz"
            assert (split_dir / name).read_bytes() == (
                fused_dir / name
            ).read_bytes(), f"{spec}: step {t} differs"
        # chain actually contains table references (not all full tables)
        reader = StepStreamReader(split_dir)
        for t in range(len(frames)):
            assert np.abs(reader.read_step(t) - frames[t]).max() <= tol

    def test_delta_chain_headers_reference_books(self, rng, tmp_path):
        """The non-key steps of a steady drift reference the books of its
        large classes (``table_ref``) instead of shipping a fresh one each."""
        frames, base = drifting_frames(rng, (65, 65), n=6)
        tol = 1e-3 * float(np.abs(base).max())
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=6)
        preds = [w.predict_step(f) for f in frames]
        for pred in preds:
            w.commit_step(w.encode_predicted(pred))
        from repro.compress.fileio import load_compressed

        refs = 0
        for t in range(2, 6):  # steps 2.. ride the chain re-based at 1
            blob, _ = load_compressed(tmp_path / f"step_{t:06d}.mgz")
            for seg in blob.headers[0]["segments"]:
                if "table_ref" in seg:
                    refs += 1
        assert refs > 0

    def test_reader_follows_live_pipelined_producer(self, rng, tmp_path):
        frames, base = drifting_frames(rng, n=8)
        tol = 1e-3 * float(np.abs(base).max())
        writer = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=3)
        started = threading.Event()

        def produce():
            started.set()
            for frame in frames:
                writer.commit_step(writer.encode_predicted(writer.predict_step(frame)))

        worker = threading.Thread(target=produce)
        worker.start()
        try:
            started.wait(timeout=30)
            reader = None
            seen = 0
            deadline = 300
            while seen < len(frames) and deadline:
                if reader is None:
                    try:
                        reader = StepStreamReader(tmp_path)
                    except StreamError:
                        pass  # manifest not yet written
                else:
                    n = reader.refresh()
                    while seen < n:
                        field = reader.read_step(seen)
                        assert np.abs(field - frames[seen]).max() <= tol
                        seen += 1
                if seen < len(frames):
                    deadline -= 1
                    threading.Event().wait(0.01)
        finally:
            worker.join(timeout=60)
        assert seen == len(frames)
        assert not worker.is_alive()

    def test_predict_step_requires_compressed_stream(self, rng, tmp_path):
        base = rng.standard_normal((17, 17))
        w = StepStreamWriter(tmp_path, base.shape)  # refactored
        with pytest.raises(StreamError, match="compressed"):
            w.predict_step(base)
        with pytest.raises(StreamError, match="compressed"):
            w.encode_predicted(None)


# ----------------------------------------------------------------------
# Huffman segments encoded as process-pool jobs


def _skewed(rng, n):
    """Geometric magnitudes with random signs, like quantizer output."""
    return (rng.geometric(0.3, n).astype(np.int64) - 1) * rng.choice([-1, 1], n)


def _escaping_segments(rng, n):
    """One escape-reserving book and three odd-length segments of it,
    dotted with symbols the book only reaches through its escape."""
    code = build_code(_skewed(rng, n // 2), reserve_escape=True)
    segs = []
    for k in range(3):
        vals = _skewed(rng, n + k)
        vals[:: n // 64] = rng.integers(2**50, 2**60, vals[:: n // 64].size)
        segs.append(vals)
    return code, segs


class TestProcessHuffmanEncode:
    def test_bit_identical_odd_length_with_escapes(self, rng):
        code, segs = _escaping_segments(rng, (1 << 16) + 1234)  # wide, not sync-aligned
        encode = functools.partial(H.huffman_encode, code=code)
        pickle.dumps(encode)  # crosses the process boundary, not inline
        serial = [encode(v) for v in segs]
        pooled = get_executor("process:2").map(encode, segs)
        for (ps, hs), (pp, hp), vals in zip(serial, pooled, segs):
            assert ps == pp
            assert json.dumps(hs) == json.dumps(hp)
            np.testing.assert_array_equal(H.huffman_decode(pp, hp), vals)

    def test_escapes_and_guard_parity(self, rng):
        code, segs = _escaping_segments(rng, 1 << 16)
        serial = [H.huffman_encode(v, code=code) for v in segs]
        pooled = get_executor("thread:2").map(lambda v: H.huffman_encode(v, code=code), segs)
        assert serial == pooled
        for (payload, header), vals in zip(pooled, segs):
            # the escapes are in the bit count: 64 raw bits behind each ESCAPE code
            in_book = np.isin(vals, code.symbols)
            coded = code.lengths[np.searchsorted(code.symbols, vals[in_book])].sum()
            n_esc = (~in_book).sum()
            assert n_esc > 0 and header["bits"] == coded + n_esc * (code.esc_len + 64)
        tight = functools.partial(
            H.huffman_encode, code=code, guard={"max_bits_per_symbol": 0.01}
        )
        assert get_executor("process:2").map(tight, segs) == [(None, None)] * len(segs)

    def test_escapeless_book_raises_through_pool(self):
        code = build_code(np.arange(8, dtype=np.int64))
        alien = [np.full(2 * _SYNC_BLOCK + k, 99, dtype=np.int64) for k in range(2)]
        proc = get_executor("process:2")
        with pytest.raises(ValueError, match="escape"):
            proc.map(functools.partial(H.huffman_encode, code=code), alien)
        # ... and the guard turns the same condition into a rebuild signal
        guarded = functools.partial(
            H.huffman_encode, code=code, guard={"max_bits_per_symbol": 64}
        )
        assert proc.map(guarded, alien) == [(None, None)] * len(alien)

    def test_process_encode_equals_serial(self, rng):
        sizes = [_SYNC_BLOCK + 7, 3 * _SYNC_BLOCK + 1, 5]
        bins = _skewed(rng, sum(sizes))
        for backend in ("huffman", "zlib"):
            want = encode_classes(bins, sizes, backend=backend)
            assert encode_classes(
                bins, sizes, backend=backend, executor=get_executor("process:2")
            ) == want


# ----------------------------------------------------------------------
# torn-manifest tolerance on the random-access path


class TestReaderShrunkenManifest:
    def _stream(self, rng, tmp_path, n=7):
        frames, base = drifting_frames(rng, n=n)
        tol = 1e-3 * float(np.abs(base).max())
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=3)
        for f in frames:
            w.append(f)
        return frames, tol

    def test_shrunken_snapshot_kept_and_random_access_rolls(self, rng, tmp_path):
        frames, tol = self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        assert np.abs(reader.read_step(6) - frames[6]).max() <= tol

        manifest = tmp_path / "manifest.json"
        full = manifest.read_text()
        doc = json.loads(full)
        doc["steps"] = doc["steps"][:4]  # mid-replace stale view
        manifest.write_text(json.dumps(doc))
        assert reader.refresh() == len(frames)  # longer snapshot kept
        # random access past the shrunken view still rolls from the
        # nearest key frame (step 3 here), through undamaged step files
        assert np.abs(reader.read_step(5) - frames[5]).max() <= tol
        manifest.write_text(full)
        assert reader.refresh() == len(frames)
        assert np.abs(reader.read_step(6) - frames[6]).max() <= tol

    def test_torn_text_then_random_access(self, rng, tmp_path):
        frames, tol = self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        manifest = tmp_path / "manifest.json"
        full = manifest.read_text()
        manifest.write_text(full[: len(full) // 2])  # torn JSON
        assert reader.refresh() == len(frames)
        assert np.abs(reader.read_step(4) - frames[4]).max() <= tol
        manifest.write_text(full)

    def test_persistently_shrunken_stream_raises(self, rng, tmp_path):
        frames, _ = self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["steps"] = doc["steps"][:2]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(StreamError, match="behind"):
            for _ in range(20):
                reader.refresh()

    def test_growth_resets_failure_count(self, rng, tmp_path):
        frames, _ = self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        manifest = tmp_path / "manifest.json"
        full = manifest.read_text()
        doc = json.loads(full)
        doc["steps"] = doc["steps"][:3]
        shrunk = json.dumps(doc)
        for _ in range(5):
            manifest.write_text(shrunk)
            assert reader.refresh() == len(frames)
            manifest.write_text(full)
            assert reader.refresh() == len(frames)  # healthy poll resets
