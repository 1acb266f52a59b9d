"""Parallel encode executor + cross-step code-book reuse.

Three contracts:

* the parallel encode/decode paths are *bit-identical* to the serial
  ones (payloads, headers, and the code-book chains of reusing
  streams), on adversarial class mixes;
* code books are reused across stream steps (a ``table_ref`` instead of
  the book) and decode exactly from the reader's own chain;
* a :class:`StepStreamReader` can follow a producer that is still
  appending.
"""

import json
import zlib

import numpy as np
import pytest

from repro.parallel import executors
from repro.parallel.executors import (
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    set_default_executor,
)
from repro.compress.lossless import (
    decode_classes,
    encode_classes,
    materialize_classes_header,
)
from repro.compress.mgard import MgardCompressor
from repro.compress.timeseries import TimeSeriesCompressor
from repro.core.grid import hierarchy_for
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError


def _par(n=4):
    return ThreadExecutor(n)


def _adversarial_class_mixes(rng):
    """(name, bins, sizes) cases stressing the segmented container."""
    big = (1 << 16) + 321  # a class well past one sync block's 512 symbols
    yield "empty-classes", np.zeros(0, dtype=np.int64), [0, 0, 0]
    yield (
        "single-values",
        np.array([7, -3], dtype=np.int64),
        [1, 0, 1],
    )
    skew = (rng.geometric(0.3, big).astype(np.int64) - 1) * rng.choice([-1, 1], big)
    yield "one-dominant-class", np.concatenate(
        [rng.integers(-4, 5, 100).astype(np.int64), skew]
    ), [100, big]
    skew = skew.copy()  # > 4096 distinct outliers: past the table, so escaped
    skew[::13] = rng.integers(-(2**60), 2**60, skew[::13].size)
    yield "dominant-class-with-escapes", np.concatenate(
        [rng.integers(-4, 5, 100).astype(np.int64), skew]
    ), [100, big]
    esc = rng.integers(-(2**60), 2**60, 5000).astype(np.int64)
    yield "escape-heavy-class", np.concatenate(
        [np.zeros(64, dtype=np.int64), esc, np.full(4097, 42, dtype=np.int64)]
    ), [64, 5000, 4097]
    mixed = [
        rng.integers(-2, 3, 8).astype(np.int64),
        np.zeros(0, dtype=np.int64),
        rng.integers(-300, 300, 600).astype(np.int64),
        (rng.geometric(0.5, big).astype(np.int64) - 1),
        np.full(1, -(2**62), dtype=np.int64),
    ]
    yield "mixed", np.concatenate(mixed), [len(m) for m in mixed]


class TestParallelSerialBitIdentity:
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_adversarial_class_mixes(self, rng, backend):
        par = _par()
        for name, bins, sizes in _adversarial_class_mixes(rng):
            p_s, h_s = encode_classes(bins, sizes, backend=backend)
            p_p, h_p = encode_classes(bins, sizes, backend=backend, executor=par)
            assert p_s == p_p, (name, backend)
            assert h_s == h_p, (name, backend)
            assert "segments" in h_s and len(h_s["segments"]) == len(sizes)
            flat_s, got_s = decode_classes(p_s, h_s)
            flat_p, got_p = decode_classes(p_p, h_p, executor=par)
            assert got_s == got_p == [int(s) for s in sizes]
            np.testing.assert_array_equal(flat_s, bins, err_msg=name)
            np.testing.assert_array_equal(flat_p, bins, err_msg=name)

    def test_reusing_chains_are_executor_independent(self, rng):
        """Serial and parallel scratch chains evolve identically."""
        sizes = [50, 3000, 20000]
        streams = [
            np.concatenate(
                [rng.integers(-3 - t, 4 + t, s).astype(np.int64) for s in sizes]
            )
            for t in range(4)
        ]
        scr_s, scr_p = {}, {}
        par = _par()
        for t, bins in enumerate(streams):
            p_s, h_s = encode_classes(
                bins, sizes, backend="huffman", scratch=scr_s, refresh=(t == 0)
            )
            p_p, h_p = encode_classes(
                bins, sizes, backend="huffman", scratch=scr_p, refresh=(t == 0),
                executor=par,
            )
            assert p_s == p_p and h_s == h_p, t

    def test_compressor_roundtrip_with_parallel_executor(self, rng):
        shape = (33, 33)
        data = rng.standard_normal(shape).cumsum(0).cumsum(1)
        comp = MgardCompressor(hierarchy_for(shape), 1e-3, backend="huffman",
                               executor="parallel:3")
        blob = comp.compress(data)
        assert np.abs(comp.decompress(blob) - data).max() <= 1e-3
        serial = MgardCompressor(hierarchy_for(shape), 1e-3, backend="huffman")
        blob_s = serial.compress(data)
        assert blob.payloads == blob_s.payloads
        assert blob.headers == blob_s.headers


class TestExecutorSelection:
    def test_specs(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        par = get_executor("parallel:5")
        assert isinstance(par, ThreadExecutor) and par.max_workers == 5
        assert get_executor("parallel:5") is par  # shared instance
        with pytest.raises(ValueError):
            get_executor("bogus")
        with pytest.raises(ValueError):
            get_executor("parallel:0")

    def test_one_pool_per_thread_count(self, monkeypatch):
        # auto and thread resolve to the host's worker count: the pool
        # thread:N names, not a second one beside it
        monkeypatch.setattr(executors, "available_workers", lambda: 3)
        pool = get_executor("thread:3")
        assert get_executor("thread") is pool
        assert get_executor("auto") is pool
        assert get_executor("parallel") is pool
        assert get_executor("process") is get_executor("process:3")

    def test_default_knob(self):
        set_default_executor("parallel:2")
        try:
            ex = get_executor()
            assert isinstance(ex, ThreadExecutor) and ex.max_workers == 2
        finally:
            set_default_executor(None)
        assert isinstance(get_executor("serial"), SerialExecutor)

    def test_compressor_carries_executor_spec(self):
        c1 = MgardCompressor(hierarchy_for((17, 17)), 1e-3, executor="serial")
        c2 = MgardCompressor(hierarchy_for((17, 17)), 1e-3, executor="parallel:2")
        assert isinstance(c1.executor, SerialExecutor)
        assert isinstance(c2.executor, ThreadExecutor)
        assert get_executor(c2.executor) is c2.executor  # instances pass through


class TestCodeBookReuse:
    def test_stream_reuses_codebooks(self, rng):
        """A slowly-varying 3+ step stream emits refs, decodes exactly."""
        sizes = [400, 30000]
        base = np.concatenate(
            [rng.integers(-6, 7, s).astype(np.int64) for s in sizes]
        )
        steps = [base.copy() for _ in range(5)]
        for t, b in enumerate(steps[1:], start=1):
            # sparse drift: a few positions change value
            idx = rng.integers(0, b.size, 50)
            b[idx] += rng.integers(-1, 2, 50)
        scratch, dec = {}, {}
        kinds = []
        for t, bins in enumerate(steps):
            p, h = encode_classes(
                bins, sizes, backend="huffman", scratch=scratch, refresh=(t == 0)
            )
            flat, _ = decode_classes(p, h, scratch=dec)
            np.testing.assert_array_equal(flat, bins, err_msg=str(t))
            kinds.append(
                ["ref" if "table_ref" in s else "full" for s in h["segments"]]
            )
        # after the first step the dominant class reuses its book
        assert any("ref" in k for k in kinds[1:])

    def test_unresolvable_ref_raises(self, rng):
        sizes = [2000]
        bins = rng.integers(-5, 6, 2000).astype(np.int64)
        scratch = {}
        encode_classes(bins, sizes, backend="huffman", scratch=scratch, refresh=True)
        p, h = encode_classes(bins, sizes, backend="huffman", scratch=scratch)
        if any("table_ref" in s for s in h["segments"]):
            with pytest.raises(ValueError, match="key frame|table"):
                decode_classes(p, h)  # no scratch: chain unknown

    def test_materialize_refuses_a_header_with_references(self, rng):
        sizes = [2000]
        bins = rng.integers(-5, 6, 2000).astype(np.int64)
        scratch = {}
        p0, h0 = encode_classes(bins, sizes, backend="huffman", scratch=scratch,
                                refresh=True)
        assert materialize_classes_header(h0) is h0  # every book shipped: standalone
        p, h = encode_classes(bins, sizes, backend="huffman", scratch=scratch)
        assert any("table_ref" in s for s in h["segments"])
        with pytest.raises(ValueError, match="key frame"):
            materialize_classes_header(h)

    def test_code_book_chain_caches_are_pruned(self, rng):
        """Long streams must not grow the decode caches without bound."""
        sizes = [3000]
        scratch, dec = {}, {}
        for t in range(40):
            # force a rebuild every step: fresh disjoint alphabets
            bins = (rng.integers(0, 50, 3000) + 100 * t).astype(np.int64)
            p, h = encode_classes(
                bins, sizes, backend="huffman", scratch=scratch, refresh=(t == 0)
            )
            flat, _ = decode_classes(p, h, scratch=dec)
            np.testing.assert_array_equal(flat, bins)
        from repro.compress.lossless import _TABLE_CHAIN_WINDOW

        assert len(dec.get("decode_tables", {})) <= _TABLE_CHAIN_WINDOW

    def test_compressors_do_not_share_scratch(self, rng):
        hier = hierarchy_for((17, 17))
        a = TimeSeriesCompressor(hier, 1e-3, backend="huffman")
        b = TimeSeriesCompressor(hier, 1e-3, backend="huffman")
        assert a._scratch is not b._scratch

    def test_timeseries_reuse_ships_references_and_keeps_the_bound(self, rng):
        """With reuse, non-key steps reference the books they reuse
        instead of shipping them; either way every frame keeps the bound.
        (A packed book costs tens of bytes, so reuse no longer saves
        bytes overall: it saves the book builds.)"""
        shape = (33, 33)
        base = rng.standard_normal(shape).cumsum(0).cumsum(1)
        drift = rng.standard_normal(shape).cumsum(1) * 0.01
        frames = [base + t * drift for t in range(8)]
        tol = 1e-3 * float(base.max() - base.min())
        hier = hierarchy_for(shape)
        for reuse in (True, False):
            series = TimeSeriesCompressor(
                hier, tol, backend="huffman", reuse_codebooks=reuse
            ).compress(frames)
            refs = sum("table_ref" in sh for blob in series.frames
                       for sh in blob.headers[0]["segments"])
            assert (refs > 0) == reuse
            tsd = TimeSeriesCompressor(hier, tol, backend="huffman")
            for orig, rec in zip(frames, tsd.decompress(series)):
                assert np.abs(rec - orig).max() <= tol


class TestStreamBehindProducer:
    def _frames(self, rng, n, shape=(17, 17)):
        base = rng.standard_normal(shape).cumsum(0).cumsum(1)
        return [base * (1 + 0.02 * t) for t in range(n)], base

    def test_reader_follows_mid_append(self, rng, tmp_path):
        frames, base = self._frames(rng, 7)
        tol = 1e-3 * float(np.abs(base).max())
        writer = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=3)
        for t in range(4):
            writer.append(frames[t], time=float(t))
        reader = StepStreamReader(tmp_path)
        assert reader.stream_mode == "compressed"
        assert reader.n_steps == 4
        assert np.abs(reader.read_step(3) - frames[3]).max() <= tol
        # producer keeps appending; the reader refreshes and catches up
        for t in range(4, 7):
            writer.append(frames[t], time=float(t))
            assert reader.refresh() == t + 1
            assert np.abs(reader.read_step(t) - frames[t]).max() <= tol
        # random access backward re-rolls from a key frame
        assert np.abs(reader.read_step(1) - frames[1]).max() <= tol

    def test_refactored_mode_reader_follows_too(self, rng, tmp_path):
        frames, base = self._frames(rng, 3)
        writer = StepStreamWriter(tmp_path, base.shape)
        writer.append(frames[0])
        reader = StepStreamReader(tmp_path)
        assert reader.n_steps == 1
        writer.append(frames[1])
        assert reader.refresh() == 2
        field, _ = reader.read(1, k=reader.hier.L + 1)
        np.testing.assert_allclose(field, frames[1], atol=1e-9)

    def test_mode_guards(self, rng, tmp_path):
        frames, base = self._frames(rng, 2)
        tol = 1e-3 * float(np.abs(base).max())
        writer = StepStreamWriter(tmp_path, base.shape, tol=tol)
        writer.append(frames[0])
        reader = StepStreamReader(tmp_path)
        with pytest.raises(StreamError):
            reader.read(0, k=1)
        with pytest.raises(StreamError):
            StepStreamWriter(tmp_path, base.shape)  # mode mismatch

    def test_reader_survives_producer_restart_id_collision(self, rng):
        """A restarted producer re-numbers table ids from 0; a reader
        that kept its scratch must not decode with the stale books."""
        sizes = [3000]
        dec = {}
        first = rng.integers(-5, 6, 3000).astype(np.int64)
        scratch_a = {}
        p, h = encode_classes(first, sizes, backend="huffman",
                              scratch=scratch_a, refresh=True)
        np.testing.assert_array_equal(decode_classes(p, h, scratch=dec)[0], first)
        # "restart": a fresh encoder scratch restarts ids at 0 with a
        # completely different alphabet
        second = (rng.integers(0, 50, 3000) + 1000).astype(np.int64)
        scratch_b = {}
        p2, h2 = encode_classes(second, sizes, backend="huffman",
                                scratch=scratch_b, refresh=True)
        flat, _ = decode_classes(p2, h2, scratch=dec)  # same reader scratch
        np.testing.assert_array_equal(flat, second)
        # and references into the new chain resolve with the new book
        p3, h3 = encode_classes(second, sizes, backend="huffman", scratch=scratch_b)
        flat3, _ = decode_classes(p3, h3, scratch=dec)
        np.testing.assert_array_equal(flat3, second)

    def test_writer_reopen_rejects_changed_settings(self, rng, tmp_path):
        frames, base = self._frames(rng, 2)
        tol = 1e-3 * float(np.abs(base).max())
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=4)
        w.append(frames[0])
        with pytest.raises(StreamError, match="tol"):
            StepStreamWriter(tmp_path, base.shape, tol=tol * 10, key_interval=4)
        with pytest.raises(StreamError, match="key_interval"):
            StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=2)
        with pytest.raises(StreamError, match="backend"):
            StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=4,
                             backend="zlib")

    def test_writer_reopen_continues_stream(self, rng, tmp_path):
        frames, base = self._frames(rng, 4)
        tol = 1e-3 * float(np.abs(base).max())
        w1 = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=2)
        w1.append(frames[0])
        w1.append(frames[1])
        w2 = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=2)
        assert w2.n_steps == 2
        w2.append(frames[2])
        reader = StepStreamReader(tmp_path)
        for t in range(3):
            assert np.abs(reader.read_step(t) - frames[t]).max() <= tol

    def test_writer_reopen_in_process_restarts_huffman_chain(self, rng, tmp_path):
        """A writer reopened in the same process starts a fresh code-book
        chain at a key step, its table ids from 0 again; a follower that
        kept its decode scratch across the reopen reads what a fresh
        reader does."""
        frames, base = self._frames(rng, 12)
        tol = 1e-3 * float(np.abs(base).max())
        w1 = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=4,
                              backend="huffman")
        for t in range(6):
            w1.append(frames[t], time=float(t))
        follower = StepStreamReader(tmp_path)
        seen = [follower.read_step(t) for t in range(6)]
        w2 = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=4,
                              backend="huffman")
        for t in range(6, 12):
            w2.append(frames[t], time=float(t))
            assert follower.refresh() == t + 1
            seen.append(follower.read_step(t))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["steps"][6]["is_key"]
        fresh = StepStreamReader(tmp_path, cache_steps=0)
        for t in range(12):
            np.testing.assert_array_equal(fresh.read_step(t), seen[t], err_msg=str(t))
            assert np.abs(seen[t] - frames[t]).max() <= tol, t
        for t in (11, 7, 9, 6, 3):
            np.testing.assert_array_equal(fresh.read_step(t), seen[t], err_msg=str(t))


class TestSingleGeneration:
    """Only ``format: 4`` decodes: the pre-``format: 2`` single-stream
    layout, ``format: 2``'s JSON code tables and sync lists, and
    ``format: 3``'s interleaved zlib bytes are refused, not guessed at."""

    def test_header_without_segments_is_refused(self, rng):
        sizes = [9, 100]
        bins = rng.integers(-300, 300, sum(sizes)).astype(np.int64)
        payload, header = encode_classes(bins, sizes, backend="zlib")
        del header["segments"]
        with pytest.raises(ValueError, match="segments"):
            decode_classes(payload, header)

    @staticmethod
    def _format_2(rng):
        """A Huffman blob as ``format: 2`` wrote it: the book a JSON
        ``table`` and the sync offsets a JSON ``sync`` list in the
        segment row, the payload the bare bitstream."""
        from huffman_oracle import encode_with_book

        vals = rng.integers(0, 2, 3 * 512 + 9).astype(np.int64)
        bitstream, bits, sync = encode_with_book(vals, {0: 1, 1: 1})
        segment = {"offset": 0, "nbytes": len(bitstream), "n": int(vals.size), "bits": bits,
                   "table": [[0, 1], [1, 1]], "sync": sync}
        header = {"backend": "huffman", "format": 2, "n": int(vals.size),
                  "class_sizes": [int(vals.size)], "segments": [segment]}
        return bitstream, header

    def test_format_2_is_refused_never_misread(self, rng):
        payload, header = self._format_2(rng)
        with pytest.raises(ValueError, match="format 2 is not 4"):
            decode_classes(payload, header)
        # relabelled, its rows still hold keys format 4 has no meaning for
        with pytest.raises(ValueError, match="not a huffman segment row"):
            decode_classes(payload, {**header, "format": 4})
        for extra in ({"table_delta": {}}, {"sync": []}, {"table": []}):
            good_payload, good = encode_classes(np.arange(600) % 7, [600], backend="huffman")
            good["segments"][0].update(extra)
            with pytest.raises(ValueError, match="not a huffman segment row"):
                decode_classes(good_payload, good)

    def test_format_3_zlib_is_refused_never_misread(self, rng):
        """``format: 3`` stored each narrowed class value by value; read
        as planes, those bytes would decode to wrong values silently."""
        vals = rng.integers(-300, 300, 500).astype(np.int64)
        payload = zlib.compress(vals.astype("<i2").tobytes())
        header = {"backend": "zlib", "format": 3, "n": int(vals.size),
                  "class_sizes": [int(vals.size)],
                  "segments": [{"offset": 0, "nbytes": len(payload), "dtype": "<i2"}]}
        with pytest.raises(ValueError, match="format 3 is not 4"):
            decode_classes(payload, header)

    @staticmethod
    def _quarantined(rng, tmp_path, backend, old):
        """Step 1 of a two-step stream relabelled ``format: old`` is
        quarantined, and its read serves step 0 within ``tol``."""
        frames = [rng.standard_normal((17, 17)).cumsum(0) * (1 + 0.01 * t) for t in range(2)]
        tol = 1e-3
        writer = StepStreamWriter(tmp_path, (17, 17), tol=tol, backend=backend)
        for f in frames:
            writer.append(f)
        path = tmp_path / "step_000001.mgz"
        data = path.read_bytes()
        assert data.count(b'"format": 4') == 1
        path.write_bytes(data.replace(b'"format": 4', b'"format": %d' % old))
        reader = StepStreamReader(tmp_path)
        served = reader.read_step(1)
        assert reader.last_recovery.degraded and reader.last_recovery.served == 0
        assert 1 in reader.quarantined and f"format {old}" in reader.quarantined[1]
        assert np.abs(served - frames[0]).max() <= tol

    def test_stream_quarantines_a_format_2_step(self, rng, tmp_path):
        self._quarantined(rng, tmp_path, "huffman", 2)

    def test_stream_quarantines_a_format_3_zlib_step(self, rng, tmp_path):
        self._quarantined(rng, tmp_path, "zlib", 3)


def _overlap(payload, segs):
    segs[1].update(offset=segs[0]["offset"], nbytes=segs[0]["nbytes"])
    return payload


def _gap(payload, segs):
    cut = segs[1]["offset"]
    segs[1]["offset"] += 5
    return payload[:cut] + bytes(5) + payload[cut:]


def _negative_offset(payload, segs):
    segs[0]["offset"] = -len(payload)  # slices the same bytes as 0 would
    return payload


def _overrun(payload, segs):
    segs[0]["nbytes"] = len(payload) + 10  # deflate ignores the trailing bytes
    return payload


class TestSegmentTable:
    """The segment table rides inside the container's one checksummed
    extent, so the decoder checks it: segments tile the payload from
    byte 0, back to back, inside it — or nothing is decoded."""

    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    @pytest.mark.parametrize("damage", [_overlap, _gap, _negative_offset, _overrun])
    def test_malformed_tables_are_refused(self, rng, backend, damage):
        sizes = [400, 400]  # equal sizes: an overlap would decode class 0 twice
        bins = rng.integers(-300, 300, sum(sizes)).astype(np.int64)
        payload, header = encode_classes(bins, sizes, backend=backend)
        header = json.loads(json.dumps(header))
        payload = damage(payload, header["segments"])
        with pytest.raises(ValueError, match="corrupt segment table"):
            decode_classes(payload, header)
