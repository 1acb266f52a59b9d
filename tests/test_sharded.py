"""Shard-parallel compression: partition planning, round-trips, streams.

* ``plan_shards`` balanced splits and the shard tolerance accounting;
* ``plan_shards`` → ``encode_shards`` → ``decode_shard`` round-trips on
  adversarial inputs (non-``2^k+1`` row counts, shard counts >= 3,
  1-row shards, float32 frames, tolerances near machine epsilon);
* byte-identity of shard containers across the serial/thread/process
  executor backends;
* sharded streams: manifest shard tables, ``read_region`` decoding
  only the covering shards (decode-call spy), typed errors from the
  reader's shard methods, and the writer's shard → encode → commit
  split;
* the read's fan-out: one open of the step file per read, covering
  shards decoded together on the host's shared thread pool with the
  same bytes and the same failure report as inline, no pool on one
  core, and no deadlock when the read runs inside one of the pool's jobs.
"""

import concurrent.futures
import json
import sys
import threading

import numpy as np
import pytest

from repro import frame
from repro.cluster.sharded import (
    ShardCodec,
    decode_shard,
    encode_shards,
    plan_shards,
    shard_tolerance,
)
from repro.core.classes import reconstruct_from_classes
from repro.core.grid import hierarchy_for
from repro.gpu.analytic import model_pass
from repro.gpu.device import V100
from repro.errors import ContainerError
from repro.io.container import ShardedFileReader, _classes
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError
from repro.parallel import executors


def _block_sizes(plan):
    return [b - a for a, b in zip(plan.starts, plan.stops)]


class TestShardPlanning:
    def test_balanced_split(self):
        plan = plan_shards((20, 9, 9), 3)
        assert _block_sizes(plan) == [7, 7, 6]
        assert plan.starts[0] == 0 and plan.stops[-1] == 20

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            plan_shards((8, 4), 0)
        with pytest.raises(ValueError):
            plan_shards((8, 4), 9)

    @pytest.mark.parametrize(
        "n0,n_shards",
        [(4, 3), (101, 50), (7, 2), (9, 4), (12, 5), (1000, 100), (3, 3), (17, 1)],
    )
    def test_plan_invariants(self, n0, n_shards):
        plan = plan_shards((n0, 8), n_shards)
        sizes = _block_sizes(plan)
        assert plan.shape == (n0, 8) and plan.n_blocks == n_shards
        assert plan.starts[0] == 0 and plan.stops[-1] == n0
        assert all(a == b for a, b in zip(plan.stops[:-1], plan.starts[1:]))
        # balanced, larger shards first
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        if 2 * n_shards <= n0:
            # every shard can keep >= 2 rows, so none is left with one
            assert min(sizes) >= 2, sizes

    def test_single_shard_is_whole_grid(self):
        plan = plan_shards([10, 4, 4], 1)
        assert plan.shape == (10, 4, 4)
        assert (plan.starts, plan.stops) == ((0,), (10,))

    def test_shard_tolerance_is_identity_for_linf(self):
        assert shard_tolerance(1e-3, 7) == 1e-3
        with pytest.raises(ValueError):
            shard_tolerance(0.0, 2)
        with pytest.raises(ValueError):
            shard_tolerance(1e-3, 0)


def _roundtrip(data, n_shards, tol=None, backend="zlib"):
    """``plan_shards`` → ``encode_shards`` → ``decode_shard`` per shard,
    placed by the plan; returns ``(plan, reconstruction)``."""
    plan = plan_shards(data.shape, n_shards)
    tol = None if tol is None else shard_tolerance(tol, n_shards)
    codec = ShardCodec(tol=tol, backend=backend)
    payloads = encode_shards(data, plan, codec, "serial")
    out = np.empty(data.shape)
    for payload, a, b in zip(payloads, plan.starts, plan.stops, strict=True):
        block = decode_shard(payload, codec.payload_mode)
        assert block.shape == (b - a,) + data.shape[1:]
        out[a:b] = block
    return plan, out


class TestShardedRoundTrip:
    @pytest.mark.parametrize("n_shards", [3, 4, 5])
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_adversarial_shapes(self, rng, n_shards, backend):
        # 19 rows: non-2^k+1, indivisible by most shard counts
        shape = (19, 7, 6)
        data = rng.standard_normal(shape)
        tol = 1e-3 * float(data.max() - data.min())
        plan, out = _roundtrip(data, n_shards, tol, backend)
        assert plan.n_blocks == n_shards
        assert float(np.abs(out - data).max()) <= tol

    def test_float32_input(self, rng):
        shape = (12, 9, 9)
        data = rng.standard_normal(shape).astype(np.float32)
        tol = 1e-4 * float(data.max() - data.min())
        _, out = _roundtrip(data, 3, tol)
        assert float(np.abs(out - data.astype(np.float64)).max()) <= tol

    def test_tol_near_machine_epsilon(self, rng):
        data = rng.standard_normal((9, 5, 5))
        tol = 1e-13
        _, out = _roundtrip(data, 3, tol, "huffman")
        assert float(np.abs(out - data).max()) <= tol

    def test_refactored_shards_lossless(self, rng):
        data = rng.standard_normal((14, 8, 8))
        _, out = _roundtrip(data, 4)
        np.testing.assert_allclose(out, data, atol=1e-9)

    @pytest.mark.parametrize("tol,backend", [
        (None, "zlib"), (1e-3, "zlib"), (1e-3, "huffman"),
        (1e-13, "zlib"), (1e-13, "huffman"),
    ])
    @pytest.mark.parametrize("shape,n_shards", [((3, 4, 4), 3), ((7, 5, 6), 4)])
    def test_one_row_shards_roundtrip(self, rng, shape, n_shards, tol, backend):
        # a 1-row shard cannot coarsen along axis 0, but it must still
        # reconstruct losslessly (refactored) and honour the error bound
        data = rng.standard_normal(shape)
        plan, out = _roundtrip(data, n_shards, tol, backend)
        assert min(_block_sizes(plan)) == 1
        if tol is None:
            np.testing.assert_allclose(out, data, atol=1e-9)
        else:
            assert float(np.abs(out - data).max()) <= tol

    def test_refactored_shards_hold_their_own_classes(self, rng):
        # each refactored shard is a full coefficient-class set of its
        # own hierarchy; recomposing every shard's classes gives the data
        data = rng.standard_normal((64, 17))
        plan = plan_shards(data.shape, 3)
        payloads = encode_shards(data, plan, ShardCodec(tol=None), "serial")
        out = np.empty(data.shape)
        for payload, a, b in zip(payloads, plan.starts, plan.stops, strict=True):
            hier = hierarchy_for((b - a,) + data.shape[1:])
            classes = _classes(frame.parse(payload, want=frame.RPRC))
            assert len(classes) == hier.L + 1
            out[a:b] = reconstruct_from_classes(classes, hier)
        np.testing.assert_allclose(out, data, atol=1e-9)

    def test_encode_rejects_wrong_shape(self, rng):
        plan = plan_shards((64, 17), 2)
        with pytest.raises(ValueError, match="expected shape"):
            encode_shards(rng.standard_normal((64, 16)), plan, ShardCodec(), "serial")

    def test_modeled_pass_per_shard(self):
        """Modeled time of a sharded refactoring: one ``model_pass`` per
        shard hierarchy, each a multi-launch pass."""
        plan = plan_shards((130, 33), 4)
        per_shard = [
            model_pass(hierarchy_for((b - a, 33)), V100)
            for a, b in zip(plan.starts, plan.stops)
        ]
        assert all(p.total_seconds > 0 and p.n_launches > 1 for p in per_shard)

    def test_global_bound_tightness_across_shards(self, rng):
        # each shard gets the *full* L-inf budget (disjoint domains):
        # shard errors must not be forced to sum below tol
        data = rng.standard_normal((18, 9, 9))
        tol = 1e-3
        plan, out = _roundtrip(data, 3, tol)
        per_shard = [
            float(np.abs(out[a:b] - data[a:b]).max())
            for a, b in zip(plan.starts, plan.stops)
        ]
        assert max(per_shard) <= tol


class TestBackendByteIdentity:
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_compressed_identical_across_executors(self, rng, backend):
        data = rng.standard_normal((20, 9, 9))
        plan = plan_shards(data.shape, 4)
        codec = ShardCodec(tol=1e-3, backend=backend)
        serial = encode_shards(data, plan, codec, "serial")
        thread = encode_shards(data, plan, codec, "thread:3")
        process = encode_shards(data, plan, codec, "process:2")
        assert serial == thread
        assert serial == process

    def test_refactored_identical_across_executors(self, rng):
        data = rng.standard_normal((15, 8, 8))
        plan = plan_shards(data.shape, 3)
        codec = ShardCodec(tol=None)
        serial = encode_shards(data, plan, codec, "serial")
        process = encode_shards(data, plan, codec, "process:2")
        assert serial == process

    def test_shard_payloads_self_contained(self, rng):
        # any single shard decodes without its siblings
        data = rng.standard_normal((12, 6, 6))
        plan = plan_shards(data.shape, 3)
        codec = ShardCodec(tol=1e-3)
        payloads = encode_shards(data, plan, codec, "serial")
        block = decode_shard(payloads[1], "compressed")
        a, b = plan.starts[1], plan.stops[1]
        assert block.shape == (b - a, 6, 6)
        assert float(np.abs(block - data[a:b]).max()) <= 1e-3


class TestShardedStreams:
    @pytest.fixture()
    def frames(self, rng):
        return [rng.standard_normal((20, 9, 9)) for _ in range(3)]

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_stream_roundtrip_and_manifest(self, frames, tmp_path, tol):
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, tol=tol, shards=4)
        for t, f in enumerate(frames):
            writer.append(f, time=float(t))
        manifest = json.loads((root / "manifest.json").read_text())
        assert len(manifest["shards"]) == 4
        assert all("shards" in s for s in manifest["steps"])
        reader = StepStreamReader(root)
        assert reader.shard_bounds == [(0, 5), (5, 10), (10, 15), (15, 20)]
        for t, f in enumerate(frames):
            out = reader.read_region(t)
            bound = tol if tol is not None else 1e-9
            assert float(np.abs(out - f).max()) <= bound

    def test_read_region_decodes_only_covering_shards(
        self, frames, tmp_path, monkeypatch
    ):
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4)
        for f in frames:
            writer.append(f)
        reader = StepStreamReader(root)
        decoded = []
        orig = StepStreamReader._decode_shard
        monkeypatch.setattr(
            StepStreamReader,
            "_decode_shard",
            lambda self, rd, i: decoded.append(i) or orig(self, rd, i),
        )
        # rows 6:9 live entirely in shard 1 (rows 5:10)
        region = reader.read_region(1, (slice(6, 9), slice(2, 7)))
        assert decoded == [1]
        assert region.shape == (3, 5, 9)
        assert float(np.abs(region - frames[1][6:9, 2:7]).max()) <= 1e-3
        # rows 4:16 straddle shards 0..3 (decoded together: any order)
        decoded.clear()
        reader.read_region(2, (slice(4, 16),))
        assert sorted(decoded) == [0, 1, 2, 3]

    def test_read_region_unsharded_fallback(self, frames, tmp_path):
        root = tmp_path / "mono"
        writer = StepStreamWriter(root, frames[0].shape, tol=1e-3)
        writer.append(frames[0])
        reader = StepStreamReader(root)
        out = reader.read_region(0, (slice(3, 8),))
        assert float(np.abs(out - frames[0][3:8]).max()) <= 1e-3

    def test_read_region_validation(self, frames, tmp_path):
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=2)
        writer.append(frames[0])
        reader = StepStreamReader(root)
        with pytest.raises(ValueError):
            reader.read_region(0, (slice(0, 10, 2),))
        with pytest.raises(ValueError):
            reader.read_region(0, (slice(5, 5),))
        with pytest.raises(ValueError):
            reader.read_region(0, tuple(slice(None) for _ in range(4)))

    def test_sharded_rejects_unsharded_apis(self, frames, tmp_path):
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, shards=2)
        writer.append(frames[0])
        with pytest.raises(StreamError):
            writer.predict_step(frames[0])
        with pytest.raises(StreamError):
            writer.encode_predicted(None)
        reader = StepStreamReader(root)
        with pytest.raises(StreamError):
            reader.read(0, k=1)
        with pytest.raises(StreamError):
            reader.classes_needed(0, 1e-3)

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_read_step_on_sharded_streams(self, frames, tmp_path, tol):
        # both payload modes: sharded steps are independent, so
        # read_step works without key frames or chain replay
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, tol=tol, shards=3)
        for f in frames:
            writer.append(f)
        reader = StepStreamReader(root)
        bound = tol if tol is not None else 1e-9
        # random access in arbitrary order
        for t in (2, 0, 1):
            assert float(np.abs(reader.read_step(t) - frames[t]).max()) <= bound

    @pytest.mark.parametrize("n_shards,call,match", [
        (None, lambda r: r.shards_covering(), "needs a sharded stream"),
        (None, lambda r: r.read_shard(0, 0), "needs a sharded stream"),
        (None, lambda r: list(r.shard_pieces(0, None, r.read_shard)), "needs a sharded"),
        (3, lambda r: r.read_shard(0, 3), r"shard 3 out of range \[0, 3\)"),
        (3, lambda r: r.read_shard(0, -1), r"shard -1 out of range \[0, 3\)"),
    ], ids=["covering-unsharded", "read-unsharded", "pieces-unsharded",
            "read-past-end", "read-negative"])
    def test_shard_methods_raise_typed_errors(self, frames, tmp_path, n_shards, call, match):
        # a caller's bad argument, not file corruption: raised before any
        # step file is opened, so deleting them changes nothing
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=n_shards)
        writer.append(frames[0])
        reader = StepStreamReader(root)
        for s in reader.steps:
            (root / s["file"]).unlink()
        with pytest.raises(StreamError, match=match):
            call(reader)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_nonpositive_shards_rejected(self, tmp_path, shards):
        # None and 1 mean unsharded; anything below 1 is a caller error,
        # refused before the stream directory exists
        with pytest.raises(ValueError, match="shards must be None or >= 1"):
            StepStreamWriter(tmp_path / "stream", (17, 17), shards=shards)
        assert not (tmp_path / "stream").exists()

    @pytest.mark.parametrize("shards", [None, 1])
    def test_one_or_no_shards_write_an_unsharded_stream(self, frames, tmp_path, shards):
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, shards=shards)
        writer.append(frames[0])
        manifest = json.loads((root / "manifest.json").read_text())
        assert "shards" not in manifest
        assert all("shards" not in s for s in manifest["steps"])
        reader = StepStreamReader(root)
        assert reader.shard_bounds is None
        # the unsharded-only APIs work, so no shard table was written
        full, _ = reader.read(0, k=len(reader.steps[0]["class_bytes"]))
        assert float(np.abs(full - frames[0]).max()) <= 1e-9
        assert reader.classes_needed(0, 1e-3) >= 1

    def test_reopen_requires_same_sharding(self, frames, tmp_path):
        root = tmp_path / "stream"
        StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4)
        with pytest.raises(StreamError):
            StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=2)
        with pytest.raises(StreamError):
            StepStreamWriter(root, frames[0].shape, tol=1e-3)
        # matching shard layout reopens fine
        w = StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4)
        w.append(frames[0])
        assert w.n_steps == 1

    def test_step_files_identical_across_executors(self, frames, tmp_path):
        payloads = {}
        for spec in ("serial", "thread:2", "process:2"):
            root = tmp_path / spec.replace(":", "_")
            writer = StepStreamWriter(
                root, frames[0].shape, tol=1e-3, shards=3, executor=spec
            )
            for f in frames:
                writer.append(f)
            payloads[spec] = [
                (root / s["file"]).read_bytes()
                for s in json.loads((root / "manifest.json").read_text())["steps"]
            ]
        assert payloads["serial"] == payloads["thread:2"]
        assert payloads["serial"] == payloads["process:2"]


class TestShardedPipeline:
    @staticmethod
    def _split(root, frames, **kw):
        writer = StepStreamWriter(root, frames[0].shape, **kw)
        for f in frames:
            writer.commit_step(writer.encode_sharded(writer.shard_step(f)))
        return StepStreamReader(root)

    def test_pipeline_sharded_chain(self, rng, tmp_path):
        frames = [rng.standard_normal((12, 7, 7)) for _ in range(3)]
        tol = 1e-3 * float(np.ptp(frames[0]))
        reader = self._split(tmp_path, frames, tol=tol, shards=3)
        assert reader.n_steps == 3
        assert len(reader.shard_bounds) == 3
        for t, f in enumerate(frames):
            assert float(np.abs(reader.read_step(t) - f).max()) <= tol

    def test_pipeline_sharded_refactored(self, rng, tmp_path):
        frames = [rng.standard_normal((10, 6, 6)) for _ in range(2)]
        reader = self._split(tmp_path, frames, shards=2)
        out = reader.read_region(1)
        np.testing.assert_allclose(out, frames[1], atol=1e-9)


def _host(monkeypatch, workers: int) -> list:
    """Give the host ``workers`` cores; returns the jobs submitted to the
    shared thread pool from then on."""
    monkeypatch.setattr(executors, "available_workers", lambda: workers)
    submitted = []
    submit = executors.ThreadExecutor.submit
    monkeypatch.setattr(
        executors.ThreadExecutor,
        "submit",
        lambda self, fn, *args: submitted.append(fn) or submit(self, fn, *args),
    )
    return submitted


class TestShardFanOut:
    @pytest.fixture()
    def frames(self, rng):
        return [rng.standard_normal((20, 9, 9)) for _ in range(2)]

    # (shards, rows) -> the regions covering one shard, two, and all of them
    @staticmethod
    def _regions(bounds):
        (a0, b0), (a1, b1) = bounds[0], bounds[1]
        return {1: (slice(a1, b1 - 1),), 2: (slice(b0 - 1, b1), slice(2, 7)), len(bounds): None}

    @pytest.mark.parametrize("n_shards", [2, 3, 4, 5])
    @pytest.mark.parametrize("tol,backend", [(None, "zlib"), (1e-3, "zlib"), (1e-3, "huffman")],
                             ids=["refactored", "zlib", "huffman"])
    def test_fanned_out_bytes_equal_inline(self, frames, tmp_path, monkeypatch,
                                           n_shards, tol, backend):
        root = tmp_path / "stream"
        writer = StepStreamWriter(root, frames[0].shape, tol=tol, backend=backend, shards=n_shards)
        for f in frames:
            writer.append(f)
        reader = StepStreamReader(root)
        regions = self._regions(reader.shard_bounds)
        submitted = _host(monkeypatch, 1)
        inline = {n: reader.read_region(1, r) for n, r in regions.items()}
        whole = reader.read_step(0)
        assert submitted == []
        submitted = _host(monkeypatch, 2)
        for n, r in regions.items():
            submitted.clear()
            got = reader.read_region(1, r)
            assert got.tobytes() == inline[n].tobytes(), n
            assert len(submitted) == (n if n > 1 else 0), n
        assert reader.read_step(0).tobytes() == whole.tobytes()
        assert reader.last_recovery is None

    def test_one_core_submits_nothing(self, frames, tmp_path, monkeypatch):
        root = tmp_path / "stream"
        StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4).append(frames[0])
        submitted = _host(monkeypatch, 1)
        reader = StepStreamReader(root)
        reader.read_step(0)
        reader.read_region(0, (slice(3, 12),))
        assert submitted == []

    def test_step_file_opened_once_per_read(self, frames, tmp_path, monkeypatch):
        root = tmp_path / "stream"
        StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4).append(frames[0])
        _host(monkeypatch, 2)
        opened = []
        init = ShardedFileReader.__init__
        monkeypatch.setattr(ShardedFileReader, "__init__",
                            lambda self, path: opened.append(path) or init(self, path))
        reader = StepStreamReader(root)
        reader.read_step(0)
        assert len(opened) == 1
        reader.read_region(0, (slice(3, 12),))
        assert len(opened) == 2

    @staticmethod
    def _corrupt_shard(path, i):
        fr = frame.parse(path)
        offset, nbytes, _ = fr.row(i)
        blob = bytearray(path.read_bytes())
        blob[fr.payload_start + offset + nbytes // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

    def _stream_with_bad_shards(self, frames, tmp_path, bad):
        root = tmp_path / "stream"
        StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4).append(frames[0])
        reader = StepStreamReader(root)
        for i in bad:
            self._corrupt_shard(root / reader.steps[0]["file"], i)
        return reader

    def test_corrupt_middle_shard_reads_as_inline(self, frames, tmp_path, monkeypatch):
        reader = self._stream_with_bad_shards(frames, tmp_path, [1])
        _host(monkeypatch, 1)
        inline = reader.read_step(0)
        inline_report = reader.last_recovery
        submitted = _host(monkeypatch, 2)
        got = reader.read_step(0)
        assert len(submitted) == 4
        assert got.tobytes() == inline.tobytes()
        assert reader.last_recovery == inline_report
        lo, hi = reader.shard_bounds[1]
        assert reader.last_recovery.failed_extents == [(lo, hi)]
        assert np.isnan(got[lo:hi]).all()
        rest = np.r_[0:lo, hi:20]
        assert float(np.abs(got[rest] - frames[0][rest]).max()) <= 1e-3

    def test_raise_is_the_first_bad_shard_in_row_order(self, frames, tmp_path, monkeypatch):
        reader = self._stream_with_bad_shards(frames, tmp_path, [1, 3])
        _host(monkeypatch, 2)
        with pytest.raises(ContainerError, match="shard 1 "):
            reader.read_step(0, on_error="raise")
        with pytest.raises(ContainerError, match="shard 3 "):
            reader.read_region(0, (slice(12, 20),), on_error="raise")

    def test_read_inside_a_pool_job_completes(self, frames, tmp_path, monkeypatch):
        root = tmp_path / "stream"
        StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4).append(frames[0])
        reader = StepStreamReader(root)
        _host(monkeypatch, 1)
        want = reader.read_step(0)
        _host(monkeypatch, 2)
        pool = executors.get_executor("thread:2")
        # every worker of the pool is busy with a read that fans out to it
        jobs = [pool.submit(reader.read_step, 0) for _ in range(pool.max_workers)]
        done, late = concurrent.futures.wait(jobs, timeout=60)
        assert not late, "a read inside the pool it fans out to did not finish"
        assert all(j.result().tobytes() == want.tobytes() for j in done)

    def test_concurrent_readers_agree(self, frames, tmp_path, monkeypatch):
        # more readers than the pool has threads, on one reader object,
        # switching threads often: every read still returns the same bytes
        root = tmp_path / "stream"
        StepStreamWriter(root, frames[0].shape, tol=1e-3, shards=4).append(frames[0])
        reader = StepStreamReader(root)
        _host(monkeypatch, 1)
        want = reader.read_step(0).tobytes()
        _host(monkeypatch, 2)
        got: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=lambda: got.extend(
                reader.read_step(0).tobytes() for _ in range(5))) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 30
