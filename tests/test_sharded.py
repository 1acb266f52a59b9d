"""Shard-parallel compression: partition planning, round-trips, streams.

Covers PR 5's tentpole and bugfix satellites:

* ``plan_blocks`` regressions — the self-defeating 1-row guard
  (``shape=(3,4,4)`` with a 2-row budget used to emit a *leading*
  1-row block) and the now-implemented ``2^k+1`` row-count preference;
* :class:`~repro.cluster.sharded.ShardedCompressor` round-trips on
  adversarial inputs (non-``2^k+1`` row counts, shard counts >= 3,
  float32 frames, tolerances near machine epsilon);
* byte-identity of shard containers across the serial/thread/process
  executor backends, shm staging included;
* sharded streams: manifest shard tables, ``read_region`` decoding
  only the covering shards (decode-call spy), the sharded pipeline
  chain, and the CLI surface.
"""

import json
import math

import numpy as np
import pytest

from repro.cluster.partition import BlockRefactorer, plan_blocks
from repro.cluster.sharded import (
    ShardCodec,
    ShardedCompressor,
    decode_shard,
    encode_shards,
    plan_shards,
    shard_tolerance,
)
from repro.io.stream import StepStreamReader, StepStreamWriter, StreamError


def _block_sizes(plan):
    return [b - a for a, b in zip(plan.starts, plan.stops)]


class TestPlanBlocksRegressions:
    def test_no_self_defeating_one_row_guard(self):
        # (3,4,4) with a 2-row budget: the old guard emitted 0:1, 1:3 —
        # *creating* a leading 1-row block while avoiding a trailing one
        plan = plan_blocks((3, 4, 4), memory_bytes=2 * 2 * 16 * 8)
        assert _block_sizes(plan) == [2, 1]
        assert plan.starts[0] == 0 and plan.stops[-1] == 3

    def test_unavoidable_one_row_block_roundtrips(self, rng):
        # n0 odd with a 2-row budget: a 1-row block cannot be avoided,
        # so it must reconstruct losslessly instead of erroring
        shape = (3, 4, 4)
        br = BlockRefactorer(shape, memory_bytes=2 * 2 * 16 * 8)
        assert min(_block_sizes(br.plan)) == 1
        data = rng.standard_normal(shape)
        np.testing.assert_allclose(
            br.recompose(br.decompose(data)), data, atol=1e-9
        )

    @pytest.mark.parametrize(
        "n0,max_rows",
        [(4, 3), (101, 50), (7, 2), (9, 4), (12, 5), (1000, 100)],
    )
    def test_no_avoidable_sub2_blocks(self, n0, max_rows):
        plan = plan_blocks((n0, 8), memory_bytes=2 * max_rows * 8 * 8)
        sizes = _block_sizes(plan)
        assert sum(sizes) == n0
        assert all(a == b for a, b in zip(plan.stops[:-1], plan.starts[1:]))
        assert max(sizes) <= max_rows
        if 2 * math.ceil(n0 / max_rows) <= n0:
            # a partition with every block >= 2 rows exists: emit one
            assert min(sizes) >= 2, sizes

    def test_power_of_two_plus_one_preference(self):
        # budget of 40 rows: 33 = 2^5+1 keeps >75% of it, so blocks snap
        plan = plan_blocks((200, 8), memory_bytes=2 * 40 * 8 * 8)
        sizes = _block_sizes(plan)
        assert sizes.count(33) >= len(sizes) - 1
        # budget of 50: snapping to 33 would lose >=25%, so no snap
        plan = plan_blocks((200, 8), memory_bytes=2 * 50 * 8 * 8)
        assert max(_block_sizes(plan)) == 50

    def test_snap_never_exceeds_budget(self):
        for max_rows in range(2, 70):
            plan = plan_blocks((500, 4), memory_bytes=2 * max_rows * 4 * 8)
            assert max(_block_sizes(plan)) <= max_rows

    def test_no_snap_when_grid_fits_whole(self):
        # 10 rows in a huge budget must stay one block — snapping to 9
        # would manufacture a split no footprint requires
        plan = plan_blocks((10, 4, 4), memory_bytes=1e9)
        assert _block_sizes(plan) == [10]


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

    def test_shard_tolerance_is_identity_for_linf(self):
        assert shard_tolerance(1e-3, 7) == 1e-3
        with pytest.raises(ValueError):
            shard_tolerance(0.0, 2)
        with pytest.raises(ValueError):
            shard_tolerance(1e-3, 0)


class TestShardedRoundTrip:
    @pytest.mark.parametrize("n_shards", [3, 4, 5])
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_adversarial_shapes(self, rng, n_shards, backend):
        # 19 rows: non-2^k+1, indivisible by most shard counts
        shape = (19, 7, 6)
        data = rng.standard_normal(shape)
        tol = 1e-3 * float(data.max() - data.min())
        sc = ShardedCompressor(shape, tol, n_shards=n_shards, backend=backend)
        frame = sc.compress(data)
        assert frame.n_shards == n_shards
        out = sc.decompress(frame)
        assert float(np.abs(out - data).max()) <= tol

    def test_float32_input(self, rng):
        shape = (12, 9, 9)
        data = rng.standard_normal(shape).astype(np.float32)
        tol = 1e-4 * float(data.max() - data.min())
        sc = ShardedCompressor(shape, tol, n_shards=3)
        out = sc.decompress(sc.compress(data))
        assert float(np.abs(out - data.astype(np.float64)).max()) <= tol

    def test_tol_near_machine_epsilon(self, rng):
        shape = (9, 5, 5)
        data = rng.standard_normal(shape)
        tol = 1e-13
        sc = ShardedCompressor(shape, tol, n_shards=3, backend="huffman")
        out = sc.decompress(sc.compress(data))
        assert float(np.abs(out - data).max()) <= tol

    def test_refactored_shards_lossless(self, rng):
        shape = (14, 8, 8)
        data = rng.standard_normal(shape)
        sc = ShardedCompressor(shape, None, n_shards=4)
        out = sc.decompress(sc.compress(data))
        np.testing.assert_allclose(out, data, atol=1e-9)

    def test_memory_budget_planning(self, rng):
        shape = (40, 8, 8)
        data = rng.standard_normal(shape)
        sc = ShardedCompressor(shape, None, memory_bytes=2 * 10 * 64 * 8)
        assert sc.n_shards >= 4
        np.testing.assert_allclose(
            sc.decompress(sc.compress(data)), data, atol=1e-9
        )

    def test_exactly_one_partition_spec(self):
        with pytest.raises(ValueError):
            ShardedCompressor((8, 8), 1e-3)
        with pytest.raises(ValueError):
            ShardedCompressor((8, 8), 1e-3, n_shards=2, memory_bytes=1e9)

    def test_global_bound_tightness_across_shards(self, rng):
        # each shard gets the *full* L-inf budget (disjoint domains):
        # shard errors must not be forced to sum below tol
        shape = (18, 9, 9)
        data = rng.standard_normal(shape)
        tol = 1e-3
        sc = ShardedCompressor(shape, tol, n_shards=3)
        out = sc.decompress(sc.compress(data))
        per_shard = [
            float(np.abs(out[a:b] - data[a:b]).max())
            for a, b in zip(sc.plan.starts, sc.plan.stops)
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
        # rows 4:16 straddle shards 0..3
        decoded.clear()
        reader.read_region(2, (slice(4, 16),))
        assert decoded == [0, 1, 2, 3]

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
            writer.encode_refactored(None)
        reader = StepStreamReader(root)
        with pytest.raises(StreamError):
            reader.read(0, k=1)
        with pytest.raises(StreamError):
            reader.read_full(0)
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
    def test_pipeline_sharded_chain(self, rng, tmp_path):
        from repro.io.workflow import run_streaming_pipeline

        frames = [rng.standard_normal((12, 7, 7)) for _ in range(3)]
        m = run_streaming_pipeline(
            frames,
            workdir=tmp_path,
            executor="thread:4",
            mode="compressed",
            shards=3,
            keep_stream=True,
        )
        assert m.stage_names == ("shard", "encode", "write")
        assert m.shards == 3
        assert m.record()["shards"] == 3
        reader = StepStreamReader(tmp_path / "pipelined")
        assert reader.n_steps == 3
        assert len(reader.shard_bounds) == 3
        tol = reader.tol
        for t, f in enumerate(frames):
            assert float(np.abs(reader.read_step(t) - f).max()) <= tol

    def test_pipeline_sharded_refactored(self, rng, tmp_path):
        from repro.io.workflow import run_streaming_pipeline

        frames = [rng.standard_normal((10, 6, 6)) for _ in range(2)]
        m = run_streaming_pipeline(
            frames,
            workdir=tmp_path,
            executor="thread:4",
            mode="refactored",
            shards=2,
            keep_stream=True,
        )
        assert m.stage_names == ("shard", "encode", "write")
        reader = StepStreamReader(tmp_path / "pipelined")
        out = reader.read_region(1)
        np.testing.assert_allclose(out, frames[1], atol=1e-9)


class TestShardsCli:
    def test_pipeline_shards_flag(self, monkeypatch, capsys, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_BENCH_SCALE", "ci")
        json_path = tmp_path / "rec.json"
        assert main(["pipeline", "--shards", "2", "--json", str(json_path)]) == 0
        record = json.loads(json_path.read_text())
        assert record["shards"] == 2
        assert record["stage_names"] == ["shard", "encode", "write"]
