"""Process-parallel codec substrate and the stream writer's encode/commit split.

Contracts:

* all three executor backends (serial / thread / process), under both
  kernel backends, produce byte-identical containers, on adversarial
  class mixes and across code-book-reusing stream chains;
* the zlib backend's sub-block segmentation round-trips, parallelizes
  through every backend, and keeps decoding legacy single-unit blobs;
* every narrow width round-trips through its byte planes, and a class
  that inflates to the wrong length is refused;
* the process backend degrades safely (closures run inline) and
  actually ships the jobs of its slice fan-outs to the pool;
* :meth:`StepStreamReader.refresh` tolerates torn manifest reads from
  a live producer;
* the writer's encode/commit split writes what ``append`` writes,
  commits only in order, and a failed append leaves the writer ready
  for the next one.
"""

import atexit
import concurrent.futures
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import zlib

import numpy as np
import pytest

import repro
import repro.compress.huffman as H
import repro.compress.lossless as L
from repro.cluster import sharded
from repro.cluster.sharded import ShardCodec, encode_shards, plan_shards
from repro.compress.huffman_pack import _SYNC_BLOCK
from repro.compress.lossless import decode_classes, encode_classes
from repro.compress.mgard import MgardCompressor
from repro.core import native
from repro.core.grid import hierarchy_for
from repro.io.stream import PreparedStep, StepStreamReader, StepStreamWriter, StreamError
from repro.parallel import ProcessExecutor, SerialExecutor, ThreadExecutor, get_executor

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def _executors():
    return {
        "serial": None,
        "thread": get_executor("thread:3"),
        "process": get_executor("process:2"),
    }


class TestExecutorSpecs:
    def test_kinds_and_aliases(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        th = get_executor("thread:5")
        assert isinstance(th, ThreadExecutor) and th.max_workers == 5
        assert get_executor("parallel:5") is th  # pre-refactor spec alias
        pr = get_executor("process:2")
        assert isinstance(pr, ProcessExecutor) and pr.max_workers == 2
        assert get_executor("process:2") is pr  # shared instance
        for bad in ("bogus", "process:0", "thread:x"):
            with pytest.raises(ValueError):
                get_executor(bad)

    def test_process_map_runs_closures_inline(self):
        state = []
        out = get_executor("process:2").map(lambda x: (state.append(x), x * 2)[1], range(5))
        assert out == [0, 2, 4, 6, 8]
        assert state == list(range(5))  # ran in this process

    def test_process_map_picklable_fn_through_pool(self):
        import os

        pids = get_executor("process:2").map(_worker_pid, range(4))
        assert all(isinstance(p, int) for p in pids)
        assert any(p != os.getpid() for p in pids)


def _worker_pid(_):
    import os

    return os.getpid()


def test_a_forked_child_gets_a_thread_pool_of_its_own():
    """The cached executors do not cross a fork: a child that maps on the
    ``thread:2`` pool its parent used gets a pool with threads, not the
    parent's, whose threads it does not have (it would wait for ever)."""
    assert get_executor("thread:2").map(abs, [-1, -2, -3]) == [1, 2, 3]
    pid = os.fork()
    if pid == 0:  # the child: SIGALRM ends it if the map hangs
        signal.alarm(20)
        os._exit(0 if get_executor("thread:2").map(abs, [-1, -2, -3]) == [1, 2, 3] else 1)
    for _ in range(3000):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        threading.Event().wait(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's map never returned")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


class TestProcessPoolLifecycle:
    def test_prime_starts_every_worker(self):
        # prime() exists so the pool forks while the process is still
        # single-threaded: a first map issued with a sibling thread
        # alive must find every worker already up
        ex = ProcessExecutor(2)
        before = set(multiprocessing.active_children())
        stop = threading.Event()
        sibling = threading.Thread(target=stop.wait)
        try:
            ex.prime()
            workers = set(multiprocessing.active_children()) - before
            assert len(workers) == ex.max_workers
            sibling.start()
            pids = ex.map(_worker_pid, range(4))
            assert set(pids) <= {w.pid for w in workers}
            assert set(multiprocessing.active_children()) - before == workers
        finally:
            stop.set()
            if sibling.ident is not None:
                sibling.join(timeout=5)
            ex.shutdown()

    def test_workers_die_with_a_killed_parent(self):
        # a SIGKILLed parent runs no atexit hook; its primed workers must
        # still go down.  Every process of the tree holds the script's
        # stdout, so EOF on it means none of them is left.
        script = (
            "import multiprocessing, os, signal\n"
            "from repro.parallel import ProcessExecutor\n"
            "if __name__ == '__main__':\n"
            "    ex = ProcessExecutor(2)\n"
            "    ex.prime()\n"
            "    assert ex.map(abs, [-1, -2, -3]) == [1, 2, 3]\n"
            "    print(len(multiprocessing.active_children()), flush=True)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=30)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # whatever outlived it
            except ProcessLookupError:
                pass
        assert proc.returncode == -signal.SIGKILL and out.split() == [b"2"]

    def test_one_atexit_hook_per_executor(self):
        ex = ProcessExecutor(2)
        hooks = atexit._ncallbacks()
        for _ in range(3):  # what broken-pool rebuilds and reuse after shutdown do
            assert len(ex.map(_worker_pid, range(2))) == 2
            ex.shutdown()
        assert atexit._ncallbacks() == hooks + 1


def _spy_pool_jobs(monkeypatch) -> list:
    """Record ``(fn, job count)`` of every batch handed to a process pool
    (a batch: consecutive submits of one function)."""
    calls = []
    orig = concurrent.futures.ProcessPoolExecutor.submit

    def spy(pool, fn, *args, **kwargs):
        if calls and calls[-1][0] is fn:
            calls[-1] = (fn, calls[-1][1] + 1)
        else:
            calls.append((fn, 1))
        return orig(pool, fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy)
    return calls


def _slice_fan_outs(rng):
    """name -> (pool work function, job count, run(executor) -> bytes)
    for the three fan-outs whose jobs each take their own slice."""
    sizes = [700, 90, 0, 2500]
    bins = np.concatenate(
        [rng.integers(-(2**20), 2**20, s).astype(np.int64) for s in sizes]
    )
    payload, header = encode_classes(bins, sizes, backend="zlib")
    field = rng.standard_normal((20, 9, 9)).cumsum(0)
    plan = plan_shards(field.shape, 4)
    codec = ShardCodec(tol=1e-3, backend="huffman")
    return {
        "shard-encode": (
            sharded._encode_shard, 4,
            lambda ex: b"".join(encode_shards(field, plan, codec, ex)),
        ),
        "zlib-encode": (
            L._deflate, len(sizes),
            lambda ex: encode_classes(bins, sizes, backend="zlib", executor=ex)[0],
        ),
        "zlib-decode": (
            zlib.decompress, len(sizes),
            lambda ex: decode_classes(payload, header, executor=ex)[0].tobytes(),
        ),
    }


def _slice_sum(window):
    return os.getpid(), int(window.sum(dtype=np.int64))


def _slice_raises(window):
    raise KeyError(len(window))


class TestMapOverSlices:
    """``map`` itself, once, with every job taking its own ndarray view
    of a shared operand — the pattern each slice fan-out follows."""

    OPERANDS = {
        "ndarray": lambda: np.arange(4096, dtype=np.uint8),
        "bytes": lambda: bytes(range(256)) * 16,
        "bytearray": lambda: bytearray(range(256)) * 16,
        "memoryview": lambda: memoryview(bytes(range(256)) * 16),
    }
    BOUNDS = [(0, 1000), (1000, 1001), (1001, 4096), (4096, 4096)]

    def _slices(self, operand):
        buf = np.frombuffer(self.OPERANDS[operand](), np.uint8)
        return buf, [buf[a:b] for a, b in self.BOUNDS]

    @pytest.mark.parametrize("operand", sorted(OPERANDS))
    @pytest.mark.parametrize("spec", ["serial", "thread:2", "process:2"])
    def test_equal_ordered_results(self, spec, operand):
        buf, slices = self._slices(operand)
        got = get_executor(spec).map(_slice_sum, slices)
        want = [int(buf[a:b].sum()) for a, b in self.BOUNDS]
        assert [total for _, total in got] == want
        in_pool = any(pid != os.getpid() for pid, _ in got)
        assert in_pool == (spec == "process:2")

    @pytest.mark.parametrize("operand", sorted(OPERANDS))
    def test_single_job_and_closures_stay_inline(self, operand, monkeypatch):
        calls = _spy_pool_jobs(monkeypatch)
        _, slices = self._slices(operand)
        ex = get_executor("process:2")
        assert ex.map(_slice_sum, slices[:1]) == [(os.getpid(), int(slices[0].sum()))]
        assert ex.map(_slice_sum, []) == []
        assert ex.map(lambda w: len(w), slices) == [len(s) for s in slices]
        assert calls == []

    @pytest.mark.parametrize("spec", ["serial", "thread:2", "process:2"])
    def test_unit_raising_surfaces_itself(self, spec):
        _, slices = self._slices("ndarray")
        with pytest.raises(KeyError):
            get_executor(spec).map(_slice_raises, slices)


class TestSliceFanOutsUseThePool:
    """``map`` over per-job slices is the only fan-out primitive; under
    ``process:2`` each fan-out must really ship its jobs to the pool
    (a closure or an unpicklable argument would run them inline, or
    fail) and still return the serial bytes."""

    @pytest.mark.parametrize("name", ["shard-encode", "zlib-encode", "zlib-decode"])
    def test_jobs_reach_the_pool_with_serial_bytes(self, rng, name, monkeypatch):
        fn, n_jobs, run = _slice_fan_outs(rng)[name]
        want = run(get_executor("serial"))
        calls = _spy_pool_jobs(monkeypatch)
        assert run(get_executor("process:2")) == want
        assert calls == [(fn, n_jobs)]

    def test_worker_killed_mid_batch_still_yields(self):
        from repro import faults

        ex = ProcessExecutor(2, backoff_s=0.0)
        data = np.arange(4096, dtype=np.uint8)
        slices = [data[a:b] for a, b in [(0, 1000), (1000, 1001), (1001, 4096), (4096, 4096)]]
        try:
            with faults.inject("kill@executor.process.map:count=1", seed=2):
                got = ex.map(zlib.crc32, slices)
        finally:
            ex.shutdown()
        assert got == [zlib.crc32(s) for s in slices]
        assert ex.stats["broken_pools"] == 1 and ex.stats["rebuilds"] == 1


def _adversarial_mixes(rng):
    """(name, bins, sizes) cases spanning both backends' corner cases."""
    big_huff = (1 << 16) + 321
    big_zlib = (2 * L._ZLIB_BLOCK_BYTES) // 8 + 13  # int64 raw >= 2 blocks
    yield "empty", np.zeros(0, dtype=np.int64), [0, 0]
    yield "tiny", np.array([5, -5, 0], dtype=np.int64), [1, 0, 2]
    skew = (rng.geometric(0.3, big_huff).astype(np.int64) - 1) * rng.choice(
        [-1, 1], big_huff
    )
    yield "dominant-huffman-class", np.concatenate(
        [rng.integers(-4, 5, 120).astype(np.int64), skew]
    ), [120, big_huff]
    wide = rng.integers(-(2**40), 2**40, big_zlib).astype(np.int64)
    yield "dominant-zlib-subblock-class", np.concatenate(
        [rng.integers(-2, 3, 64).astype(np.int64), wide]
    ), [64, big_zlib]
    esc = rng.integers(-(2**60), 2**60, 4000).astype(np.int64)
    yield "escape-heavy", np.concatenate(
        [np.zeros(32, dtype=np.int64), esc]
    ), [32, 4000]


class TestThreeBackendBitIdentity:
    @pytest.mark.parametrize("backend", ["zlib", "huffman"])
    def test_adversarial_mixes(self, rng, backend):
        """Every executor under every kernel backend emits the same bytes.
        The kernel policy is set process wide: thread workers follow it,
        pool workers run their own (identical bytes either way)."""
        kernels = ["reference"] + (["native"] if native.available() else [])
        for name, bins, sizes in _adversarial_mixes(rng):
            blobs = {}
            try:
                for kernel in kernels:
                    native.set_kernel_backend(kernel)
                    for tag, ex in _executors().items():
                        blobs[kernel, tag] = encode_classes(
                            bins, sizes, backend=backend, executor=ex
                        )
                        flat, got = decode_classes(*blobs[kernel, tag], executor=ex)
                        assert got == [int(s) for s in sizes], (name, backend, tag)
                        np.testing.assert_array_equal(
                            flat, bins, err_msg=f"{name}/{kernel}/{tag}"
                        )
            finally:
                native.set_kernel_backend(None)
            want = blobs["reference", "serial"]
            assert all(b == want for b in blobs.values()), (name, backend)

    def test_codebook_chains_are_backend_independent(self, rng):
        """Reusing streams emit identical code-book chains everywhere."""
        sizes = [60, 4000, 30000]
        # the same alphabet (reuse), then a wider one (a rebuild), reused again
        steps = [
            np.concatenate(
                [rng.integers(-w, w + 1, s).astype(np.int64) for s in sizes]
            )
            for w in (3, 3, 5, 5)
        ]
        scratches = {tag: {} for tag in _executors()}
        decodes = {tag: {} for tag in _executors()}
        saw_ref = False
        for t, bins in enumerate(steps):
            blobs = {}
            for tag, ex in _executors().items():
                blobs[tag] = encode_classes(
                    bins, sizes, backend="huffman",
                    scratch=scratches[tag], refresh=(t == 0), executor=ex,
                )
            assert blobs["serial"] == blobs["thread"] == blobs["process"], t
            p, h = blobs["serial"]
            saw_ref = saw_ref or any("table_ref" in s for s in h["segments"])
            for tag, ex in _executors().items():
                flat, _ = decode_classes(p, h, executor=ex, scratch=decodes[tag])
                np.testing.assert_array_equal(flat, bins, err_msg=f"{t}/{tag}")
        assert saw_ref, "the chain never reused a book; test is vacuous"

    def test_compressor_containers_identical(self, rng):
        shape = (33, 33)
        data = rng.standard_normal(shape).cumsum(0).cumsum(1)
        blobs = {}
        for spec in ("serial", "thread:3", "process:2"):
            comp = MgardCompressor(
                hierarchy_for(shape), 1e-3, backend="huffman", executor=spec
            )
            blobs[spec] = comp.compress(data)
            assert np.abs(comp.decompress(blobs[spec]) - data).max() <= 1e-3
        assert blobs["serial"].payloads == blobs["thread:3"].payloads
        assert blobs["serial"].payloads == blobs["process:2"].payloads
        assert blobs["serial"].headers == blobs["thread:3"].headers
        assert blobs["serial"].headers == blobs["process:2"].headers


class TestHuffmanProcessDecode:
    def test_segments_decode_exactly_through_the_pool(self, rng):
        """Huffman segments decode as pool jobs, and as ``decode_classes``'
        fan-out, exactly."""
        sizes = [(1 << 16) + 5, 3 * _SYNC_BLOCK + 1, 0, 7]
        bins = rng.integers(-6, 7, sum(sizes)).astype(np.int64)
        bins[:: 997] = rng.integers(-(2**60), 2**60, bins[:: 997].size)
        bounds = np.cumsum([0] + sizes)
        segs = [bins[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        encoded = [H.huffman_encode(v) for v in segs]
        payload, header = encode_classes(bins, sizes, backend="huffman")
        proc = get_executor("process:2")
        for out, vals in zip(proc.map(H.huffman_decode, *zip(*encoded)), segs):
            np.testing.assert_array_equal(out, vals)
        flat, got = decode_classes(payload, header, executor=proc)
        assert got == sizes
        np.testing.assert_array_equal(flat, bins)


class TestZlibSubBlocks:
    def test_blocks_appear_only_past_threshold(self, rng):
        small = rng.integers(-100, 100, 100).astype(np.int64)
        big_n = (2 * L._ZLIB_BLOCK_BYTES) // 2 + 5  # int16-narrowed raw
        big = rng.integers(-(2**12), 2**12, big_n).astype(np.int64)
        bins = np.concatenate([small, big])
        payload, header = encode_classes(bins, [small.size, big.size], backend="zlib")
        segs = header["segments"]
        assert "blocks" not in segs[0]
        assert sum(segs[1]["blocks"]) == segs[1]["nbytes"]
        flat, _ = decode_classes(payload, header)
        np.testing.assert_array_equal(flat, bins)

    @pytest.mark.parametrize("payload_type", [bytes, bytearray, memoryview])
    def test_subblock_roundtrip_small_threshold(self, rng, monkeypatch, payload_type):
        """Cheap coverage of many blocks via a shrunken block size; every
        bytes-like payload decodes alike on every executor (memoryview
        slices would not pickle; the decoder slices an ndarray view)."""
        monkeypatch.setattr(L, "_ZLIB_BLOCK_BYTES", 1 << 10)
        sizes = [700, 90, 0, 2500]
        bins = np.concatenate(
            [rng.integers(-(2**20), 2**20, s).astype(np.int64) for s in sizes]
        )
        blobs = {
            tag: encode_classes(bins, sizes, backend="zlib", executor=ex)
            for tag, ex in _executors().items()
        }
        assert blobs["serial"] == blobs["thread"] == blobs["process"]
        payload, header = blobs["serial"]
        assert sum("blocks" in s for s in header["segments"]) >= 2
        # headers survive JSON (what the on-disk container stores)
        header = json.loads(json.dumps(header))
        payload = payload_type(payload)
        for spec in ("serial", "thread:2", "process:2"):
            flat, _ = decode_classes(payload, header, executor=get_executor(spec))
            np.testing.assert_array_equal(flat, bins, err_msg=spec)

    def test_legacy_single_unit_zlib_segments_decode(self, rng, monkeypatch):
        """Blobs written before sub-block segmentation still decode."""
        sizes = [600, 3000]
        bins = rng.integers(-(2**20), 2**20, sum(sizes)).astype(np.int64)
        # a huge threshold reproduces the pre-refactor single-unit layout
        monkeypatch.setattr(L, "_ZLIB_BLOCK_BYTES", 1 << 40)
        payload, header = encode_classes(bins, sizes, backend="zlib")
        assert all("blocks" not in s for s in header["segments"])
        monkeypatch.undo()
        header = json.loads(json.dumps(header))
        for tag, ex in _executors().items():
            flat, got = decode_classes(payload, header, executor=ex)
            assert got == sizes
            np.testing.assert_array_equal(flat, bins, err_msg=tag)

    def test_corrupt_blocks_extent_raises(self, rng):
        n = (2 * L._ZLIB_BLOCK_BYTES) // 8 + 3
        bins = rng.integers(-(2**40), 2**40, n).astype(np.int64)
        payload, header = encode_classes(bins, [n], backend="zlib")
        bad = json.loads(json.dumps(header))
        bad["segments"][0]["blocks"][0] += 1
        with pytest.raises(ValueError, match="sub-blocks"):
            decode_classes(payload, bad)


class TestZlibBytePlanes:
    """A class narrowed to k bytes is stored as k byte planes, low byte
    first, and rebuilt by sign-extending the top plane."""

    def test_every_width_round_trips(self, rng):
        top = np.iinfo(np.int64).max
        classes = [
            np.array([top, -top, 0, -1, 1], np.int64),  # the int64 extremes
            np.array([], np.int64),
            rng.integers(-128, 128, 1000),
            np.array([-(2**15), 2**15 - 1, -129, 128]),
            np.array([-(2**31), 2**31 - 1, -(2**15) - 1, 2**15]),
            # int16 and int32 classes whose planes reach two or more sub-blocks
            rng.integers(-(2**15), 2**15, L._ZLIB_BLOCK_BYTES + 3),
            rng.integers(-(2**31), 2**31, L._ZLIB_BLOCK_BYTES // 2 + 7),
        ]
        sizes = [c.size for c in classes]
        bins = np.concatenate(classes).astype(np.int64)
        payload, header = encode_classes(bins, sizes, backend="zlib")
        segs = header["segments"]
        assert [s["dtype"] for s in segs] == ["<i8", "|i1", "|i1", "<i2", "<i4", "<i2", "<i4"]
        assert len(segs[5]["blocks"]) == 3 and len(segs[6]["blocks"]) == 3
        flat, got = decode_classes(payload, json.loads(json.dumps(header)))
        assert got == sizes
        np.testing.assert_array_equal(flat, bins)

    def test_planes_are_low_byte_first(self):
        payload, header = encode_classes(np.array([0x0102, -2], np.int64), [2], backend="zlib")
        assert zlib.decompress(payload) == bytes([0x02, 0xFE, 0x01, 0xFF])

    @pytest.mark.parametrize("width", ["|i1", "<i4"])
    def test_wrong_inflated_length_is_refused(self, rng, width):
        bins = rng.integers(-(2**12), 2**12, 300).astype(np.int64)
        payload, header = encode_classes(bins, [bins.size], backend="zlib")
        header["segments"][0]["dtype"] = width  # the planes are 2 bytes wide
        with pytest.raises(ValueError, match="inflated to 600 bytes"):
            decode_classes(payload, header)

    @pytest.mark.parametrize("name", [">i2", "<u2", "<f8", ["<i2"]])
    def test_unknown_width_is_refused(self, rng, name):
        bins = rng.integers(-(2**12), 2**12, 300).astype(np.int64)
        payload, header = encode_classes(bins, [bins.size], backend="zlib")
        header["segments"][0]["dtype"] = name
        with pytest.raises(ValueError, match="not a zlib segment row"):
            decode_classes(payload, header)


class TestTornManifestRefresh:
    def _stream(self, rng, tmp_path, n=3):
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        frames = [base * (1 + 0.05 * t) for t in range(n)]
        writer = StepStreamWriter(tmp_path, base.shape)
        for t in range(2):
            writer.append(frames[t])
        return writer, frames

    def test_refresh_ignores_torn_manifest(self, rng, tmp_path):
        writer, frames = self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        assert reader.n_steps == 2
        manifest = tmp_path / "manifest.json"
        good = manifest.read_text()
        manifest.write_text(good[: len(good) // 2])  # torn mid-write
        assert reader.refresh() == 2  # keeps the last good snapshot
        manifest.write_text(good)
        writer.append(frames[2])
        assert reader.refresh() == 3  # next poll catches up

    def test_refresh_ignores_missing_manifest(self, rng, tmp_path):
        writer, _ = self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        manifest = tmp_path / "manifest.json"
        good = manifest.read_text()
        manifest.unlink()  # mid-replace on a non-atomic filesystem
        assert reader.refresh() == 2
        manifest.write_text(good)
        assert reader.refresh() == 2

    def test_persistently_dead_stream_raises_eventually(self, rng, tmp_path):
        """A manifest that never heals is a dead stream, not a race."""
        from repro.io.stream import _MAX_TORN_REFRESHES

        self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        (tmp_path / "manifest.json").unlink()
        for _ in range(_MAX_TORN_REFRESHES - 1):
            assert reader.refresh() == 2
        with pytest.raises(StreamError, match="consecutive"):
            reader.refresh()

    def test_refresh_still_rejects_shape_change(self, rng, tmp_path):
        writer, _ = self._stream(rng, tmp_path)
        reader = StepStreamReader(tmp_path)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["shape"] = [9, 9]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(StreamError, match="shape"):
            reader.refresh()


class TestEncodeCommitSplit:
    def test_split_matches_append(self, rng, tmp_path):
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        frames = [base * (1 + 0.1 * t) for t in range(3)]
        w_a = StepStreamWriter(tmp_path / "a", base.shape, shards=2)
        w_b = StepStreamWriter(tmp_path / "b", base.shape, shards=2)
        for t, frame in enumerate(frames):
            w_a.append(frame, time=float(t))
            prep = w_b.encode_sharded(w_b.shard_step(frame, time=float(t)))
            assert isinstance(prep, PreparedStep)
            w_b.commit_step(prep)
        man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert man_a == man_b
        for step in man_a["steps"]:
            fa = (tmp_path / "a" / step["file"]).read_bytes()
            fb = (tmp_path / "b" / step["file"]).read_bytes()
            assert fa == fb

    def test_split_matches_append_compressed(self, rng, tmp_path):
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        frames = [base * (1 + 0.02 * t) for t in range(4)]
        tol = 1e-3 * float(np.abs(base).max())
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=2)
        for t, frame in enumerate(frames):
            w.commit_step(w.encode_predicted(w.predict_step(frame, time=float(t))))
        reader = StepStreamReader(tmp_path)
        for t, frame in enumerate(frames):
            assert np.abs(reader.read_step(t) - frame).max() <= tol

    @pytest.mark.parametrize("spec", ["serial", "thread:2", "process:2"])
    def test_sharded_compressed_split_matches_append(self, rng, tmp_path, spec):
        """shard_step → encode_sharded → commit_step writes the manifest
        and step files append writes, on every executor backend."""
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        frames = [base * (1 + 0.05 * t) for t in range(3)]
        tol = 1e-3 * float(np.abs(base).max())
        kw = dict(tol=tol, shards=3, executor=spec)
        w_a = StepStreamWriter(tmp_path / "a", base.shape, **kw)
        w_b = StepStreamWriter(tmp_path / "b", base.shape, **kw)
        for t, frame in enumerate(frames):
            w_a.append(frame, time=float(t))
            w_b.commit_step(w_b.encode_sharded(w_b.shard_step(frame, time=float(t))))
        man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert man_a == man_b
        for step in man_a["steps"]:
            fa = (tmp_path / "a" / step["file"]).read_bytes()
            assert fa == (tmp_path / "b" / step["file"]).read_bytes()
        reader = StepStreamReader(tmp_path / "b")
        for t, frame in enumerate(frames):
            assert np.abs(reader.read_step(t) - frame).max() <= tol

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_shard_split_requires_sharded_stream(self, rng, tmp_path, tol):
        base = rng.standard_normal((17, 17))
        w = StepStreamWriter(tmp_path, base.shape, tol=tol)
        with pytest.raises(StreamError, match="sharded"):
            w.shard_step(base)
        with pytest.raises(StreamError, match="sharded"):
            w.encode_sharded(None)
        assert w.append(base) == 0  # the refused calls claimed no index

    def test_shard_step_rejects_wrong_shape(self, rng, tmp_path):
        base = rng.standard_normal((17, 17))
        w = StepStreamWriter(tmp_path, base.shape, shards=2)
        with pytest.raises(ValueError, match="shape"):
            w.append(base[:16])
        assert w.n_steps == 0
        assert w.append(base) == 0

    def test_out_of_order_commit_raises(self, rng, tmp_path):
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        w = StepStreamWriter(tmp_path, base.shape, shards=2)
        p0 = w.encode_sharded(w.shard_step(base))
        p1 = w.encode_sharded(w.shard_step(base * 2))
        with pytest.raises(StreamError, match="order"):
            w.commit_step(p1)
        w.commit_step(p0)
        w.commit_step(p1)
        assert w.n_steps == 2

    @staticmethod
    def _full_disk(monkeypatch, n, site="stream.step"):
        """The next ``n`` publishes at ``site`` fail as on a full disk."""
        import errno

        import repro.io.stream as stream

        real, left = stream._atomic_publish, [n]

        def publish(dst, payload, durability, at):
            if at == site and left[0]:
                left[0] -= 1
                raise OSError(errno.ENOSPC, "no space left on device")
            real(dst, payload, durability, at)

        monkeypatch.setattr(stream, "_atomic_publish", publish)

    def test_failed_append_unwedges_writer(self, rng, tmp_path, monkeypatch):
        """An append that fails after claiming its index releases it:
        the next plain append just works."""
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        w = StepStreamWriter(tmp_path, base.shape)
        w.append(base)
        self._full_disk(monkeypatch, 2)
        for k in (2, 3):  # encoded, never committed
            with pytest.raises(OSError):
                w.append(base * k)
        w.append(base * 4)
        assert w.n_steps == 2
        reader = StepStreamReader(tmp_path)
        field, _ = reader.read(1, k=reader.hier.L + 1)
        np.testing.assert_allclose(field, base * 4, atol=1e-9)

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_failed_sharded_commit_releases_its_index(self, rng, tmp_path, monkeypatch, tol):
        """A sharded step encoded but lost to a full disk leaves no gap:
        the next append takes its index and reads back."""
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, shards=2)
        w.append(base)
        self._full_disk(monkeypatch, 1)
        with pytest.raises(OSError):
            w.append(base * 2)
        assert w.n_steps == 1
        assert w.append(base * 3) == 1
        bound = 1e-9 if tol is None else tol
        reader = StepStreamReader(tmp_path)
        assert np.abs(reader.read_step(1) - base * 3).max() <= bound

    def test_failed_manifest_publish_does_not_count_the_step(self, rng, tmp_path, monkeypatch):
        """An append whose manifest publish fails is no step: the writer
        does not count it, and the next append takes its index."""
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        w = StepStreamWriter(tmp_path, base.shape)
        w.append(base)
        self._full_disk(monkeypatch, 1, site="stream.manifest")
        with pytest.raises(OSError):
            w.append(base * 2)
        assert w.n_steps == 1
        assert w.append(base * 3) == 1
        reader = StepStreamReader(tmp_path)
        field, _ = reader.read(1, k=reader.hier.L + 1)
        np.testing.assert_allclose(field, base * 3, atol=1e-9)

    def test_failed_append_compressed_rebases_on_key_frame(self, rng, tmp_path, monkeypatch):
        base = rng.standard_normal((17, 17)).cumsum(0).cumsum(1)
        tol = 1e-3 * float(np.abs(base).max())
        w = StepStreamWriter(tmp_path, base.shape, tol=tol, key_interval=4)
        frames = [base * (1 + 0.02 * t) for t in range(4)]
        w.append(frames[0])
        w.append(frames[1])
        self._full_disk(monkeypatch, 1)
        with pytest.raises(OSError):
            w.append(frames[2])  # prediction loop and book chain advanced
        w.append(frames[2])  # re-encoded; lands as a key frame re-base
        w.append(frames[3])
        steps = json.loads((tmp_path / "manifest.json").read_text())["steps"]
        assert [s["is_key"] for s in steps] == [True, False, True, False]
        reader = StepStreamReader(tmp_path)
        for t, frame in enumerate(frames):
            assert np.abs(reader.read_step(t) - frame).max() <= tol, t
