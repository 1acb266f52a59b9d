"""Tests for the compression service: protocol, cache, batcher, server.

Covers the concurrent-reader satellite head-on: protocol round-trip
fuzz (truncated/oversized frames are clean errors, never hangs),
micro-batcher coalescing and failure propagation, the reader's
decoded-step cache and generation-keyed invalidation, thread-safety of
:class:`StepStreamReader` under simultaneous ``read_step`` /
``read_region`` / ``refresh``, end-to-end server behaviour (ingest,
retrieval, progressive precision, shedding), and the subprocess
kill-and-reconnect chaos case.
"""

from __future__ import annotations

import asyncio
import shutil
import socket
import threading
import time

import numpy as np
import pytest

from repro.io.stream import StepStreamReader, StepStreamWriter
from repro.io.workflow import follow_stream
from repro.service import protocol
from repro.service.batcher import _MIN_WINDOW_S, MicroBatcher
from repro.cache import LRUCache
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import BusyError, ProtocolError, RemoteError
from repro.service.server import ServiceConfig
from repro.experiments.service_exp import _ServerThread, _chaos_case


def _frames(shape, n, seed=0):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(shape), axis=0)
    return [base + 0.05 * t * rng.standard_normal(shape) for t in range(n)]


# ----------------------------------------------------------------------
# protocol


def _feed(*chunks: bytes) -> asyncio.StreamReader:
    r = asyncio.StreamReader()
    for c in chunks:
        r.feed_data(c)
    r.feed_eof()
    return r


class TestProtocolFraming:
    def test_prefix_roundtrip(self):
        raw = protocol.frame_prefix({"op": "ping", "id": 3}, 128)
        hlen, blen = protocol.parse_prefix(raw[:16])
        assert blen == 128
        assert raw[16:].decode() == '{"op":"ping","id":3}'
        assert hlen == len(raw) - 16

    def test_async_roundtrip_memoryview_body(self):
        body = np.arange(60.0).reshape(3, 20)

        async def run():
            reader = _feed(
                protocol.frame_prefix({"op": "x"}, body.nbytes),
                body.data.cast("B"),
            )
            return await protocol.read_frame(reader)

        header, got = asyncio.run(run())
        assert header == {"op": "x"}
        assert np.array_equal(
            np.frombuffer(got, dtype=np.float64).reshape(3, 20), body
        )

    def test_sequence_body_is_the_buffers_back_to_back(self):
        """A body given as a sequence of buffers (a step's cached shards)
        puts the same bytes on the wire as their concatenation."""
        parts = [np.arange(6, dtype="<f8").reshape(2, 3), np.arange(6, 9, dtype="<f8")]

        class _Writer:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(data)

            async def drain(self):
                pass

        joined, split = _Writer(), _Writer()
        header = {"id": 1, "status": "ok"}
        asyncio.run(protocol.send_frame(joined, header, b"".join(p.tobytes() for p in parts)))
        asyncio.run(protocol.send_frame(split, header, [p.data for p in parts]))
        assert b"".join(bytes(c) for c in split.chunks) == b"".join(joined.chunks)
        # handed over as they are: views of the arrays, not copies
        assert [np.shares_memory(np.frombuffer(c, "B"), p) for c, p in zip(split.chunks[1:], parts)] == [True, True]

    def test_clean_eof_between_frames_is_none(self):
        async def run():
            return await protocol.read_frame(_feed())

        assert asyncio.run(run()) is None

    @pytest.mark.parametrize("cut", [1, 8, 15, 17, 22])
    def test_truncated_frames_error_not_hang(self, cut):
        """A peer dying mid-frame surfaces immediately as ProtocolError."""
        whole = protocol.frame_prefix({"op": "ping"}, 4) + b"abcd"

        async def run():
            return await asyncio.wait_for(
                protocol.read_frame(_feed(whole[:cut])), timeout=2
            )

        with pytest.raises(ProtocolError, match="closed inside"):
            asyncio.run(run())

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            protocol.parse_prefix(b"XXXX" + bytes(12))

    def test_oversized_header_and_body_rejected_before_alloc(self):
        import struct

        raw = struct.pack("<4sIQ", protocol.MAGIC, 2**25, 0)
        with pytest.raises(ProtocolError, match="header"):
            protocol.parse_prefix(raw)
        raw = struct.pack("<4sIQ", protocol.MAGIC, 2, 2**62)
        with pytest.raises(ProtocolError, match="body"):
            protocol.parse_prefix(raw)

    @pytest.mark.parametrize("hraw", [b"not json", b'"a string"', b"[1,2]"])
    def test_garbage_header_is_protocol_error(self, hraw):
        async def run():
            reader = _feed(
                protocol._PREFIX.pack(protocol.MAGIC, len(hraw), 0), hraw
            )
            return await protocol.read_frame(reader)

        with pytest.raises(ProtocolError):
            asyncio.run(run())

    def test_sync_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            body = np.linspace(0, 1, 500)
            protocol.send_frame_sync(a, {"op": "put", "n": 1}, body.data.cast("B"))
            header, got = protocol.recv_frame_into(b)
            assert header == {"op": "put", "n": 1}
            # np.frombuffer wraps the landing bytearray without a copy
            arr = np.frombuffer(got, dtype=np.float64)
            assert np.array_equal(arr, body)
            protocol.send_frame_sync(a, {"empty": True})
            header, got = protocol.recv_frame_into(b)
            assert header == {"empty": True} and len(got) == 0
        finally:
            a.close()
            b.close()

    def test_sync_truncated_peer_death(self):
        a, b = socket.socketpair()
        try:
            a.sendall(protocol.frame_prefix({"op": "x"}, 100))  # body never comes
            a.close()
            with pytest.raises(ProtocolError, match="closed inside"):
                protocol.recv_frame_into(b)
        finally:
            b.close()


# ----------------------------------------------------------------------
# cache


class TestLRUCache:
    def test_hit_miss_and_stats(self):
        c = LRUCache(max_bytes=1 << 20)
        a = np.ones(10)
        assert c.get("k") is None
        assert c.put("k", a)
        assert c.get("k") is a
        s = c.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["hit_rate"] == 0.5

    def test_lru_eviction_by_bytes(self):
        one_kb = np.zeros(128)  # 1024 bytes
        c = LRUCache(max_bytes=3 * one_kb.nbytes)
        for k in "abc":
            c.put(k, one_kb.copy())
        c.get("a")  # refresh a → b is now least recent
        c.put("d", one_kb.copy())
        assert c.get("b") is None
        assert c.get("a") is not None and c.get("d") is not None
        assert c.stats()["evictions"] == 1

    def test_max_entries_bound(self):
        c = LRUCache(max_bytes=1 << 30, max_entries=2)
        for i in range(4):
            c.put(i, np.zeros(4))
        assert c.stats()["entries"] == 2

    def test_disabled_and_oversized(self):
        off = LRUCache(max_bytes=0)
        assert not off.enabled
        assert not off.put("k", np.zeros(4))
        assert off.get("k") is None
        small = LRUCache(max_bytes=16)
        assert not small.put("big", np.zeros(100))

    def test_clear(self):
        c = LRUCache(max_entries=1)
        c.put("k", np.zeros(4))
        c.put("j", np.zeros(4))  # evicts k
        assert c.get("j") is not None and c.get("k") is None
        c.clear()  # entries and counters: what the hierarchy memo documents
        assert c.stats() == {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "bytes": 0,
                             "max_bytes": c.max_bytes, "hit_rate": 0.0}
        assert c.get("j") is None

    def test_the_hierarchy_memo_is_this_cache(self):
        from repro.core.grid import _HIER_CACHE, clear_hierarchy_cache, hierarchy_for

        clear_hierarchy_cache()
        assert hierarchy_for((9, 5)) is hierarchy_for((9, 5))
        stats = _HIER_CACHE.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)


# ----------------------------------------------------------------------
# batcher


class TestMicroBatcher:
    def test_coalesces_concurrent_same_key(self):
        calls = []

        async def run():
            b = MicroBatcher()

            async def supplier():
                calls.append(1)
                await asyncio.sleep(0.02)
                return "decoded"

            outs = await asyncio.gather(*[b.run("k", supplier) for _ in range(10)])
            return b, outs

        b, outs = asyncio.run(run())
        assert outs == ["decoded"] * 10
        assert len(calls) == 1
        assert b.stats()["joined"] == 9 and b.stats()["leaders"] == 1
        assert b.coalesce_rate == pytest.approx(0.9)

    def test_distinct_keys_do_not_coalesce(self):
        async def run():
            b = MicroBatcher()

            async def supplier():
                await asyncio.sleep(0.01)
                return 1

            await asyncio.gather(*[b.run(k, supplier) for k in range(5)])
            return b.stats()

        assert asyncio.run(run())["joined"] == 0

    def test_errors_propagate_to_all_then_key_retires(self):
        async def run():
            b = MicroBatcher()
            boom = RuntimeError("decode failed")

            async def bad():
                await asyncio.sleep(0.01)
                raise boom

            res = await asyncio.gather(
                *[b.run("k", bad) for _ in range(4)], return_exceptions=True
            )
            assert all(r is boom for r in res)

            async def good():
                return 42

            assert await b.run("k", good) == 42  # fresh batch, no stale error
            return b.stats()

        stats = asyncio.run(run())
        assert stats["errors"] == 1

    def test_adaptive_window_grows_and_decays(self):
        async def run():
            b = MicroBatcher(max_window_s=0.002)
            assert b.window_s == 0.0

            async def slow():
                await asyncio.sleep(0.01)
                return 1

            await asyncio.gather(*[b.run("k", slow) for _ in range(3)])
            grown = b.window_s
            for _ in range(8):  # solo traffic decays it back to zero
                await b.run("solo", slow)
            return grown, b.window_s

        grown, decayed = asyncio.run(run())
        assert grown >= _MIN_WINDOW_S
        assert decayed == 0.0

    def test_cancelling_the_leader_stops_only_its_own_wait(self):
        """A leader whose request goes away (its connection closed) must
        not take the members that joined its batch down with it."""
        calls = []

        async def run():
            b = MicroBatcher()

            async def supplier():
                calls.append(1)
                await asyncio.sleep(0.05)
                return "decoded"

            leader = asyncio.ensure_future(b.run("k", supplier))
            await asyncio.sleep(0)  # the leader opens the batch
            joiners = [asyncio.ensure_future(b.run("k", supplier)) for _ in range(3)]
            await asyncio.sleep(0.01)
            leader.cancel()
            outs = await asyncio.gather(*joiners)
            with pytest.raises(asyncio.CancelledError):
                await leader
            assert await b.run("k", supplier) == "decoded"  # the key retired
            return outs, b.stats()

        outs, stats = asyncio.run(run())
        assert outs == ["decoded"] * 3
        assert len(calls) == 2
        assert stats["joined"] == 3 and stats["errors"] == 0

    def test_zero_window_means_pure_single_flight(self):
        async def run():
            b = MicroBatcher(max_window_s=0.0)

            async def s():
                return 1

            await b.run("k", s)
            return b.window_s

        assert asyncio.run(run()) == 0.0


# ----------------------------------------------------------------------
# reader cache + generation + wait_for_step


class TestReaderStepCache:
    def test_cache_hits_skip_decode(self, tmp_path):
        frames = _frames((9, 8), 5)
        w = StepStreamWriter(tmp_path / "s", (9, 8), tol=1e-3, key_interval=2)
        for f in frames:
            w.append(f)
        r = StepStreamReader(tmp_path / "s")
        decodes = 0
        orig = r._read_step_impl

        def counting(step, on_error="recover"):
            nonlocal decodes
            decodes += 1
            return orig(step, on_error)

        r._read_step_impl = counting
        a = r.read_step(3)
        b = r.read_step(3)
        assert decodes == 1
        assert np.array_equal(a, b)
        a[0, 0] = 1e9  # returned copies must not poison the cache
        assert r.read_step(3)[0, 0] != 1e9
        info = r._step_cache.stats()
        assert info["hits"] == 2 and info["misses"] == 1

    def test_appends_keep_generation_and_cache(self, tmp_path):
        frames = _frames((9, 8), 4)
        w = StepStreamWriter(tmp_path / "s", (9, 8), tol=1e-3)
        for f in frames[:2]:
            w.append(f)
        r = StepStreamReader(tmp_path / "s")
        r.read_step(1)
        gen = r.generation
        for f in frames[2:]:
            w.append(f)
        r.refresh()
        assert r.generation == gen  # append-only growth is not a rewrite
        assert r._step_cache.stats()["entries"] == 1

    def test_rewritten_stream_bumps_generation_and_clears(self, tmp_path):
        root = tmp_path / "s"
        w = StepStreamWriter(root, (9, 8), tol=1e-3)
        for f in _frames((9, 8), 3, seed=1):
            w.append(f)
        r = StepStreamReader(root)
        stale = r.read_step(0)
        gen = r.generation
        shutil.rmtree(root)
        w = StepStreamWriter(root, (9, 8), tol=1e-3)
        # same step count: a *shrunk* manifest is (by design) treated as
        # a torn read and ignored; a changed prefix is the rewrite signal
        new_frames = _frames((9, 8), 3, seed=2)
        for f in new_frames:
            w.append(f)
        r.refresh()
        assert r.generation == gen + 1
        assert r._step_cache.stats()["entries"] == 0
        fresh = r.read_step(0)
        assert not np.array_equal(fresh, stale)
        assert np.max(np.abs(fresh - new_frames[0])) <= 1.1e-3

    @pytest.mark.parametrize("cache_steps", [None, 0])
    def test_unsharded_region_is_a_copy_of_the_region_only(self, tmp_path, cache_steps):
        """A compressed region read slices the chain's read-only state: the
        full step's values, in an array of the region's own."""
        w = StepStreamWriter(tmp_path / "s", (9, 8), tol=1e-3, key_interval=2)
        for f in _frames((9, 8), 5):
            w.append(f)
        r = StepStreamReader(tmp_path / "s", **({} if cache_steps is None else {"cache_steps": 0}))
        region = (slice(2, 7), slice(1, 5))
        for step in (3, 1, 4, 4):
            got = r.read_region(step, region)
            assert np.array_equal(got, r.read_step(step)[region])
            assert got.shape == (5, 4) and got.base is None and got.flags.writeable
            cached = r._step_cache.get((step, r.generation))
            assert not any(np.shares_memory(got, s) for s in (r._prev, cached) if s is not None)

    def test_cache_disabled(self, tmp_path):
        w = StepStreamWriter(tmp_path / "s", (9, 8), tol=1e-3)
        for f in _frames((9, 8), 2):
            w.append(f)
        r = StepStreamReader(tmp_path / "s", cache_steps=0)
        r.read_step(1)
        r.read_step(1)
        assert r._step_cache.stats()["hits"] == 0


class TestWaitForStep:
    def test_existing_step_immediate(self, tmp_path):
        w = StepStreamWriter(tmp_path / "s", (9, 8))
        w.append(_frames((9, 8), 1)[0])
        r = StepStreamReader(tmp_path / "s")
        assert r.wait_for_step(0, timeout=0.01)

    def test_timeout_false(self, tmp_path):
        w = StepStreamWriter(tmp_path / "s", (9, 8))
        w.append(_frames((9, 8), 1)[0])
        r = StepStreamReader(tmp_path / "s")
        t0 = time.monotonic()
        assert not r.wait_for_step(5, timeout=0.08)
        assert time.monotonic() - t0 < 2.0

    def test_sees_concurrent_append(self, tmp_path):
        frames = _frames((9, 8), 2)
        w = StepStreamWriter(tmp_path / "s", (9, 8))
        w.append(frames[0])
        r = StepStreamReader(tmp_path / "s")
        t = threading.Timer(0.08, lambda: w.append(frames[1]))
        t.start()
        try:
            assert r.wait_for_step(1, timeout=5.0)
        finally:
            t.join()


class TestReaderThreadSafety:
    def test_concurrent_read_step_read_region_refresh(self, tmp_path):
        """Hammer one reader from many threads while the writer appends."""
        shape, tol = (17, 16), 1e-3
        frames = _frames(shape, 10)
        w = StepStreamWriter(tmp_path / "s", shape, tol=tol, key_interval=3)
        for f in frames[:6]:
            w.append(f)
        r = StepStreamReader(tmp_path / "s")
        failures: list[str] = []
        stop = threading.Event()

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    step = int(rng.integers(6))
                    kind = rng.integers(3)
                    if kind == 0:
                        got = r.read_step(step)
                    elif kind == 1:
                        got = r.read_region(step, (slice(2, 9),))
                        got = np.pad(got, [(2, shape[0] - 9)] + [(0, 0)])
                        got[0:2] = frames[step][0:2]
                        got[9:] = frames[step][9:]
                    else:
                        r.refresh()
                        continue
                    err = float(np.max(np.abs(got - frames[step])))
                    if err > tol * 1.05:
                        failures.append(f"step {step}: err {err}")
            except Exception as e:  # noqa: BLE001 - report, don't deadlock
                failures.append(f"{type(e).__name__}: {e}")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for f in frames[6:]:
            w.append(f)
            time.sleep(0.05)
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(10)
        assert not failures, failures[:5]
        r.refresh()
        assert r.n_steps == 10


    def test_sharded_concurrent_read_step_read_region_refresh(self, tmp_path):
        """The sharded twin: reads that take the lock only for the
        manifest snapshot, against a live writer and ``refresh()``."""
        shape, tol = (20, 8, 7), 1e-3
        frames = _frames(shape, 10)
        w = StepStreamWriter(tmp_path / "s", shape, tol=tol, shards=4)
        for f in frames[:6]:
            w.append(f)
        r = StepStreamReader(tmp_path / "s")
        failures: list[str] = []
        stop = threading.Event()

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    step = int(rng.integers(r.n_steps))
                    kind = rng.integers(3)
                    if kind == 0:
                        got, want = r.read_step(step), frames[step]
                    elif kind == 1:
                        lo = int(rng.integers(0, shape[0] - 1))
                        hi = int(rng.integers(lo + 1, shape[0] + 1))
                        got = r.read_region(step, (slice(lo, hi), slice(1, 6)))
                        want = frames[step][lo:hi, 1:6]
                    else:
                        r.refresh()
                        continue
                    if got.shape != want.shape or float(np.max(np.abs(got - want))) > tol * 1.05:
                        failures.append(f"step {step}: {got.shape} vs {want.shape}")
                    if r.last_recovery is not None:
                        failures.append(f"step {step}: {r.last_recovery}")
            except Exception as e:  # noqa: BLE001 - report, don't deadlock
                failures.append(f"{type(e).__name__}: {e}")

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for f in frames[6:]:
            w.append(f)
            time.sleep(0.05)
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert not failures, failures[:5]
        r.refresh()
        assert r.n_steps == 10 and not r.quarantined

    def test_sharded_decodes_overlap_and_refresh_is_not_blocked(self, tmp_path, monkeypatch):
        """Two reads of different shards are inside the decode at once,
        and ``refresh()`` returns while they are: the reader lock is not
        held across a sharded decode."""
        shape = (20, 8, 7)
        frames = _frames(shape, 2)
        w = StepStreamWriter(tmp_path / "s", shape, tol=1e-3, shards=4)
        w.append(frames[0])
        r = StepStreamReader(tmp_path / "s")
        release = threading.Event()
        inside = {0: threading.Event(), 2: threading.Event()}
        orig = StepStreamReader._decode_shard

        def blocking_decode(self, rd, i):
            inside[i].set()
            assert release.wait(30)
            return orig(self, rd, i)

        monkeypatch.setattr(StepStreamReader, "_decode_shard", blocking_decode)
        out: dict[int, np.ndarray] = {}

        def read(i, rows):
            out[i] = r.read_region(0, (rows,))

        readers = [
            threading.Thread(target=read, args=(0, slice(1, 4))),
            threading.Thread(target=read, args=(2, slice(11, 14))),
        ]
        w.append(frames[1])
        refreshed: list[int] = []
        refresher = threading.Thread(target=lambda: refreshed.append(r.refresh()))
        try:
            for t in readers:
                t.start()
            assert inside[0].wait(10) and inside[2].wait(10)  # both decoding at once
            refresher.start()
            refresher.join(10)
            assert refreshed == [2]  # the lock was free
        finally:
            release.set()
            for t in readers:
                t.join(10)
        assert not any(t.is_alive() for t in readers)
        assert float(np.abs(out[0] - frames[0][1:4]).max()) <= 1e-3
        assert float(np.abs(out[2] - frames[0][11:14]).max()) <= 1e-3

    def test_sharded_read_step_is_not_cached_in_the_reader(self, tmp_path):
        """One cache per process for sharded streams: the shard is the
        unit worth caching and the service owns that cache, so the
        reader keeps no whole-step copies of a sharded stream."""
        shape = (20, 8, 7)
        w = StepStreamWriter(tmp_path / "s", shape, tol=1e-3, shards=4)
        w.append(_frames(shape, 1)[0])
        r = StepStreamReader(tmp_path / "s")
        assert r.read_step(0).tobytes() == r.read_step(0).tobytes()
        info = r._step_cache.stats()
        assert info["entries"] == 0 and info["hits"] == 0 and info["bytes"] == 0


def _corrupt_shard(path, i):
    """Flip a byte in the middle of shard ``i``'s extent; returns the
    file's original bytes (write them back to repair it)."""
    from repro import frame

    raw = path.read_bytes()
    fr = frame.parse(raw)
    offset, nbytes, _ = fr.row(i)
    bad = bytearray(raw)
    bad[fr.payload_start + offset + nbytes // 2] ^= 0xFF
    path.write_bytes(bytes(bad))
    return raw


class TestDegradedReadNeverCached:
    def test_sibling_clean_read_between_read_and_check(self, tmp_path):
        """The recovery report travels with the read: a sibling decode
        thread's clean read landing between a rolled-back read's return
        and the service's look at ``last_recovery`` must not get the
        degraded field cached under the requested step's key — there it
        would outlive the repair of the file."""
        from repro.service.server import CompressionService

        shape = (17, 16)
        root = tmp_path / "s"
        w = StepStreamWriter(root, shape, tol=1e-3, key_interval=4)
        for f in _frames(shape, 3):
            w.append(f)
        step = root / "step_000002.mgz"
        step.write_bytes(step.read_bytes()[:-7])
        r = StepStreamReader(root)
        real = r.read_step

        def read_then_sibling(s, on_error="recover"):
            out = real(s, on_error)
            sibling = threading.Thread(target=real, args=(0,))
            sibling.start()
            sibling.join(10)
            assert not sibling.is_alive()
            return out

        r.read_step = read_then_sibling
        svc = CompressionService(ServiceConfig(root=root))
        try:
            field, report = svc._decode_unit_sync(r, 2, None, None, ("get", 2))
            assert svc.cache.get(("get", 2)) is None
            assert report is not None and report.degraded and report.served == 1
            assert np.array_equal(field, real(1))
        finally:
            svc.close()

    def test_sharded_sibling_clean_read_between_pieces_and_check(self, tmp_path):
        """The sharded twin, through the wire: a sibling thread's clean
        read lands between the failure policy's verdict and the
        service's look at ``last_recovery``.  The reply must still say
        it is degraded, and the bad shard must not be cached."""
        shape = (20, 8, 7)
        root = tmp_path / "s"
        w = StepStreamWriter(root, shape, tol=1e-3, shards=4)
        for f in _frames(shape, 2):
            w.append(f)
        _corrupt_shard(root / "step_000000.rpsh", 1)
        server = _serve(root)
        try:
            r = server.svc._reader
            real = r.shard_pieces

            def pieces_then_sibling(*args, **kw):
                out = real(*args, **kw)
                if threading.current_thread().name != "repro-service":
                    return out  # the sibling's own read
                sibling = threading.Thread(target=r.read_region, args=(1,))
                sibling.start()
                sibling.join(10)
                assert not sibling.is_alive()
                return out

            r.shard_pieces = pieces_then_sibling
            with ServiceClient(port=server.port) as c:
                got, meta = c.get_step(0, with_meta=True)
            assert meta["degraded"] is True and meta["failed_extents"] == [[5, 10]]
            assert np.isnan(got[5:10]).all() and not np.isnan(got[:5]).any()
            cached = {key[3] for key in server.svc.cache._data}
            assert cached == {0, 2, 3}
        finally:
            server.stop()


# ----------------------------------------------------------------------
# server end-to-end


def _serve(root, **over):
    cfg = ServiceConfig(root=root, port=0, **over)
    return _ServerThread(cfg)


class TestServerEndToEnd:
    def test_put_get_region_and_info(self, tmp_path):
        frames = _frames((17, 16), 3)
        server = _serve(tmp_path / "s")
        try:
            with ServiceClient(port=server.port) as c:
                assert c.ping()
                for i, f in enumerate(frames):
                    assert c.put_step(f, time=float(i)) == i
                info = c.info()
                assert info["n_steps"] == 3 and info["mode"] == "refactored"
                assert np.allclose(c.get_step(1), frames[1])
                got = c.get_region(2, [[3, 11], [0, 4]])
                direct = StepStreamReader(tmp_path / "s").read_region(
                    2, (slice(3, 11), slice(0, 4))
                )
                assert got.tobytes() == direct.tobytes()
        finally:
            server.stop()

    def test_progressive_precision_end_to_end(self, tmp_path):
        frames = _frames((17, 16), 2)
        server = _serve(tmp_path / "s")
        try:
            with ServiceClient(port=server.port) as c:
                for f in frames:
                    c.put_step(f)
                levels = c.info()["levels"]
                assert levels >= 3
                errs, bounds = [], []
                for k in range(1, levels + 1):
                    arr, meta = c.get_step(1, level=k, with_meta=True)
                    true = float(np.sqrt(np.mean((arr - frames[1]) ** 2)))
                    errs.append(true)
                    bounds.append(meta["error_bound"])
                    # the advertised bound is the estimated L2 error;
                    # the snorm contract: it tracks truth within the
                    # multilevel equivalence constant
                    if true > 1e-10:
                        assert meta["error_bound"] / true > 0.1
                # refinement: error decreases, bounds decrease
                assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
                assert all(a >= b for a, b in zip(bounds, bounds[1:]))
                # final level: bound 0, byte-identical to direct read
                final, meta = c.get_step(1, level=levels, with_meta=True)
                assert meta["final"] and meta["error_bound"] == 0.0
                direct = StepStreamReader(tmp_path / "s").read_region(1)
                assert final.tobytes() == direct.tobytes()
        finally:
            server.stop()

    def test_compressed_stream_roundtrip(self, tmp_path):
        frames = _frames((17, 16), 4)
        tol = 1e-3
        server = _serve(tmp_path / "s", tol=tol, key_interval=2)
        try:
            with ServiceClient(port=server.port) as c:
                for f in frames:
                    c.put_step(f)
                got = c.get_step(3)
                assert np.max(np.abs(got - frames[3])) <= tol * 1.05
                with pytest.raises(RemoteError, match="progressive"):
                    c.get_step(0, level=1)
        finally:
            server.stop()

    def test_errors_are_remote_not_fatal(self, tmp_path):
        frames = _frames((9, 8), 1)
        server = _serve(tmp_path / "s")
        try:
            with ServiceClient(port=server.port) as c:
                c.put_step(frames[0])
                with pytest.raises(RemoteError, match="no such step"):
                    c.get_step(7)
                with pytest.raises(RemoteError, match="region"):
                    c.get_region(0, [[5, 5]])
                assert c.ping()  # connection survives remote errors
        finally:
            server.stop()

    def test_failed_put_step_does_not_wedge_a_sharded_stream(self, tmp_path):
        """A frame the codec refuses (one NaN) fails its own put_step;
        the next good frame lands as the next step."""
        frames = _frames((17, 17), 2)
        tol = 1e-3
        server = _serve(tmp_path / "s", tol=tol, shards=2)
        try:
            with ServiceClient(port=server.port) as c:
                assert c.put_step(frames[0]) == 0
                sick = frames[1].copy()
                sick[3, 3] = np.nan
                with pytest.raises(RemoteError, match="ValueError"):
                    c.put_step(sick)
                assert c.put_step(frames[1]) == 1
                assert np.max(np.abs(c.get_step(1) - frames[1])) <= tol
        finally:
            server.stop()

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_failed_put_step_does_not_wedge_an_unsharded_stream(self, tmp_path, tol):
        frames = _frames((17, 17), 2)
        over = {} if tol is None else {"tol": tol}
        server = _serve(tmp_path / "s", **over)
        try:
            with ServiceClient(port=server.port) as c:
                assert c.put_step(frames[0]) == 0
                sick = frames[1].copy()
                sick[3, 3] = np.nan
                with pytest.raises(RemoteError, match="ValueError"):
                    c.put_step(sick)
                assert c.put_step(frames[1]) == 1
                bound = 1e-9 if tol is None else tol
                assert np.max(np.abs(c.get_step(1) - frames[1])) <= bound
        finally:
            server.stop()

    def test_wait_step_blocks_until_commit(self, tmp_path):
        frames = _frames((9, 8), 2)
        server = _serve(tmp_path / "s")
        try:
            with ServiceClient(port=server.port) as c:
                c.put_step(frames[0])
                assert not c.wait_step(1, timeout=0.05)

                def later():
                    with ServiceClient(port=server.port) as c2:
                        c2.put_step(frames[1])

                t = threading.Timer(0.15, later)
                t.start()
                try:
                    got = c.get_step(1, wait=5.0)
                finally:
                    t.join()
                assert np.allclose(got, frames[1])
        finally:
            server.stop()

    def test_busy_shedding_under_load(self, tmp_path):
        frames = _frames((9, 8), 1)
        server = _serve(tmp_path / "s", conn_inflight=2)
        try:

            async def run():
                async with AsyncServiceClient(port=server.port) as c:
                    await c.put_step(frames[0])
                    # two slow ops occupy the connection's inflight slots
                    slow = [
                        asyncio.ensure_future(c.wait_step(99, timeout=1.0))
                        for _ in range(2)
                    ]
                    await asyncio.sleep(0.1)
                    with pytest.raises(BusyError):
                        await c.ping()
                    done = await asyncio.gather(*slow)
                    assert done == [False, False]
                    assert await c.ping()  # slots free again
                    return await c.stats()

            stats = asyncio.run(run())
            assert stats["shed"] >= 1
        finally:
            server.stop()

    def test_sync_client_retries_through_busy(self, tmp_path):
        frames = _frames((9, 8), 1)
        server = _serve(tmp_path / "s", conn_inflight=1)
        try:
            with ServiceClient(port=server.port) as blocker_owner:
                blocker_owner.put_step(frames[0])

            async def run():
                async with AsyncServiceClient(port=server.port) as a:
                    blocker = asyncio.ensure_future(a.wait_step(99, timeout=0.8))
                    await asyncio.sleep(0.05)
                    # the busy replies are absorbed by the sync client's
                    # backoff loop; the request eventually lands
                    def sync_ping():
                        with ServiceClient(port=server.port, busy_retries=50) as c:
                            return c.ping()

                    ok = await asyncio.to_thread(sync_ping)
                    await blocker
                    return ok

            assert asyncio.run(run())
        finally:
            server.stop()

    def test_a_departed_leader_does_not_strand_its_joiners(self, tmp_path):
        """The batch leader's connection closes mid-decode; a request that
        joined its batch from another connection still gets its reply."""
        frame = _frames((33, 33), 1)[0]
        server = _serve(tmp_path / "s", cache_bytes=0)
        try:
            with ServiceClient(port=server.port) as c:
                c.put_step(frame)
            decode = server.svc._decode_unit_sync

            def slow_decode(*args):
                time.sleep(0.5)
                return decode(*args)

            server.svc._decode_unit_sync = slow_decode

            async def run():
                leader = socket.create_connection(("127.0.0.1", server.port), 5)
                try:
                    protocol.send_frame_sync(leader, {"op": "get_step", "step": 0, "id": 1})
                    await asyncio.sleep(0.1)  # the leader's decode is under way
                    async with AsyncServiceClient(port=server.port) as c:
                        joiner = asyncio.ensure_future(c.get_step(0))
                        await asyncio.sleep(0.1)  # it joined the leader's batch
                        leader.close()
                        return await asyncio.wait_for(joiner, 3.0)
                finally:
                    leader.close()

            got = asyncio.run(run())
            assert got.shape == (33, 33)
            assert np.allclose(got, frame)
            assert server.svc.batcher.stats()["joined"] == 1
        finally:
            server.stop()

    def test_coalescing_under_concurrency(self, tmp_path):
        frames = _frames((17, 16), 1)
        # cache off isolates the batcher: repeats cannot be cache hits
        server = _serve(tmp_path / "s", cache_bytes=0)
        try:

            async def run():
                async with AsyncServiceClient(port=server.port) as c:
                    await c.put_step(frames[0])
                    outs = await asyncio.gather(*[c.get_step(0) for _ in range(12)])
                    return outs, await c.stats()

            outs, stats = asyncio.run(run())
            for o in outs:
                assert np.allclose(o, frames[0])
            assert stats["batcher"]["joined"] > 0
            assert stats["cache"]["hits"] == 0
        finally:
            server.stop()

    def test_cache_hits_across_sequential_requests(self, tmp_path):
        frames = _frames((17, 16), 2)
        server = _serve(tmp_path / "s")
        try:
            with ServiceClient(port=server.port) as c:
                for f in frames:
                    c.put_step(f)
                for _ in range(5):
                    c.get_step(1)
                stats = c.stats()
                assert stats["cache"]["hits"] >= 4
                assert stats["cache"]["hit_rate"] > 0.5
        finally:
            server.stop()

    def test_wire_garbage_gets_error_reply_then_close(self, tmp_path):
        server = _serve(tmp_path / "s")
        try:
            with socket.create_connection(("127.0.0.1", server.port), 5) as s:
                s.sendall(b"GET / HTTP/1.1\r\n\r\n")
                header, _ = protocol.recv_frame_into(s)
                assert header["status"] == "error"
                assert "protocol" in header["error"]
                # server hangs up after a poisoned byte stream
                assert s.recv(1) == b""
        finally:
            server.stop()

    def test_oversized_body_declaration_rejected(self, tmp_path):
        server = _serve(tmp_path / "s", max_body=1024)
        try:
            with socket.create_connection(("127.0.0.1", server.port), 5) as s:
                s.sendall(protocol.frame_prefix({"op": "put_step"}, 1 << 20))
                header, _ = protocol.recv_frame_into(s)
                assert header["status"] == "error"
        finally:
            server.stop()


class TestDegradedReplySaysSo:
    def test_rolled_back_chain_read_is_flagged(self, tmp_path):
        """A truncated ``.mgz`` step is served as the nearest decodable
        earlier step — and the reply says which, on both clients."""
        shape = (17, 16)
        root = tmp_path / "s"
        w = StepStreamWriter(root, shape, tol=1e-3, key_interval=4)
        for f in _frames(shape, 3):
            w.append(f)
        step = root / "step_000002.mgz"
        step.write_bytes(step.read_bytes()[:-7])
        server = _serve(root)
        try:
            with ServiceClient(port=server.port) as c:
                clean, clean_meta = c.get_step(1, with_meta=True)
                assert not {"degraded", "served", "failed_extents"} & set(clean_meta)
                got, meta = c.get_step(2, with_meta=True)
                assert meta["status"] == "ok" and meta["step"] == 2
                assert meta["degraded"] is True and meta["served"] == 1
                assert meta["failed_extents"] == []
                assert got.tobytes() == clean.tobytes()

            async def run():
                async with AsyncServiceClient(port=server.port) as a:
                    return await a.get_region(2, [[3, 9]], with_meta=True)

            got, meta = asyncio.run(run())
            assert meta["degraded"] is True and meta["served"] == 1
            assert got.tobytes() == clean[3:9].tobytes()
            # never cached under the requested step: a repaired file heals
            assert all(key[1] != 2 for key in server.svc.cache._data)
        finally:
            server.stop()


_SHARDED_MODES = {
    "zlib": {"tol": 1e-3, "backend": "zlib"},
    "huffman": {"tol": 1e-3, "backend": "huffman"},
    "refactored": {},
}


class TestShardIsTheUnitThroughTheWire:
    SHAPE = (20, 10, 9)
    SHARD_BYTES = 5 * 10 * 9 * 8  # 4 shards of 5 rows

    def _stream(self, root, mode, n=2):
        frames = _frames(self.SHAPE, n)
        w = StepStreamWriter(root, self.SHAPE, shards=4, **_SHARDED_MODES[mode])
        for f in frames:
            w.append(f)
        return frames

    @pytest.mark.parametrize("mode", list(_SHARDED_MODES))
    def test_selectivity(self, tmp_path, monkeypatch, mode):
        """A get decodes the covering shards it is missing and no other;
        every reply is the direct read's bytes."""
        self._stream(tmp_path / "s", mode)
        direct = StepStreamReader(tmp_path / "s", cache_steps=0)
        decoded: list[int] = []
        orig = StepStreamReader._decode_shard
        monkeypatch.setattr(
            StepStreamReader,
            "_decode_shard",
            lambda self, rd, i: decoded.append(i) or orig(self, rd, i),
        )
        server = _serve(tmp_path / "s")
        try:
            with ServiceClient(port=server.port) as c:

                def get(step, region):
                    decoded.clear()
                    got, meta = c.get_region(step, region, with_meta=True)
                    seen = sorted(decoded)
                    want = direct.read_region(
                        step, tuple(slice(*(p or (None,))) for p in region or ())
                    )
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                    assert list(meta) == ["dtype", "shape", "step", "status", "id"]
                    return seen

                assert get(1, [[6, 9], [2, 7]]) == [1]  # inside shard 1 (rows 5:10)
                assert c.stats()["cache"]["bytes"] == self.SHARD_BYTES  # a shard, not a step
                assert get(1, [[5, 8]]) == []  # elsewhere in shard 1: a hit
                assert get(1, None) == [0, 2, 3]  # the full step: the missing three only
                assert get(1, None) == []
                assert get(0, [[8, 12], None, [0, 4]]) == [1, 2]  # straddles two shards
                assert c.stats()["cache"]["bytes"] == 6 * self.SHARD_BYTES
        finally:
            server.stop()

    def test_two_misses_on_one_shard_decode_it_once(self, tmp_path, monkeypatch):
        """Single-flight is per shard: different regions of one shard,
        missed by two connections at once, share one decode."""
        self._stream(tmp_path / "s", "zlib")
        decoded: list[int] = []
        entered, release = threading.Event(), threading.Event()
        orig = StepStreamReader._decode_shard

        def slow_decode(self, rd, i):
            decoded.append(i)
            entered.set()
            assert release.wait(30)
            return orig(self, rd, i)

        monkeypatch.setattr(StepStreamReader, "_decode_shard", slow_decode)
        server = _serve(tmp_path / "s")
        try:

            async def run():
                async with AsyncServiceClient(port=server.port) as a, \
                        AsyncServiceClient(port=server.port) as b:
                    first = asyncio.ensure_future(a.get_region(0, [[5, 7]]))
                    await asyncio.to_thread(entered.wait, 10)
                    second = asyncio.ensure_future(b.get_region(0, [[8, 10], [0, 3]]))
                    for _ in range(500):  # until the second request is parked on the first's decode
                        if (await a.stats())["batcher"]["joined"]:
                            break
                        await asyncio.sleep(0.01)
                    release.set()
                    return await asyncio.gather(first, second), await a.stats()

            (one, two), stats = asyncio.run(run())
            assert decoded == [1]
            assert stats["batcher"]["joined"] == 1
            assert one.shape == (2, 10, 9) and two.shape == (2, 3, 9)
        finally:
            release.set()
            server.stop()

    def test_failure_domains(self, tmp_path):
        """One corrupt shard costs its own rows, says so, and heals."""
        self._stream(tmp_path / "s", "zlib")
        path = tmp_path / "s" / "step_000000.rpsh"
        server = _serve(tmp_path / "s")
        try:
            svc = server.svc
            with ServiceClient(port=server.port) as c:
                clean = c.get_step(1)
                assert not np.isnan(clean).any()
                original = _corrupt_shard(path, 1)
                # a region inside the bad shard has nothing left to serve
                with pytest.raises(RemoteError, match="StreamError.*shards covering"):
                    c.get_region(0, [[6, 9]])
                assert 0 in svc._reader.quarantined
                # the full step: that shard's rows NaN, the rest exact
                got, meta = c.get_step(0, with_meta=True)
                assert meta["degraded"] is True and meta["served"] == 0
                assert meta["failed_extents"] == [[5, 10]]
                assert np.isnan(got[5:10]).all()
                path.write_bytes(original)
                healed, healed_meta = c.get_step(0, with_meta=True)
                assert "degraded" not in healed_meta and not np.isnan(healed).any()
                keep = np.r_[0:5, 10:20]
                assert got[keep].tobytes() == healed[keep].tobytes()
                # the good shards were cached while the bad one was not:
                # the repaired read decoded exactly one shard
                direct = StepStreamReader(tmp_path / "s", cache_steps=0)
                assert healed.tobytes() == direct.read_step(0).tobytes()
                assert svc.batcher.stats()["errors"] == 2  # shard 1, twice; never since

                async def both_halves():
                    async with AsyncServiceClient(port=server.port) as a:
                        return await a.get_region(1, [[3, 12]], with_meta=True)

                _corrupt_shard(tmp_path / "s" / "step_000001.rpsh", 1)
                svc.cache.clear()  # as if evicted
                got, meta = asyncio.run(both_halves())
                assert meta["degraded"] is True and meta["failed_extents"] == [[5, 10]]
                assert got[:2].tobytes() == clean[3:5].tobytes()
                assert got[7:].tobytes() == clean[10:12].tobytes()
                assert np.isnan(got[2:7]).all()
        finally:
            server.stop()

    def test_every_covering_shard_corrupt_is_an_error_and_quarantines(self, tmp_path):
        self._stream(tmp_path / "s", "refactored")
        for i in range(4):
            _corrupt_shard(tmp_path / "s" / "step_000001.rpsh", i)
        server = _serve(tmp_path / "s")
        try:
            with ServiceClient(port=server.port) as c:
                with pytest.raises(RemoteError, match="StreamError"):
                    c.get_step(1)
                assert 1 in server.svc._reader.quarantined
                assert c.stats()["cache"]["entries"] == 0
                assert not np.isnan(c.get_step(0)).any()  # the stream still serves
        finally:
            server.stop()


class TestFollowStream:
    def test_follows_live_writer_with_backoff(self, tmp_path):
        shape = (9, 8)
        frames = _frames(shape, 5)
        root = tmp_path / "s"
        w = StepStreamWriter(root, shape)
        w.append(frames[0])

        def produce():
            for f in frames[1:]:
                time.sleep(0.04)
                w.append(f)

        t = threading.Thread(target=produce)
        t.start()
        try:
            seen = list(follow_stream(root, stop=5, timeout=10.0))
        finally:
            t.join()
        assert [s for s, _ in seen] == [0, 1, 2, 3, 4]
        for s, field in seen:
            assert np.allclose(field, frames[s])

    def test_timeout_ends_iteration(self, tmp_path):
        w = StepStreamWriter(tmp_path / "s", (9, 8))
        w.append(_frames((9, 8), 1)[0])
        seen = list(follow_stream(tmp_path / "s", timeout=0.08))
        assert len(seen) == 1  # step 0, then the wait for step 1 times out


class TestChaosKillReconnect:
    def test_sigkill_reconnect_converge(self):
        rec = _chaos_case((9, 8))
        assert rec["pre_kill_read_ok"]
        assert rec["read_after_kill_ok"]
        assert rec["converged"]
        assert rec["reconnects"] >= 1
        assert rec["steps_after"] == 6


# ----------------------------------------------------------------------
# executor submit() seam


class TestExecutorSubmit:
    def test_serial_submit_resolves_inline(self):
        from repro.parallel.executors import SerialExecutor

        fut = SerialExecutor().submit(lambda a, b: a + b, 2, 3)
        assert fut.done() and fut.result() == 5

    def test_thread_submit(self):
        from repro.parallel.executors import ThreadExecutor

        ex = ThreadExecutor(2)
        try:
            assert ex.submit(sum, (1, 2, 3)).result(5) == 6
        finally:
            ex.shutdown()

    def test_process_submit_unpicklable_falls_back_inline(self):
        from repro.parallel.executors import ProcessExecutor

        ex = ProcessExecutor(max_workers=2)
        try:
            fut = ex.submit(lambda: 41 + 1)  # lambdas don't pickle
            assert fut.result(5) == 42
        finally:
            ex.shutdown()
