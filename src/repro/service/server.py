"""The asyncio compression service: ingest + retrieval over one stream.

:class:`CompressionService` serves a stream directory (see
:mod:`repro.io.stream`) to remote clients over the length-prefixed
JSON+binary protocol of :mod:`repro.service.protocol`:

``put_step``
    Ingest one frame: the body's ndarray bytes flow into
    :meth:`StepStreamWriter.append <repro.io.stream.StepStreamWriter.
    append>` — the per-shard / per-class fan-out runs on the executor
    layer (``config.executor``), the commit is the same atomic publish
    every local writer uses.  Writes are serialized (the compressed
    mode's prediction loop is stateful in stream order); a failed
    ``put_step`` leaves the writer ready for the next one.

``get_step`` / ``get_region``
    Retrieval, engineered for tail latency.  The unit of work is what
    decodes alone — one **shard** of a sharded step (a request touches
    only the shards its rows cover), else the whole step:

    * an :class:`~repro.cache.LRUCache` keyed by
      ``(generation, step, level, shard)`` holds decoded units, so random
      access stops re-decoding (or re-rolling the key-frame chain);
    * an adaptive :class:`~repro.service.batcher.MicroBatcher`
      coalesces concurrent requests for the same key into **one**
      decode broadcast to all of them;
    * responses are assembled **zero-copy**: the body written to the
      transport is one ``memoryview`` per (cached) unit, back to back —
      no intermediate ``bytes`` joins on the hot path;
    * decodes run on a thread pool (NumPy releases the GIL; sharded
      decodes hold no reader lock, so a request's missing shards decode
      together), keeping the event loop free to accept, shed, and reply;
    * a recovered read (a failed shard's rows NaN, a chain rolled back)
      says so in the reply header — ``degraded`` / ``served`` /
      ``failed_extents`` — and is never cached.

``get_region(level=k)``
    Progressive-precision retrieval — the paper's accuracy-driven
    showcase as an API: level ``k`` reconstructs from the first ``k``
    coefficient classes of a refactored stream and reports the
    manifest's truncation estimate as the advertised ``error_bound`` —
    the estimated L2(domain) error of the prefix, which tracks the true
    L2 error within the multilevel equivalence constant (see
    :mod:`repro.core.snorm`); the final level has bound ``0.0`` and is
    byte-identical to a direct full-precision read.

**Backpressure:** each connection may have at most ``conn_inflight``
requests in flight (plus a global ``max_inflight`` cap).  Beyond that
the server *sheds*: an immediate ``status: busy`` reply (429-style)
instead of unbounded buffering, so overload degrades into fast
rejections rather than collapsing tail latency for everyone.

Startup primes every pool (decode threads, and — satellite of the
measured-p99 story — ``ProcessExecutor.prime()`` on the codec
executor), so the first request never pays pool-fork latency.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cache import LRUCache
from ..io.stream import (
    MAX_POLL_INTERVAL_S,
    POLL_INTERVAL_S,
    StepStreamReader,
    StepStreamWriter,
    StreamError,
)
from ..parallel.executors import ThreadExecutor, available_workers, get_executor
from . import protocol
from .batcher import MicroBatcher
from .protocol import ProtocolError, ServiceError

__all__ = ["ServiceConfig", "CompressionService", "serve", "main"]


@dataclass
class ServiceConfig:
    """Everything a :class:`CompressionService` needs to run.

    ``batching=False`` and ``cache_bytes=0`` together form the *naive*
    configuration the service benchmark compares against: every request
    decodes on its own.  Ingest settings (``tol``/``backend``/
    ``key_interval``/``shards``/``durability``) apply when the first
    ``put_step`` creates the stream; serving an existing stream infers
    its mode from the manifest.
    """

    root: str | Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is ``service.port``
    batching: bool = True
    cache_bytes: int = 256 << 20
    conn_inflight: int = 32
    max_inflight: int = 128
    io_workers: int | None = None
    executor: str | None = None  # codec executor spec for the encode fan-out
    max_body: int = protocol.MAX_BODY_BYTES
    # ingest (lazy writer) settings
    tol: float | None = None
    backend: str = "huffman"
    key_interval: int = 16
    shards: int | None = None
    durability: str = "rename"


class CompressionService:
    """One server instance over one stream directory (see module docs)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.config.root = Path(config.root)
        self.cache = LRUCache(max_bytes=config.cache_bytes)
        self.batcher = MicroBatcher() if config.batching else MicroBatcher(max_window_s=0.0)
        self._io = ThreadExecutor(config.io_workers or max(2, available_workers()))
        self._codec = get_executor(config.executor)
        self._reader: StepStreamReader | None = None
        self._writer: StepStreamWriter | None = None
        self._write_lock: asyncio.Lock | None = None
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
        self.stats = {"requests": 0, "shed": 0, "errors": 0, "put_steps": 0}

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bind the listener; prime every pool before the first request.

        Pool start-up (thread spawn, and above all the process pool's
        fork) must not land inside a measured request: a service whose
        first ``put_step`` pays the codec pool's fork would report it
        as p99.
        """
        self._io.prime()
        prime = getattr(self._codec, "prime", None)
        if prime is not None:
            prime()
        self._write_lock = asyncio.Lock()
        self._open_reader()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("start() the service first")
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close(self) -> None:
        """Release pools (sync; safe after the loop is gone)."""
        self._io.shutdown()

    # ------------------------------------------------------------------
    # connection handling: bounded pipelining + load shedding

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tasks: set[asyncio.Task] = set()
        wlock = asyncio.Lock()
        try:
            while True:
                try:
                    frame = await protocol.read_frame(
                        reader, max_body=self.config.max_body
                    )
                except ProtocolError as e:
                    # a malformed frame poisons the byte stream — reply
                    # once (best effort) and drop the connection rather
                    # than resynchronize on garbage
                    await self._send(
                        writer, wlock, {"status": "error", "error": f"protocol: {e}"}
                    )
                    break
                if frame is None:  # clean EOF between frames
                    break
                header, body = frame
                self.stats["requests"] += 1
                rid = header.get("id")
                if (
                    len(tasks) >= self.config.conn_inflight
                    or self._inflight >= self.config.max_inflight
                ):
                    # shed instead of buffering: the reply is immediate
                    # and the request was never enqueued, so the client
                    # may safely retry after backing off
                    self.stats["shed"] += 1
                    await self._send(writer, wlock, {"id": rid, "status": "busy"})
                    continue
                task = asyncio.ensure_future(
                    self._dispatch(header, body, writer, wlock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, OSError):
            pass  # peer vanished; per-request replies already best-effort
        except asyncio.CancelledError:
            pass  # server shutdown: finish cleanly, not as a "failed" task
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _send(self, writer, wlock: asyncio.Lock, header: dict, body=b"") -> None:
        async with wlock:
            try:
                await protocol.send_frame(writer, header, body)
            except (ConnectionError, OSError):
                pass  # peer gone mid-reply; the read loop will notice

    async def _dispatch(self, header: dict, body, writer, wlock) -> None:
        rid = header.get("id")
        op = header.get("op")
        self._inflight += 1
        try:
            handler = _OPS.get(op)
            if handler is None:
                raise ServiceError(f"unknown op {op!r}")
            resp, payload = await handler(self, header, body)
            resp.setdefault("status", "ok")
        except asyncio.CancelledError:
            raise
        except (ServiceError, StreamError, ValueError, KeyError, TypeError, OSError) as e:
            self.stats["errors"] += 1
            resp, payload = {"status": "error", "error": f"{type(e).__name__}: {e}"}, b""
        finally:
            self._inflight -= 1
        resp["id"] = rid
        await self._send(writer, wlock, resp, payload)

    # ------------------------------------------------------------------
    # shared plumbing

    async def _offload(self, fn, *args):
        """Run blocking work on the decode pool; await its result."""
        return await asyncio.wrap_future(self._io.submit(fn, *args))

    def _open_reader(self) -> StepStreamReader | None:
        if self._reader is None and (self.config.root / "manifest.json").exists():
            # cache_steps=0: the service-level LRU owns caching (keyed by
            # level and shard too); double-storing would halve capacity
            self._reader = StepStreamReader(self.config.root, cache_steps=0)
        return self._reader

    def _require_reader(self) -> StepStreamReader:
        r = self._open_reader()
        if r is None:
            raise ServiceError(
                f"no stream at {self.config.root} yet (ingest with put_step first)"
            )
        return r

    def _ensure_writer(self, shape: tuple[int, ...]) -> StepStreamWriter:
        if self._writer is None:
            cfg = self.config
            self._writer = StepStreamWriter(
                cfg.root,
                shape,
                tol=cfg.tol,
                backend=cfg.backend,
                key_interval=cfg.key_interval,
                shards=cfg.shards,
                executor=self._codec,
                durability=cfg.durability,
            )
        elif tuple(self._writer.refactorer.shape) != shape:
            raise ServiceError(
                f"stream has shape {self._writer.refactorer.shape}, "
                f"put_step sent {shape}"
            )
        return self._writer

    async def _await_step(self, r: StepStreamReader, step: int, wait_s: float) -> bool:
        """Refresh (with :meth:`StepStreamReader.wait_for_step`'s
        exponential backoff) until ``step`` exists."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait_s
        interval = POLL_INTERVAL_S
        while True:
            n = await self._offload(r.refresh)
            if n > step:
                return True
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            await asyncio.sleep(min(interval, remaining))
            interval = min(interval * 2, MAX_POLL_INTERVAL_S)

    # ------------------------------------------------------------------
    # the decode path: cache → batcher → thread pool, one unit at a time

    async def _unit(self, r: StepStreamReader, step: int, level: int | None, shard: int | None):
        """One decoded unit — shard ``shard`` of a sharded step, the whole
        step of an unsharded one — as ``(array, recovery report)``."""
        key = (r.generation, step, level, shard)
        hit = self.cache.get(key)
        if hit is not None:
            return hit, None

        async def supplier():
            return await self._offload(self._decode_unit_sync, r, step, level, shard, key)

        if self.config.batching:
            return await self.batcher.run(key, supplier)
        return await supplier()

    def _decode_unit_sync(self, r: StepStreamReader, step, level, shard, key):
        report = None
        if shard is not None:
            field = r.read_shard(step, shard)
        elif level is not None or r.stream_mode == "refactored":
            k = len(r.steps[step]["class_bytes"]) if level is None else level
            field, _ = r.read(step, k=k)
        else:
            field = r.read_step(step)
            # the report is this thread's own: a sibling decode thread's
            # read cannot reset it between the read and this check
            report = r.last_recovery
        field.setflags(write=False)
        if report is None:
            self.cache.put(key, field)
        return field, report

    def _resolve_level(self, r: StepStreamReader, step: int, level):
        """Validate a progressive-precision level request.

        Returns ``(level, n_levels, error_bound, final)`` or ``None``
        for a full-precision request.
        """
        if level is None:
            return None
        if r.stream_mode != "refactored" or r.shard_bounds is not None:
            raise ServiceError(
                "progressive-precision levels need an unsharded 'refactored' "
                f"stream; this one is {r.stream_mode!r}"
                + (" (sharded)" if r.shard_bounds is not None else "")
            )
        ests = r.steps[step]["truncation_estimates"]
        n = len(ests)
        level = int(level)
        if not 1 <= level <= n:
            raise ServiceError(f"level must be in [1, {n}], got {level}")
        return level, n, float(ests[level - 1]), level == n

    def _region_slices(self, r: StepStreamReader, region) -> tuple[slice, ...]:
        if not isinstance(region, (list, tuple)):
            raise ServiceError("region must be a list of [lo, hi] pairs")
        if len(region) > len(r.shape):
            raise ServiceError(
                f"region has {len(region)} axes for a {len(r.shape)}-d grid"
            )
        out = []
        for pair, n in zip(region, r.shape):
            if pair is None:
                out.append(slice(None))
                continue
            try:
                lo, hi = (int(pair[0]), int(pair[1]))
            except (TypeError, ValueError, IndexError):
                raise ServiceError(f"bad region extent {pair!r}") from None
            lo, hi, _ = slice(lo, hi).indices(n)
            if hi <= lo:
                raise ServiceError(f"empty region extent {pair!r} on an axis of {n}")
            out.append(slice(lo, hi))
        return tuple(out)

    # ------------------------------------------------------------------
    # ops

    async def _op_ping(self, h, body):
        return {"pong": True}, b""

    async def _op_info(self, h, body):
        r = self._require_reader()
        await self._offload(r.refresh)
        levels = None
        if r.stream_mode == "refactored" and r.shard_bounds is None and r.steps:
            levels = len(r.steps[0]["truncation_estimates"])
        return {
            "shape": list(r.shape),
            "mode": r.stream_mode,
            "tol": r.tol,
            "n_steps": r.n_steps,
            "sharded": r.shard_bounds is not None,
            "levels": levels,
        }, b""

    async def _op_put_step(self, h, body):
        shape = tuple(int(s) for s in h["shape"])
        dtype = np.dtype(h.get("dtype", "<f8"))
        expected = int(np.prod(shape)) * dtype.itemsize
        if len(body) != expected:
            raise ServiceError(
                f"put_step body has {len(body)} bytes, expected {expected} "
                f"for shape {shape} dtype {dtype.str}"
            )
        arr = np.frombuffer(body, dtype=dtype).reshape(shape)
        if arr.dtype != np.float64:
            arr = arr.astype(np.float64)
        async with self._write_lock:
            if self._writer is None:
                await self._offload(self._ensure_writer, shape)
            else:
                self._ensure_writer(shape)
            idx = await self._offload(self._writer.append, arr, h.get("time"))
        self.stats["put_steps"] += 1
        return {"step": int(idx)}, b""

    async def _op_get_region(self, h, body):
        r = self._require_reader()
        step = int(h["step"])
        if step < 0:
            raise ServiceError(f"step must be >= 0, got {step}")
        if step >= r.n_steps:
            if not await self._await_step(r, step, float(h.get("wait", 0) or 0)):
                raise ServiceError(
                    f"no such step {step} (stream has {r.n_steps} steps)"
                )
        lv = self._resolve_level(r, step, h.get("level"))
        region = self._region_slices(r, h.get("region") or ())  # none: the full step
        if r.shard_bounds is None:
            field, report = await self._unit(r, step, None if lv is None else lv[0], None)
            pieces = [field[region]]
        else:
            # only the shards the region covers, the missing ones decoded
            # together; which failures the reply survives is the reader's call
            units = r.shards_covering(region)
            got = dict(zip(units, await asyncio.gather(
                *(self._unit(r, step, None, i) for i in units), return_exceptions=True
            )))

            def load(i):
                if isinstance(got[i], BaseException):
                    raise got[i]
                return got[i][0]

            pieces = list(r.shard_pieces(step, region, load))
            report = r.last_recovery
        shape = [sum(len(p) for p in pieces), *pieces[0].shape[1:]]
        resp = {"dtype": pieces[0].dtype.str, "shape": shape, "step": step}
        if lv is not None:
            level, n, bound, final = lv
            resp.update(level=level, n_levels=n, error_bound=bound, final=final)
        if report is not None:  # absent on clean reads: those replies keep their bytes
            resp.update(degraded=report.degraded, served=report.served,
                        failed_extents=report.failed_extents)
        # row-adjacent pieces back to back are the region's bytes; a piece
        # that is a contiguous view of a cached array is sent as it lies
        return resp, [np.ascontiguousarray(p).data.cast("B") for p in pieces]

    async def _op_wait_step(self, h, body):
        r = self._require_reader()
        step = int(h["step"])
        ready = step < r.n_steps or await self._await_step(
            r, step, float(h.get("timeout", 30.0))
        )
        return {"ready": bool(ready), "n_steps": r.n_steps}, b""

    async def _op_stats(self, h, body):
        return {"stats": self.server_stats()}, b""

    def server_stats(self) -> dict:
        out = dict(self.stats)
        out["inflight"] = self._inflight
        out["batching"] = self.config.batching
        out["cache"] = self.cache.stats()
        out["batcher"] = self.batcher.stats()
        if self._reader is not None:
            out["n_steps"] = self._reader.n_steps
        return out


_OPS = {
    "ping": CompressionService._op_ping,
    "info": CompressionService._op_info,
    "put_step": CompressionService._op_put_step,
    "get_step": CompressionService._op_get_region,  # region=None ⇒ full step
    "get_region": CompressionService._op_get_region,
    "wait_step": CompressionService._op_wait_step,
    "stats": CompressionService._op_stats,
}


async def serve(config: ServiceConfig) -> CompressionService:
    """Start a service (bound, primed, accepting); caller owns its loop."""
    svc = CompressionService(config)
    await svc.start()
    return svc


def main(argv: list[str] | None = None) -> int:
    """``repro-serve``: run a compression service over a stream directory."""
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__.split("\n")[0]
    )
    parser.add_argument("root", help="stream directory to serve (created on first put_step)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9753)
    parser.add_argument("--tol", type=float, default=None,
                        help="ingest in compressed mode with this L-inf bound")
    parser.add_argument("--backend", default="huffman")
    parser.add_argument("--key-interval", type=int, default=16)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--executor", default=None, metavar="SPEC",
                        help="codec executor for the encode fan-out "
                        "(serial, thread[:N], process[:N], auto)")
    parser.add_argument("--no-batch", action="store_true",
                        help="disable request coalescing (benchmark baseline)")
    parser.add_argument("--cache-bytes", type=int, default=256 << 20,
                        help="decoded-step cache budget (0 disables)")
    parser.add_argument("--conn-inflight", type=int, default=32)
    parser.add_argument("--max-inflight", type=int, default=128)
    parser.add_argument("--io-workers", type=int, default=None)
    parser.add_argument("--durability", default="rename", choices=("rename", "fsync"))
    args = parser.parse_args(argv)
    config = ServiceConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        batching=not args.no_batch,
        cache_bytes=args.cache_bytes,
        conn_inflight=args.conn_inflight,
        max_inflight=args.max_inflight,
        io_workers=args.io_workers,
        executor=args.executor,
        tol=args.tol,
        backend=args.backend,
        key_interval=args.key_interval,
        shards=args.shards,
        durability=args.durability,
    )

    async def run() -> None:
        svc = await serve(config)
        print(
            f"repro-serve: serving {svc.config.root} on {svc.host}:{svc.port} "
            f"(batching={'on' if config.batching else 'off'}, "
            f"cache={config.cache_bytes >> 20} MiB)",
            flush=True,
        )
        try:
            await svc.serve_forever()
        finally:
            await svc.stop()
            svc.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
