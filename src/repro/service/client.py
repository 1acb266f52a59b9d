"""Clients for the compression service.

Two flavours over the same wire protocol (:mod:`repro.service.protocol`):

:class:`ServiceClient`
    Blocking, one request in flight at a time — the ergonomic choice
    for scripts and notebooks.  Transparently **reconnects** when the
    server restarts (idempotent requests are retried; ``put_step`` is
    not, since a retry after an uncertain outcome could double-append),
    and **backs off** on ``status: busy`` shedding before surfacing
    :class:`~repro.service.protocol.BusyError`.  Response bodies are
    received straight into one pre-sized buffer and wrapped by
    ``np.frombuffer`` — no copies on the read path.

:class:`AsyncServiceClient`
    asyncio, **pipelined**: many requests may be in flight on one
    connection; a background task matches responses to callers by
    request id.  This is what the load generator in
    ``benchmarks/bench_service.py`` uses to model open-loop arrivals.
    Shedding surfaces immediately as :class:`BusyError` so callers can
    implement (and measure) their own retry policy.

Both return decoded steps/regions as ``np.ndarray``; pass
``with_meta=True`` to also get the response header — for progressive-
precision requests it carries ``level`` / ``n_levels`` /
``error_bound`` / ``final``.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time

import numpy as np

from . import protocol
from .protocol import BusyError, ProtocolError, RemoteError, ServiceError

__all__ = ["ServiceClient", "AsyncServiceClient"]

# the sync client's pause after a busy reply, doubled per retry up to the cap
_BUSY_DELAY_S = 0.002
_MAX_BUSY_DELAY_S = 0.1


def _array_of(resp: dict, body) -> np.ndarray:
    """Wrap a response body as the ndarray its header describes (no copy)."""
    arr = np.frombuffer(body, dtype=np.dtype(resp["dtype"]))
    return arr.reshape(resp["shape"])


def _raise_remote(resp: dict) -> None:
    if resp.get("status") == "error":
        raise RemoteError(resp.get("error", "unspecified server error"))


class ServiceClient:
    """Blocking client with reconnect and busy-backoff (see module docs).

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Socket timeout per send/recv, seconds.
    reconnect:
        Attempts to re-establish a dropped connection (per request)
        before giving up; ``0`` disables reconnection.
    reconnect_delay:
        Initial pause before a reconnect attempt; doubles per attempt.
    busy_retries:
        How many times a shed request is retried (with backoff) before
        :class:`BusyError` reaches the caller.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9753,
        *,
        timeout: float = 30.0,
        reconnect: int = 5,
        reconnect_delay: float = 0.05,
        busy_retries: int = 8,
    ):
        self.host, self.port = host, int(port)
        self.timeout = timeout
        self.reconnect = int(reconnect)
        self.reconnect_delay = float(reconnect_delay)
        self.busy_retries = int(busy_retries)
        self._sock: socket.socket | None = None
        self._ids = itertools.count(1)
        self.reconnects = 0  # total successful re-establishments

    # ------------------------------------------------------------------
    # connection management

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop(self) -> None:
        self.close()

    def _reconnect_or_raise(self, err: Exception) -> None:
        """Re-establish the transport after ``err``, with backoff."""
        delay = self.reconnect_delay
        for _ in range(self.reconnect):
            time.sleep(delay)
            delay = min(delay * 2, 1.0)
            try:
                self.connect()
                self.reconnects += 1
                return
            except OSError:
                self._drop()
        raise ConnectionError(
            f"lost connection to {self.host}:{self.port} and could not "
            f"reconnect after {self.reconnect} attempts"
        ) from err

    # ------------------------------------------------------------------
    # request plumbing

    def _request(
        self, header: dict, body=b"", *, idempotent: bool = True
    ) -> tuple[dict, bytearray]:
        busy_left = self.busy_retries
        pause = _BUSY_DELAY_S
        attempts = self.reconnect + 1
        while True:
            self.connect()
            rid = next(self._ids)
            header["id"] = rid
            try:
                protocol.send_frame_sync(self._sock, header, body)
                resp, payload = protocol.recv_frame_into(self._sock)
            except (ConnectionError, ProtocolError, OSError, socket.timeout) as e:
                self._drop()
                if not idempotent or attempts <= 1:
                    raise ConnectionError(
                        f"connection to {self.host}:{self.port} failed "
                        f"mid-request: {e}"
                    ) from e
                attempts -= 1
                self._reconnect_or_raise(e)
                continue
            if resp.get("id") not in (None, rid):
                # a stale response from before a reconnect — drop the
                # transport so request/response pairing resynchronizes
                self._drop()
                raise ProtocolError(
                    f"response id {resp.get('id')} does not match request {rid}"
                )
            if resp.get("status") == "busy":
                if busy_left <= 0:
                    raise BusyError(
                        f"server shed the request {self.busy_retries + 1} times"
                    )
                busy_left -= 1
                time.sleep(pause)
                pause = min(pause * 2, _MAX_BUSY_DELAY_S)
                continue
            _raise_remote(resp)
            return resp, payload

    # ------------------------------------------------------------------
    # ops

    def ping(self) -> bool:
        resp, _ = self._request({"op": "ping"})
        return bool(resp.get("pong"))

    def info(self) -> dict:
        resp, _ = self._request({"op": "info"})
        return {k: v for k, v in resp.items() if k not in ("id", "status")}

    def stats(self) -> dict:
        resp, _ = self._request({"op": "stats"})
        return resp["stats"]

    def put_step(self, field: np.ndarray, time: float | None = None) -> int:
        """Append one step; returns its index. Not retried on a dropped
        connection (the outcome would be uncertain)."""
        field = np.ascontiguousarray(field, dtype=np.float64)
        header = {
            "op": "put_step",
            "shape": list(field.shape),
            "dtype": field.dtype.str,
        }
        if time is not None:
            header["time"] = float(time)
        resp, _ = self._request(header, field.data.cast("B"), idempotent=False)
        return int(resp["step"])

    def get_step(
        self,
        step: int,
        *,
        level: int | None = None,
        wait: float = 0.0,
        with_meta: bool = False,
    ):
        """Fetch one full decoded step (optionally a progressive level)."""
        return self.get_region(
            step, None, level=level, wait=wait, with_meta=with_meta
        )

    def get_region(
        self,
        step: int,
        region,
        *,
        level: int | None = None,
        wait: float = 0.0,
        with_meta: bool = False,
    ):
        """Fetch ``field[region]`` of a step; ``region`` is a list of
        ``[lo, hi]`` pairs (or ``None`` entries for whole axes)."""
        header: dict = {"op": "get_region", "step": int(step)}
        if region is not None:
            header["region"] = [
                None if r is None else [int(r[0]), int(r[1])] for r in region
            ]
        if level is not None:
            header["level"] = int(level)
        if wait:
            header["wait"] = float(wait)
        resp, body = self._request(header)
        arr = _array_of(resp, body)
        return (arr, resp) if with_meta else arr

    def wait_step(self, step: int, timeout: float = 30.0) -> bool:
        resp, _ = self._request(
            {"op": "wait_step", "step": int(step), "timeout": float(timeout)}
        )
        return bool(resp["ready"])


class AsyncServiceClient:
    """Pipelining asyncio client (see module docstring).

    Use as an async context manager, or ``await connect()`` /
    ``await close()`` explicitly.  Any number of requests may be in
    flight concurrently; responses are matched to callers by id.  A
    dropped connection fails every pending request with
    :class:`ConnectionError` — reconnection policy is the caller's
    (the benchmark's chaos mode exercises exactly this).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 9753):
        self.host, self.port = host, int(port)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pump: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._wlock = asyncio.Lock()

    async def connect(self) -> "AsyncServiceClient":
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            self._pump = asyncio.ensure_future(self._pump_responses())
        return self

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        pump, self._pump = self._pump, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if pump is not None:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, Exception):
                pass
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------

    def _fail_pending(self, err: Exception) -> None:
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(err)

    async def _pump_responses(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    raise ConnectionError("server closed the connection")
                resp, body = frame
                fut = self._pending.pop(resp.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((resp, body))
        except asyncio.CancelledError:
            raise
        except Exception as e:
            self._fail_pending(
                e
                if isinstance(e, (ConnectionError, ProtocolError))
                else ConnectionError(f"connection lost: {e}")
            )

    async def _request(self, header: dict, body=b"") -> tuple[dict, bytes]:
        if self._writer is None:
            raise ServiceError("not connected (await connect() first)")
        rid = next(self._ids)
        header["id"] = rid
        fut = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        try:
            async with self._wlock:
                await protocol.send_frame(self._writer, header, body)
        except (ConnectionError, OSError) as e:
            self._pending.pop(rid, None)
            raise ConnectionError(f"send failed: {e}") from e
        try:
            resp, payload = await fut
        finally:
            self._pending.pop(rid, None)
        if resp.get("status") == "busy":
            raise BusyError("server shed the request")
        _raise_remote(resp)
        return resp, payload

    # ------------------------------------------------------------------
    # ops (mirroring ServiceClient)

    async def ping(self) -> bool:
        resp, _ = await self._request({"op": "ping"})
        return bool(resp.get("pong"))

    async def info(self) -> dict:
        resp, _ = await self._request({"op": "info"})
        return {k: v for k, v in resp.items() if k not in ("id", "status")}

    async def stats(self) -> dict:
        resp, _ = await self._request({"op": "stats"})
        return resp["stats"]

    async def put_step(self, field: np.ndarray, time: float | None = None) -> int:
        field = np.ascontiguousarray(field, dtype=np.float64)
        header = {
            "op": "put_step",
            "shape": list(field.shape),
            "dtype": field.dtype.str,
        }
        if time is not None:
            header["time"] = float(time)
        resp, _ = await self._request(header, field.data.cast("B"))
        return int(resp["step"])

    async def get_step(
        self,
        step: int,
        *,
        level: int | None = None,
        wait: float = 0.0,
        with_meta: bool = False,
    ):
        return await self.get_region(
            step, None, level=level, wait=wait, with_meta=with_meta
        )

    async def get_region(
        self,
        step: int,
        region,
        *,
        level: int | None = None,
        wait: float = 0.0,
        with_meta: bool = False,
    ):
        header: dict = {"op": "get_region", "step": int(step)}
        if region is not None:
            header["region"] = [
                None if r is None else [int(r[0]), int(r[1])] for r in region
            ]
        if level is not None:
            header["level"] = int(level)
        if wait:
            header["wait"] = float(wait)
        resp, body = await self._request(header)
        arr = _array_of(resp, body)
        return (arr, resp) if with_meta else arr

    async def wait_step(self, step: int, timeout: float = 30.0) -> bool:
        resp, _ = await self._request(
            {"op": "wait_step", "step": int(step), "timeout": float(timeout)}
        )
        return bool(resp["ready"])
