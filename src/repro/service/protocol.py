"""Wire protocol of the compression service: length-prefixed JSON + binary.

One frame carries one request or one response::

    magic   4 bytes   b"RPS1"
    hlen    u32 LE    JSON header length
    blen    u64 LE    binary body length
    header  hlen bytes of UTF-8 JSON (op / id / params, or status)
    body    blen bytes of raw payload (ndarray bytes, or empty)

The split keeps the hot path **zero-copy**: a response's body is written
to the transport as one :class:`memoryview` per decoded (often cached)
array, a step's shards back to back — the 20-byte prefix and the JSON
header are the only bytes ever assembled per frame, and nothing is joined
into an intermediate ``bytes`` blob.  On the sync client the body is
received straight into one pre-sized ``bytearray`` (``recv_into``),
which :func:`numpy.frombuffer` then wraps without another copy.

Malformed input maps to :class:`ProtocolError` — bad magic, oversized
header/body (both bounded, so a hostile or corrupt peer cannot make the
server allocate unbounded memory), truncated frames (a peer dying
mid-frame surfaces as a clean error, never a hang: reads are
length-driven, so a short stream fails ``readexactly`` immediately at
EOF).
"""

from __future__ import annotations

import asyncio
import json
import struct

__all__ = [
    "MAGIC",
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "ServiceError",
    "ProtocolError",
    "RemoteError",
    "BusyError",
    "frame_prefix",
    "parse_prefix",
    "read_frame",
    "send_frame",
    "recv_frame_into",
    "send_frame_sync",
]

MAGIC = b"RPS1"

#: default bounds a reader enforces before allocating anything
MAX_HEADER_BYTES = 1 << 20
MAX_BODY_BYTES = 1 << 30

_PREFIX = struct.Struct("<4sIQ")


class ServiceError(RuntimeError):
    """Base class of every service-layer error."""


class ProtocolError(ServiceError):
    """Malformed, truncated, or oversized frame on the wire."""


class RemoteError(ServiceError):
    """The server replied ``status: error`` (the message travels along)."""


class BusyError(ServiceError):
    """The server shed the request (``status: busy`` — 429-style).

    Raised client-side once busy retries are exhausted (or immediately
    when retries are disabled); the request was never enqueued
    server-side, so retrying later is always safe.
    """


def frame_prefix(header: dict, body_len: int) -> bytes:
    """Serialize a frame's prefix + JSON header (the only assembled bytes).

    The body is deliberately *not* part of the result — callers write it
    separately (``writer.write(memoryview)`` / ``socket.sendmsg``), so a
    multi-megabyte payload is never copied into a joined buffer.
    """
    hraw = json.dumps(header, separators=(",", ":")).encode()
    if len(hraw) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {len(hraw)} bytes exceeds {MAX_HEADER_BYTES}")
    return _PREFIX.pack(MAGIC, len(hraw), body_len) + hraw


def parse_prefix(raw: bytes, *, max_header: int = MAX_HEADER_BYTES,
                 max_body: int = MAX_BODY_BYTES) -> tuple[int, int]:
    """Validate a 16-byte frame prefix; returns (header_len, body_len)."""
    if len(raw) != _PREFIX.size:
        raise ProtocolError(
            f"truncated frame prefix: got {len(raw)} of {_PREFIX.size} bytes"
        )
    magic, hlen, blen = _PREFIX.unpack(raw)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if hlen > max_header:
        raise ProtocolError(f"header of {hlen} bytes exceeds limit {max_header}")
    if blen > max_body:
        raise ProtocolError(f"body of {blen} bytes exceeds limit {max_body}")
    return hlen, blen


def _parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"unparseable frame header: {e}") from e
    if not isinstance(header, dict):
        raise ProtocolError("frame header is not a JSON object")
    return header


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_header: int = MAX_HEADER_BYTES,
    max_body: int = MAX_BODY_BYTES,
) -> tuple[dict, bytes] | None:
    """Read one frame; ``None`` on a clean EOF *between* frames.

    EOF inside a frame — the peer died mid-send — raises
    :class:`ProtocolError` (never hangs: every read knows its exact
    length).  Oversized declarations fail *before* any allocation.
    """
    try:
        raw = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as e:
        if not e.partial:  # clean close between frames
            return None
        raise ProtocolError(
            f"connection closed inside a frame prefix "
            f"({len(e.partial)} of {_PREFIX.size} bytes)"
        ) from e
    hlen, blen = parse_prefix(raw, max_header=max_header, max_body=max_body)
    try:
        hraw = await reader.readexactly(hlen)
        body = await reader.readexactly(blen) if blen else b""
    except asyncio.IncompleteReadError as e:
        raise ProtocolError(
            f"connection closed inside a frame "
            f"(got {len(e.partial)} of {e.expected} bytes)"
        ) from e
    return _parse_header(hraw), body


def _as_byte_view(body) -> memoryview:
    """Flat ``B``-format view of any bytes-like, without copying."""
    mv = body if isinstance(body, memoryview) else memoryview(body)
    if mv.ndim != 1 or mv.format != "B":
        mv = mv.cast("B")
    return mv


async def send_frame(
    writer: asyncio.StreamWriter, header: dict, body=b"",
) -> None:
    """Write one frame; ``body`` may be any bytes-like (``memoryview`` of
    a cached array included) or a sequence of them — a step's cached
    shards — handed to the transport as they are, back to back."""
    views = [_as_byte_view(b) for b in (body if isinstance(body, (list, tuple)) else (body,))]
    writer.write(frame_prefix(header, sum(mv.nbytes for mv in views)))
    for mv in views:
        if mv.nbytes:
            writer.write(mv)
    await writer.drain()


# ----------------------------------------------------------------------
# blocking (sync-client) counterparts


def _recv_exactly_into(sock, view: memoryview, what: str) -> None:
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if n == 0:
            raise ProtocolError(
                f"connection closed inside a frame ({got} of {len(view)} "
                f"{what} bytes)"
            )
        got += n


def recv_frame_into(
    sock,
    *,
    max_header: int = MAX_HEADER_BYTES,
    max_body: int = MAX_BODY_BYTES,
) -> tuple[dict, bytearray]:
    """Blocking read of one frame; the body lands in one pre-sized
    ``bytearray`` (no per-chunk joins — ``np.frombuffer`` wraps it
    copy-free)."""
    prefix = bytearray(_PREFIX.size)
    _recv_exactly_into(sock, memoryview(prefix), "prefix")
    hlen, blen = parse_prefix(bytes(prefix), max_header=max_header, max_body=max_body)
    hraw = bytearray(hlen)
    _recv_exactly_into(sock, memoryview(hraw), "header")
    body = bytearray(blen)
    if blen:
        _recv_exactly_into(sock, memoryview(body), "body")
    return _parse_header(bytes(hraw)), body


def send_frame_sync(sock, header: dict, body=b"") -> None:
    """Blocking frame write; scatter-gathers prefix + body via
    ``sendmsg`` where available (no join), ``sendall`` otherwise."""
    mv = _as_byte_view(body)
    prefix = frame_prefix(header, mv.nbytes)
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is not None and mv.nbytes:
        total = len(prefix) + mv.nbytes
        sent = sock.sendmsg([memoryview(prefix), mv])
        if sent < total:
            # short scatter-gather write (tiny socket buffer): finish
            # the remainder with sendall on flat views — no joins
            if sent < len(prefix):
                sock.sendall(memoryview(prefix)[sent:])
                sock.sendall(mv)
            else:
                sock.sendall(mv[sent - len(prefix):])
        return
    sock.sendall(prefix)
    if mv.nbytes:
        sock.sendall(mv)
