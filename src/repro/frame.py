"""The one container frame of the storage stack.

Every on-disk container — refactored classes (``RPRC``), sharded steps
(``RPSH``), compressed blobs (``RPMG``) — is the same frame::

    magic (6 B) | header length (<Q) | JSON header | extents, back to back

The header carries one *extent table* (under the key :data:`TABLES`
names for the magic) whose rows hold at least ``offset`` (from the end
of the header), ``nbytes`` and ``crc32``.  This module is the only code
that packs (:func:`emit`, :func:`table`) or parses (:func:`parse`,
:meth:`Frame.extent` — the single ranged read) that frame, and it
trusts no byte it has not checked: the header length is compared with
the bytes actually present before anything is read or allocated, and a
table row is validated when (and only when) its extent is read, so one
defective row costs one extent, not the container.  Every defect is a
:class:`~repro.errors.ContainerError`.

Imports only :mod:`repro.errors` and :mod:`repro.faults`, so
``repro.io`` and ``repro.compress`` both build on it without an import
cycle (``repro-lint`` keeps :mod:`struct` out of both).
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from . import faults
from .errors import ContainerError

__all__ = ["RPRC", "RPSH", "RPMG", "TABLES", "Frame", "emit", "parse", "table"]

RPRC = b"RPRC\x01\x00"  #: refactored coefficient classes (``io/container.py``)
RPSH = b"RPSH\x01\x00"  #: sharded step; every extent is itself a container
RPMG = b"RPMG\x01\x00"  #: compressed blob (``compress/fileio.py``)

#: magic -> (header key of the extent table, what one row is called)
TABLES = {
    RPRC: ("classes", "class"),
    RPSH: ("shards", "shard"),
    RPMG: ("extents", "payload"),
}

_LEN = struct.Struct("<Q")
_PREFIX = len(RPRC) + _LEN.size
# read with the prefix, so the usual header costs no second read
_HEADER_GUESS = 4096


def table(payloads) -> list[dict]:
    """The ``offset``/``nbytes``/``crc32`` rows of back-to-back extents."""
    rows = []
    offset = 0
    for p in payloads:
        rows.append({"offset": offset, "nbytes": len(p), "crc32": zlib.crc32(p)})
        offset += len(p)
    return rows


def emit(f, magic: bytes, header: dict, payloads) -> int:
    """Write one frame to the open binary stream ``f``; returns its size.

    ``header`` already holds the extent table: :func:`table` rows, plus
    whatever the format adds, under ``TABLES[magic][0]``.
    """
    hbytes = json.dumps(header).encode()
    f.write(magic)
    f.write(_LEN.pack(len(hbytes)))
    f.write(hbytes)
    for p in payloads:
        f.write(p)
    return _PREFIX + len(hbytes) + sum(len(p) for p in payloads)


class Frame:
    """A parsed frame header plus ranged access to its extents.

    ``magic``, ``header``, ``rows`` (the extent table, unvalidated until
    read), ``label`` (what a row is called), ``payload_start``, ``size``
    (bytes present), ``name`` and ``path`` (``None`` in memory).  A
    path-backed frame seeks per extent, so a class-prefix or
    shard-subset read touches only those extents.
    """

    def __init__(self, source: str | memoryview, name: str):
        self._source = source
        self.path = source if isinstance(source, str) else None
        self.name = name
        self.size = len(source) if self.path is None else os.stat(source).st_size
        head = self._read(0, _PREFIX + _HEADER_GUESS)
        self.magic = head[: len(RPRC)]
        if self.magic not in TABLES:
            raise ContainerError(f"bad magic in {name}")
        if len(head) < _PREFIX:
            raise ContainerError(
                f"truncated header length in {name} (offset {len(RPRC)}: "
                f"got {len(head) - len(RPRC)} of {_LEN.size} bytes)"
            )
        (hlen,) = _LEN.unpack_from(head, len(RPRC))
        self.payload_start = _PREFIX + hlen
        if self.payload_start <= len(head):
            raw = head[_PREFIX : self.payload_start]
        elif self.payload_start <= self.size:
            raw = self._read(_PREFIX, hlen)
        else:
            raw = b""  # an untrusted length past the end: nothing is read
        if len(raw) != hlen:
            raise ContainerError(
                f"truncated header in {name} (offset {_PREFIX}: "
                f"got {max(self.size - _PREFIX, 0)} of {hlen} bytes)"
            )
        try:
            self.header = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise ContainerError(f"corrupt header in {name}") from e
        key, self.label = TABLES[self.magic]
        if not isinstance(self.header, dict) or not isinstance(self.header.get(key), list):
            raise ContainerError(f"header in {name} missing its {self.label} table")
        self.rows = self.header[key]

    def _read(self, offset: int, nbytes: int) -> bytes:
        if self.path is None:
            return bytes(self._source[offset : offset + nbytes])
        with open(self.path, "rb") as f:
            f.seek(offset)
            return f.read(nbytes)

    def row(self, i: int) -> tuple[int, int, int]:
        """Row ``i`` of the extent table as validated ``(offset, nbytes,
        crc32)``: non-negative integers, the extent inside the source."""
        what = f"{self.label} {i}"
        if not 0 <= i < len(self.rows):
            raise ContainerError(
                f"{what} out of range [0, {len(self.rows)}) in {self.name}"
            )
        row = self.rows[i]
        try:
            fields = row["offset"], row["nbytes"], row["crc32"]
        except (KeyError, TypeError) as e:
            raise ContainerError(f"malformed {what} table row in {self.name}") from e
        # bool is an int to isinstance; a JSON true is not an offset
        if any(type(v) is not int or v < 0 for v in fields):
            raise ContainerError(f"malformed {what} table row in {self.name}: {row!r}")
        offset, nbytes, _ = fields
        if self.payload_start + offset + nbytes > self.size:
            raise ContainerError(
                f"truncated {what} in {self.name} (offset "
                f"{self.payload_start + offset}: {nbytes} bytes end past the "
                f"{self.size} present)"
            )
        return fields

    def extent(self, i: int, verify: bool = True, site: str | None = None) -> bytes:
        """Extent ``i``, bounds-, length- and (``verify``) CRC-checked.

        ``site`` names the fault site this read is (``container.read.*``,
        ``fileio.read.payload``): armed ``truncate``/``bitflip`` faults
        corrupt the bytes *after* the read (on the wire, in the page
        cache) for the length and CRC checks to catch; ``delay`` models
        a slow device.
        """
        offset, nbytes, crc32 = self.row(i)
        what = f"{self.label} {i}"
        start = self.payload_start + offset
        raw = self._read(start, nbytes)
        if site is not None:
            # reprolint: site container.read.* fileio.read.payload
            faults.delay_point(site)
            # reprolint: site container.read.* fileio.read.payload
            raw = faults.corrupt_bytes(site, raw)
        if len(raw) != nbytes:
            raise ContainerError(
                f"truncated {what} in {self.name} "
                f"(offset {start}: got {len(raw)} of {nbytes} bytes)"
            )
        if verify and zlib.crc32(raw) != crc32:
            raise ContainerError(
                f"checksum mismatch for {what} in {self.name} "
                f"(offset {start}, {nbytes} bytes)"
            )
        return raw


def parse(source, want: bytes | None = None) -> Frame:
    """Parse the frame header of ``source``: a path, an open binary
    stream (read to its end), a bytes-like, or a :class:`Frame` (returned
    as is).  ``want`` demands one magic.  A missing file is the caller's
    ``OSError``; everything wrong with the bytes is a
    :class:`ContainerError`.
    """
    if isinstance(source, Frame):
        fr = source
    elif hasattr(source, "read"):
        fr = Frame(memoryview(source.read()), getattr(source, "name", "<stream>"))
    elif isinstance(source, (bytes, bytearray, memoryview)):
        fr = Frame(memoryview(source), "<bytes>")
    else:
        path = os.fspath(source)
        fr = Frame(path, path)
    if want is not None and fr.magic != want:
        raise ContainerError(f"bad magic in {fr.name}")
    return fr
