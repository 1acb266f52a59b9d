"""Lossless entropy backends for the compression pipeline.

The paper's MGARD workflow keeps its entropy stage ("ZLib lossless
compression") on the CPU; this module wraps :mod:`zlib` — each class
narrows to the smallest width k that holds its quantized bins and is
stored as k byte planes, low byte first, whose high planes are long runs
that ``Z_RLE`` deflate finds without a match search — and offers the
canonical Huffman coder as the other backend.

Batched class payloads use a *segmented* container (``format: 4``): one
payload, one header, but the header records per-segment offsets so the
per-class segments are independent work units.  The entropy stage has
one fan-out per direction — segments (and zlib sub-blocks) are the
jobs — and the bytes out do not depend on the executor (see
:mod:`repro.parallel.executors`).  The Huffman backend codes each
segment in one call (under the ``native`` kernel backend, one C call:
histogram, reuse guard, book build and codes), so it maps over
segments.  The zlib backend deflates a class whose byte planes reach
two fixed-size sub-blocks as independent sub-block streams (the
header's per-segment ``blocks`` list records their compressed extents),
and both of its directions are one ``executor.map`` of
:func:`_deflate` / :func:`zlib.decompress` over ndarray slices of one
buffer — every class's byte planes back to back on encode, the whole
payload on decode — so every job carries its own sub-block and nothing
else.

A Huffman segment is ``book | sync | bitstream`` (:mod:`.huffman`) and
its header row holds scalars only: ``offset``, ``nbytes``, ``n``,
``bits``, ``book`` (the packed book's byte count) and ``table_id`` or
``table_ref``.  Books and sync offsets are payload bytes, so the
container's payload CRC covers them.

For slowly-varying streams, pass a ``scratch`` dict (one per stream,
kept by the caller) and the Huffman backend reuses each class's code
book across calls: exact reuse ships no book, only ``table_ref``; drift
beyond a bits-per-symbol threshold, and ``refresh=True`` (key frames),
rebuild the book and ship it in full under a new ``table_id``.  The
guard and the rebuild are decided inside the segment's one encode call
(:func:`~repro.compress.huffman._encode`), from its histogram.  The
decoder caches each shipped book's decode tables under ``(class,
table_id)`` in its own scratch.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

from ..parallel.executors import SerialExecutor
from .huffman import _encode, _segment, huffman_decode, huffman_encode
from .huffman_unpack import _tables_from_book

__all__ = [
    "encode_classes",
    "decode_classes",
    "materialize_classes_header",
    "BACKENDS",
]

BACKENDS = ("zlib", "huffman")

# zlib sub-block size (bytes of a class's byte planes; a block may
# straddle two planes).  A class whose planes reach two blocks deflates
# as independently-schedulable sub-blocks, so a dominant class is more
# than one deflate job.  Deflate's 32 KiB window is tiny against this,
# so the ratio cost of restarting the dictionary per block is noise.
_ZLIB_BLOCK_BYTES = 1 << 18

# the header's names of the narrow widths; the planes have no byte order
_WIDTHS = ("|i1", "<i2", "<i4", "<i8")

# what ``executor=None`` means to the batched coders: run inline
_INLINE = SerialExecutor()

# rebuild a reused code book when the achieved bits/symbol degrade past
# this factor of the rate the book delivered on the data it was built
# from; escapes inflate the bit count directly (64 raw bits each), so
# this single signal covers both frequency drift and out-of-table churn
_REBUILD_BPS_RATIO = 1.15


def _narrow_dtype(values: np.ndarray) -> np.dtype:
    """Smallest signed integer dtype that holds every value."""
    if values.size == 0:
        return np.dtype(_WIDTHS[0])
    lo, hi = int(values.min()), int(values.max())
    for dt in map(np.dtype, _WIDTHS):
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return dt
    raise AssertionError("int64 always fits")  # pragma: no cover


# ----------------------------------------------------------------------
# zlib byte planes and sub-blocks


def _deflate(block: np.ndarray) -> bytes:
    """One ``Z_RLE`` deflate stream of ``block`` (zlib ignores the level)."""
    z = zlib.compressobj(strategy=zlib.Z_RLE)
    return z.compress(block) + z.flush()


def _unplane(raw: bytes, k: int, out: np.ndarray) -> None:
    """Rebuild int64 ``out`` from its ``k`` byte planes in ``raw``: sign-extend
    the top plane, then shift in the lower ones — no transposed copy."""
    planes = np.frombuffer(raw, np.uint8).reshape(k, out.size)
    out[...] = planes[-1].view(np.int8)
    for plane in planes[-2::-1]:
        out <<= 8
        out |= plane


def _zlib_extents(offset: int, nbytes: int) -> list[tuple[int, int]]:
    """Deterministic ``(offset, length)`` sub-block split of one class's
    ``nbytes`` bytes of planes starting at ``offset``.

    Purely a function of the raw length, never of the executor, so the
    emitted container bytes are identical for every backend.
    """
    if nbytes < 2 * _ZLIB_BLOCK_BYTES:
        return [(offset, nbytes)]
    return [
        (offset + a, min(_ZLIB_BLOCK_BYTES, nbytes - a))
        for a in range(0, nbytes, _ZLIB_BLOCK_BYTES)
    ]


# ----------------------------------------------------------------------
# segmented batched container (format 4)

_FORMAT = 4

# the keys a segment row must hold, and the keys it may hold besides
_SEGMENT_KEYS = {
    "zlib": ({"offset", "nbytes", "dtype"}, {"blocks"}),
    "huffman": ({"offset", "nbytes", "n", "bits", "book"}, {"table_id", "table_ref"}),
}


def _books(scratch: dict) -> dict:
    return scratch.setdefault("encode_books", {})


def _scratch_lock(scratch: dict) -> threading.Lock:
    """One lock per scratch, guarding its dict *structures*.

    Concurrent segment tasks touch disjoint per-class entries, but
    inserting into a dict while a sibling thread iterates it is still
    a structural race — serialized here.  The lock lives in the dict
    and is never serialized with it.
    """
    lock = scratch.get("_lock")
    if lock is None:
        lock = scratch.setdefault("_lock", threading.Lock())
    return lock


def _next_table_id(scratch: dict, class_idx: int) -> int:
    """Per-class monotone table ids, unique across reuse contexts."""
    ids = scratch.setdefault("next_table_id", {})
    new_id = ids.get(class_idx, 0)
    ids[class_idx] = new_id + 1
    return new_id


def _encode_segment_huffman(
    seg: np.ndarray,
    class_idx: int,
    scratch: dict | None,
    refresh: bool,
    context: str = "default",
) -> tuple[bytes, dict]:
    """One class segment through the Huffman backend.

    With ``scratch``, maintains a per-(context, class) code-book chain:
    reuse ships no book and a ``table_ref``; a drift or refresh rebuild
    ships its book in full under a new ``table_id``, which the decoder
    caches under.  ``context`` separates chains whose statistics differ
    by construction (a time-series compressor keeps key frames and
    temporal residuals apart); table ids stay unique per class across
    contexts, so the decoder needs no context at all.
    """
    if scratch is None or seg.size == 0:
        return huffman_encode(seg)
    books = _books(scratch)
    key = (context, class_idx)
    entry = None if refresh else books.get(key)
    guard = None if entry is None else {"max_bits_per_symbol": _REBUILD_BPS_RATIO * entry["bps"]}
    # one C call under the native kernel backend: the guard, a rebuild where
    # the stream drifted away from the cached book, the codes
    code, payload, bits, sync = _encode(seg, entry and entry["code"], guard, 4096, "auto")
    if entry is not None and code is entry["code"]:
        segment, hh = _segment(None, seg.size, bits, sync, payload)
        hh["table_ref"] = entry["id"]
        return segment, hh
    segment, hh = _segment(code, seg.size, bits, sync, payload)
    with _scratch_lock(scratch):
        new_id = _next_table_id(scratch, class_idx)
        hh["table_id"] = new_id
        books[key] = {
            "id": new_id,
            "code": code,
            "bps": bits / max(seg.size, 1),
        }
    return segment, hh


def encode_classes(
    bins: np.ndarray,
    sizes: list[int],
    backend: str = "zlib",
    executor=None,
    scratch: dict | None = None,
    refresh: bool = False,
    context: str = "default",
) -> tuple[bytes, dict]:
    """Encode all coefficient classes as one segmented payload + header.

    ``bins`` is the int64 concatenation of every class (coarse-to-fine)
    and ``sizes`` the per-class element counts.  Each class becomes an
    independent segment — narrowed to its own smallest dtype and
    deflated (zlib) or Huffman-coded with its own code book — and the
    header records per-segment offsets, so encode and decode are each
    one fan-out over an ``executor`` whose jobs are the segments (and
    the zlib sub-blocks of a large class).  The emitted bytes do not
    depend on the executor.  ``scratch``/``refresh`` drive cross-call
    code-book reuse (Huffman only; see module docstring).
    """
    bins = np.ascontiguousarray(bins, dtype=np.int64).ravel()
    sizes = [int(s) for s in sizes]
    if bins.size != sum(sizes):
        raise ValueError(f"flat payload has {bins.size} values, expected {sum(sizes)}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown lossless backend {backend!r}; choose from {BACKENDS}")
    executor = executor or _INLINE
    bounds = np.cumsum([0] + sizes)
    segments = [bins[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    if backend == "zlib":
        # every class narrows to its own width k and lands as k byte
        # planes, low byte first, in its (8-byte aligned) stretch of one
        # buffer; large classes split into fixed-size sub-blocks.  The
        # extents depend only on the data, so all executors emit the
        # same bytes.
        dtypes = [_narrow_dtype(seg) for seg in segments]
        nbytes = [seg.size * dt.itemsize for seg, dt in zip(segments, dtypes)]
        starts = np.cumsum([0] + [-(-nb // 8) * 8 for nb in nbytes]).tolist()
        raw = np.empty(starts[-1], dtype=np.uint8)
        extents = []
        for seg, dt, a, nb in zip(segments, dtypes, starts, nbytes):
            le = seg.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
            raw[a : a + nb].reshape(dt.itemsize, -1)[...] = le[:, : dt.itemsize].T
            extents.append(_zlib_extents(a, nb))
        blocks = [raw[a : a + n] for ext in extents for a, n in ext]
        deflated = executor.map(_deflate, blocks)
        payloads = []
        seg_headers = []
        pos = 0
        for dt, ext in zip(dtypes, extents):
            parts = deflated[pos : pos + len(ext)]
            pos += len(ext)
            payloads.append(b"".join(parts))
            sh: dict = {"dtype": dt.str}
            if len(parts) > 1:
                sh["blocks"] = [len(p) for p in parts]
            seg_headers.append(sh)
    else:
        def encode_one(i: int) -> tuple[bytes, dict]:
            return _encode_segment_huffman(segments[i], i, scratch, refresh, context)

        results = executor.map(encode_one, range(len(segments)))
        payloads = [p for p, _ in results]
        seg_headers = [sh for _, sh in results]

    seg_meta = []
    offset = 0
    for p, sh in zip(payloads, seg_headers):
        seg_meta.append({"offset": offset, "nbytes": len(p), **sh})
        offset += len(p)
    header = {
        "backend": backend,
        "format": _FORMAT,
        "n": int(bins.size),
        "class_sizes": sizes,
        "segments": seg_meta,
    }
    return b"".join(payloads), header


def _tables(scratch: dict) -> dict:
    return scratch.setdefault("decode_tables", {})


# cached decode tables older than this many ids behind a class's newest
# can never be referenced again (the encoder re-bases every key
# interval), so they are pruned to bound a long-lived stream's memory
_TABLE_CHAIN_WINDOW = 8


def _prune_chain(cache: dict, class_idx: int, new_id: int) -> None:
    for k in [
        k
        for k in cache
        if k[0] == class_idx and k[1] <= new_id - _TABLE_CHAIN_WINDOW
    ]:
        del cache[k]


def _segment_tables(sh: dict, class_idx: int, book: bytes, scratch: dict | None):
    """The decode tables of one Huffman segment: of the book it ships —
    cached under its ``table_id``, over whatever that id held — or of the
    cached book its ``table_ref`` names.  A missing reference means the
    caller skipped the step that shipped the book — decode the stream
    from its last key frame instead."""
    if book:
        if "table_ref" in sh:
            raise ValueError(f"segment {class_idx} ships a book and a table_ref")
        tables = _tables_from_book(book)
        if scratch is not None and "table_id" in sh:
            tid = sh["table_id"]
            _tables(scratch)[class_idx, tid] = tables
            _prune_chain(_tables(scratch), class_idx, tid)
        return tables
    ref = sh.get("table_ref")
    if ref is None:
        raise ValueError(f"segment {class_idx} carries neither a book nor a table_ref")
    tables = None if scratch is None else _tables(scratch).get((class_idx, ref))
    if tables is None:
        raise ValueError(
            f"unknown code-book reference {ref} for class {class_idx}; "
            "decode the stream in order from its last key frame"
        )
    return tables


def materialize_classes_header(header: dict) -> dict:
    """``header``, once checked to decode without any stream context.

    A segment that references a code book shipped by an earlier step has
    no chain to resolve against in a standalone file: ``ValueError``.
    """
    if header.get("backend") == "huffman" and any(
            "table_ref" in sh for sh in header.get("segments", ())):
        raise ValueError(
            "segment references a cached code book; a standalone file cannot "
            "resolve it — decode the stream in order from its last key frame"
        )
    return header


def _segment_extents(segs: list, payload_len: int) -> list[tuple[int, int]]:
    """The ``(offset, nbytes)`` of every segment, checked to tile the
    payload from byte 0 in order — no overlap, no gap, none negative,
    every end inside the payload — before anything is decoded."""
    extents = []
    end = 0
    for i, sh in enumerate(segs):
        offset, nbytes = sh["offset"], sh["nbytes"]
        if not isinstance(nbytes, int) or nbytes < 0 or offset != end:
            raise ValueError(
                f"corrupt segment table: segment {i} extent ({offset!r}, "
                f"{nbytes!r}) does not start at the previous one's end {end}"
            )
        extents.append((end, nbytes))
        end += nbytes
        if end > payload_len:
            raise ValueError(
                f"corrupt segment table: segment {i} ends at byte {end}, "
                f"past the {payload_len}-byte payload"
            )
    return extents


def _inflate_extents(i: int, sh: dict, offset: int, nbytes: int) -> list[tuple[int, int]]:
    """``(offset, length)`` of each deflate stream of one zlib segment."""
    blocks = sh.get("blocks")
    if not blocks:
        return [(offset, nbytes)]
    if sum(blocks) != nbytes or min(blocks) < 0:
        raise ValueError(f"segment {i}: sub-blocks do not tile its extent")
    starts = np.cumsum([offset] + list(blocks[:-1])).tolist()
    return list(zip(starts, blocks))


def decode_classes(
    payload: bytes, header: dict, executor=None, scratch: dict | None = None
) -> tuple[np.ndarray, list[int]]:
    """Invert :func:`encode_classes`; returns (flat int64 bins, sizes).

    One fan-out: a zlib payload is one ``map`` over the inflate units
    of every segment, a Huffman payload one over its segments.
    """
    if "class_sizes" not in header or "segments" not in header:
        raise ValueError(
            "header carries no class_sizes/segments; not a batched payload"
        )
    if header.get("format") != _FORMAT:
        raise ValueError(
            f"segmented header format {header.get('format')!r} is not {_FORMAT}; "
            "no decoder reads it"
        )
    sizes = [int(s) for s in header["class_sizes"]]
    segs = header["segments"]
    if len(segs) != len(sizes):
        raise ValueError(
            f"header has {len(segs)} segments for {len(sizes)} classes"
        )
    backend = header.get("backend")
    if backend not in BACKENDS:
        raise ValueError(f"unknown lossless backend {backend!r}; choose from {BACKENDS}")
    need, may = _SEGMENT_KEYS[backend]
    for i, sh in enumerate(segs):
        if (not isinstance(sh, dict) or not need <= set(sh) <= need | may
                or backend == "zlib" and sh["dtype"] not in _WIDTHS):
            raise ValueError(f"segment {i}: not a {backend} segment row of format {_FORMAT}")
    executor = executor or _INLINE
    extents = _segment_extents(segs, len(payload))
    out = np.empty(sum(sizes), dtype=np.int64)
    starts = np.cumsum([0] + sizes)

    if backend == "zlib":
        units = [_inflate_extents(i, sh, *ext) for i, (sh, ext) in enumerate(zip(segs, extents))]
        buf = np.frombuffer(payload, np.uint8)
        raws = executor.map(zlib.decompress, [buf[a : a + n] for us in units for a, n in us])
        pos = 0
        for i, (sh, us) in enumerate(zip(segs, units)):
            raw = b"".join(raws[pos : pos + len(us)])
            pos += len(us)
            k = np.dtype(sh["dtype"]).itemsize
            if len(raw) != k * sizes[i]:
                raise ValueError(f"segment {i} inflated to {len(raw)} bytes, not {k} × {sizes[i]}")
            _unplane(raw, k, out[starts[i] : starts[i + 1]])
        return out, sizes

    # resolve code books serially (order-dependent: a step's books are
    # cached before a later step references them), so the fan-out below
    # is embarrassingly independent
    view = memoryview(payload)
    tables: list = []
    for i, (sh, (offset, nbytes)) in enumerate(zip(segs, extents)):
        if any(type(v) is not int for v in sh.values()):
            raise ValueError(f"segment {i}: a non-integer field in {sh}")
        if not 0 <= sh["book"] <= nbytes:
            raise ValueError(f"segment {i}: a {sh['book']}-byte book in {nbytes} bytes")
        book = bytes(view[offset : offset + sh["book"]])
        tables.append(_segment_tables(sh, i, book, scratch) if sh["n"] else None)

    def decode_one(i: int) -> None:
        offset, nbytes = extents[i]
        vals = huffman_decode(view[offset : offset + nbytes], segs[i], tables=tables[i])
        if vals.size != sizes[i]:
            raise ValueError(f"segment {i} decoded {vals.size} values, expected {sizes[i]}")
        out[starts[i] : starts[i + 1]] = vals

    executor.map(decode_one, range(len(segs)))
    return out, sizes
