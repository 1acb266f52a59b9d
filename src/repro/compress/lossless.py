"""Lossless entropy backends for the compression pipeline.

The paper's MGARD workflow keeps its entropy stage ("ZLib lossless
compression") on the CPU; this module wraps :mod:`zlib` with integer
narrowing (quantized bins are overwhelmingly tiny integers, so packing
them into the narrowest dtype before deflate roughly halves the output)
and exposes the pure-Python canonical Huffman coder as an alternative
reference backend.

Batched class payloads use a *segmented* container (``format: 2``): one
payload, one header, but the header records per-segment offsets so the
per-class segments are independent work units.  The entropy stage has
one fan-out per direction — segments (and zlib sub-blocks) are the
jobs — and the bytes out do not depend on the executor (see
:mod:`repro.parallel.executors`).  The Huffman backend codes each
segment in one pass, so it maps over segments.  The zlib backend
deflates a class whose narrowed raw stream reaches two fixed-size
sub-blocks as independent sub-block streams (the header's per-segment
``blocks`` list records their compressed extents), and both of its
directions are one ``executor.map`` of :func:`zlib.compress` /
:func:`zlib.decompress` over ndarray slices of one buffer — every
class's narrowed raw stream back to back on encode, the whole payload on
decode — so every job carries its own sub-block and nothing else.

For slowly-varying streams, pass a ``scratch`` dict (one per stream,
kept by the caller) and the Huffman backend reuses each
class's code book across calls: exact reuse costs a single integer
header field (``table_ref``), drift beyond an escape-rate threshold
triggers a rebuild shipped as a compact ``table_delta``, and
``refresh=True`` (key frames) forces a full-table rebuild that re-bases
the chain.  The decoder replays the same chain from its own scratch.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

from ..parallel.executors import SerialExecutor
from .huffman import _encode_payload, _header, huffman_decode, huffman_encode
from .huffman_book import _build_code, _delta, apply_table_delta, code_from_table
from .huffman_unpack import decode_tables

__all__ = [
    "encode_classes",
    "decode_classes",
    "materialize_classes_header",
    "BACKENDS",
]

BACKENDS = ("zlib", "huffman")

# zlib sub-block size (bytes of the narrowed raw stream, a multiple of
# 8 so int64 element boundaries align).  A class whose raw bytes reach
# two blocks deflates as independently-schedulable sub-blocks, so a
# dominant class is more than one deflate job.  Deflate's 32 KiB
# window is tiny against this, so the ratio cost of restarting the
# dictionary per block is noise.
_ZLIB_BLOCK_BYTES = 1 << 18

# the deflate level of every zlib segment (and sub-block)
_ZLIB_LEVEL = 6

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
        return np.dtype(np.int8)
    lo, hi = int(values.min()), int(values.max())
    for dt in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dt)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dt)
    raise AssertionError("int64 always fits")  # pragma: no cover


# ----------------------------------------------------------------------
# zlib sub-blocks


def _zlib_extents(offset: int, nbytes: int) -> list[tuple[int, int]]:
    """Deterministic ``(offset, length)`` sub-block split of one narrowed
    raw stream of ``nbytes`` bytes starting at ``offset``.

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
# segmented batched container (format 2)


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
    reuse → ``table_ref``, drift rebuild → ``table_ref`` +
    ``table_delta``, refresh → full ``table``; every rebuilt book
    carries a ``table_id`` the decoder caches under.  ``context``
    separates chains whose statistics differ by construction (a
    time-series compressor keeps key frames and temporal residuals
    apart); table ids stay unique per class across contexts, so the
    decoder needs no context at all.
    """
    if scratch is None or seg.size == 0:
        return huffman_encode(seg)
    books = _books(scratch)
    key = (context, class_idx)
    entry = books.get(key)
    if entry is not None and not refresh:
        payload, bits, sync = _encode_payload(
            seg,
            entry["code"],
            guard={"max_bits_per_symbol": _REBUILD_BPS_RATIO * entry["bps"]},
        )
        if payload is not None:
            hh = _header(None, seg.size, bits, sync)
            hh["table_ref"] = entry["id"]
            return payload, hh
        # the stream drifted away from the cached book: fall through and
        # rebuild (only the symbol-mapping probe was wasted)
    code = _build_code(seg, 4096, reserve_escape="auto")
    payload, bits, sync = _encode_payload(seg, code)
    # the delta is weighed on the books' arrays
    delta = None if entry is None or refresh else _delta(entry["code"], code, only_if_smaller=True)
    if delta is None:
        hh = _header(code.table, seg.size, bits, sync)
    else:
        hh = _header(None, seg.size, bits, sync)
        hh["table_ref"] = entry["id"]
        hh["table_delta"] = delta
    with _scratch_lock(scratch):
        new_id = _next_table_id(scratch, class_idx)
        hh["table_id"] = new_id
        books[key] = {
            "id": new_id,
            "code": code,
            "bps": bits / max(seg.size, 1),
        }
    return payload, hh


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
        # every class narrows to its own dtype, straight into its
        # (8-byte aligned) stretch of one buffer; large classes split
        # into fixed-size sub-blocks, so a dominant class is several
        # deflate jobs.  The extents depend only on the data, so all
        # executors emit the same bytes.
        dtypes = [_narrow_dtype(seg) for seg in segments]
        nbytes = [seg.size * dt.itemsize for seg, dt in zip(segments, dtypes)]
        starts = np.cumsum([0] + [-(-nb // 8) * 8 for nb in nbytes]).tolist()
        raw = np.empty(starts[-1], dtype=np.uint8)
        extents = []
        for seg, dt, a, nb in zip(segments, dtypes, starts, nbytes):
            raw[a : a + nb].view(dt)[...] = seg
            extents.append(_zlib_extents(a, nb))
        blocks = [raw[a : a + n] for ext in extents for a, n in ext]
        deflated = executor.map(zlib.compress, blocks, [_ZLIB_LEVEL] * len(blocks))
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
        "format": 2,
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


def _resolve_table(seg_header: dict, class_idx: int, scratch: dict | None) -> list:
    """The effective code-book table of one Huffman segment.

    Full tables are cached (under their ``table_id``) for later
    reference; ``table_ref`` headers look the base table up and apply
    the delta, extending the chain.  A missing reference means the
    caller skipped the steps that shipped the book — decode the stream
    from its last key frame instead.
    """
    table = seg_header.get("table")
    if table is None:
        ref = seg_header.get("table_ref")
        if ref is None:
            raise ValueError("segment header carries neither table nor table_ref")
        if scratch is None:
            raise ValueError(
                "segment references a cached code book but no scratch was "
                "given; decode the stream in order from its last key frame"
            )
        base = _tables(scratch).get((class_idx, int(ref)))
        if base is None:
            raise ValueError(
                f"unknown code-book reference {ref} for class {class_idx}; "
                "decode the stream in order from its last key frame"
            )
        delta = seg_header.get("table_delta")
        table = apply_table_delta(base, delta) if delta is not None else base
    if scratch is not None and "table_id" in seg_header:
        cache = _tables(scratch)
        tid = int(seg_header["table_id"])
        prev = cache.get((class_idx, tid))
        cache[(class_idx, tid)] = table
        if prev is not None and prev != table:
            # id collision: a restarted producer re-numbers its chain
            # from 0, so any decode tables cached under the old book
            # with this id are stale and must not be used again
            scratch.get("decode_table_objs", {}).pop((class_idx, tid), None)
        _prune_chain(cache, class_idx, tid)
    return table


def materialize_classes_header(header: dict, scratch: dict | None = None) -> dict:
    """A self-contained copy of a segmented header.

    Resolves every ``table_ref``/``table_delta`` segment against the
    (decode-side) ``scratch`` chain and inlines the full table, so the
    result decodes without any stream context — what a standalone file
    format wants to persist.  Headers that are already self-contained
    are returned unchanged.
    """
    if "segments" not in header or header.get("backend") != "huffman":
        return header
    segs = []
    changed = False
    for i, sh in enumerate(header["segments"]):
        if int(sh.get("n", 0)) > 0 and "table" not in sh:
            table = _resolve_table(sh, i, scratch)
            sh = {
                k: v
                for k, v in sh.items()
                if k not in ("table_ref", "table_delta")
            }
            sh["table"] = table
            changed = True
        segs.append(sh)
    if not changed:
        return header
    return {**header, "segments": segs}


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
    sizes = [int(s) for s in header["class_sizes"]]
    segs = header["segments"]
    if len(segs) != len(sizes):
        raise ValueError(
            f"header has {len(segs)} segments for {len(sizes)} classes"
        )
    backend = header.get("backend")
    if backend not in BACKENDS:
        raise ValueError(f"unknown lossless backend {backend!r}; choose from {BACKENDS}")
    executor = executor or _INLINE
    extents = _segment_extents(segs, len(payload))
    out = np.empty(sum(sizes), dtype=np.int64)
    starts = np.cumsum([0] + sizes)

    def place(i: int, vals: np.ndarray) -> None:
        if vals.size != sizes[i]:
            raise ValueError(f"segment {i} decoded {vals.size} values, expected {sizes[i]}")
        out[starts[i] : starts[i + 1]] = vals

    if backend == "zlib":
        units = [_inflate_extents(i, sh, *ext) for i, (sh, ext) in enumerate(zip(segs, extents))]
        buf = np.frombuffer(payload, np.uint8)
        raws = executor.map(zlib.decompress, [buf[a : a + n] for us in units for a, n in us])
        pos = 0
        for i, (sh, us) in enumerate(zip(segs, units)):
            raw = b"".join(raws[pos : pos + len(us)])
            pos += len(us)
            place(i, np.frombuffer(raw, dtype=np.dtype(sh["dtype"])))
        return out, sizes

    # resolve code-book references serially (cheap, order-dependent) so
    # the fan-out below is embarrassingly independent; decode tables of
    # chained books are cached so a reused book pays its table
    # construction once per stream, not once per step
    effective: list[dict] = []
    dtabs: list = []
    for i, sh in enumerate(segs):
        if int(sh["n"]) > 0:
            table = _resolve_table(sh, i, scratch)
            effective.append({**sh, "table": table})
            tid = sh.get("table_id", sh.get("table_ref"))
            if scratch is not None and tid is not None:
                cache = scratch.setdefault("decode_table_objs", {})
                obj = cache.get((i, int(tid)))
                if obj is None:
                    obj = decode_tables(code_from_table(table))
                    cache[(i, int(tid))] = obj
                    _prune_chain(cache, i, int(tid))
                dtabs.append(obj)
            else:
                dtabs.append(None)
        else:
            effective.append(sh)
            dtabs.append(None)

    def decode_one(i: int) -> None:
        offset, nbytes = extents[i]
        sub = payload[offset : offset + nbytes]
        place(i, huffman_decode(sub, effective[i], tables=dtabs[i]))

    executor.map(decode_one, range(len(segs)))
    return out, sizes

