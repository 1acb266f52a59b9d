"""Canonical Huffman coder for quantized coefficient integers.

MGARD's entropy stage Huffman-codes the quantizer output (most bins are
at or near zero for smooth data, so the distribution is highly skewed
and Huffman does well) before a final lossless pass.  This module is the
front of a self-contained, array-native canonical-Huffman coder in three
parts:

* :mod:`.huffman_book` — a code book (:class:`HuffmanCode`) *is* arrays:
  sorted distinct int64 symbols, code lengths, canonical codes and an
  optional ESCAPE code (values outside the table are emitted as ESCAPE
  plus 64 raw bits); the decoder only needs the (symbol, length) pairs.
  A book can be supplied (``code=``) instead of rebuilt from the data,
  which is how slowly-varying streams amortize entropy setup across time
  steps; its one serialized form is the packed :attr:`HuffmanCode.book`;
* :mod:`.huffman_pack` — the encode: one C call per segment under the
  ``native`` kernel backend (histogram, reuse guard, book build, codes),
  beside the NumPy bodies' two passes (map and count symbols, then pack;
  the guard is read off the histogram in between);
* :mod:`.huffman_unpack` — the decode: one cursor per sync block of
  :data:`_SYNC_BLOCK` symbols, whose offsets :func:`huffman_decode`
  reads from the segment.

A segment is bytes ``book | sync | bitstream`` — the packed book (absent
when the caller ships a reference to a cached one), ⌈n/512⌉ − 1
little-endian u64 sync offsets, the codes — and its header holds
scalars only: ``n``, ``bits`` and ``book``, the book's byte count.

Each of the stage's integer loops — the code-length merge, a segment's
whole encode (:func:`_encode`), the decode walk — has one C entry, taken
under the ``native`` kernel backend (:mod:`repro.core.native`, the
default where a compiler is), and NumPy/Python bodies beside it, which
run otherwise and define the bits: payload bytes, headers, books and
decoded symbols are the same either way.  A segment is coded in one
pass in each direction: the entropy stage's unit of parallel work is
the class segment (:mod:`.lossless`), and code books and decode tables
pickle as their packed book so a segment job can cross a process
boundary.

The coder is exact: ``decode(encode(x)) == x`` for any int64 array.
The per-element/per-bit reference coders it must agree with live in
``tests/huffman_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from ..core import native
from .huffman_book import HuffmanCode, _build_code
from .huffman_pack import _SYNC_BLOCK, _code_segment, _map_slots, _pack_slots
from .huffman_unpack import _block_bounds, _decode_blocks, _payload_words, _tables_from_book

__all__ = ["huffman_encode", "huffman_decode"]


def _segment(code: HuffmanCode | None, n: int, total_bits: int, sync, payload: bytes):
    """``(segment bytes, header)`` of an encoded segment; ``code`` is the
    book it ships, or ``None`` when the caller ships a reference instead."""
    book = b"" if code is None else code.book
    header = {"n": int(n), "bits": int(total_bits), "book": len(book)}
    return b"".join((book, np.asarray(sync, dtype="<u8").tobytes(), payload)), header


# what the encode path returns when a reuse guard rejects the book
_GUARD_TRIPPED = (None, None, None, None)


def _code_with(values, code: HuffmanCode, limit: float):
    """The NumPy bodies' encode with ``code``: ``(code, payload, total_bits,
    sync)``, or ``False`` where its bits pass ``limit`` or a value needs the
    ESCAPE it lacks — decided from the mapping pass's histogram alone, so
    nothing is packed for a book about to be replaced."""
    slots, used = _map_slots(values, code)
    n_esc = int(used[-1])
    total_bits = int(used @ code._slot_lens) + 64 * n_esc
    if (n_esc and code.esc_len is None) or total_bits > limit:
        return False
    payload, sync = _pack_slots(values, slots, code, total_bits)
    return code, payload, total_bits, sync


def _encode(values, code=None, guard=None, max_table=0, reserve_escape=False):
    """``(book, payload, total_bits, sync)`` of a non-empty int64 segment.

    Coded with ``code`` while the reuse ``guard`` holds (its bits stay
    within ``max_bits_per_symbol`` per value and the book has every value
    or an ESCAPE); else — or with no ``code`` — with the book
    :func:`~.huffman_book._build_code` makes of the segment under
    ``max_table`` / ``reserve_escape``, returned as ``book``.  A tripped
    guard with no ``max_table`` returns :data:`_GUARD_TRIPPED`, and with no
    guard either raises ``ValueError``.  Under the ``native`` kernel backend
    it is one C call (:func:`~.huffman_pack._code_segment`), whose guard
    reads the value histogram; the NumPy bodies read the mapping pass's slot
    histogram — the same bit count — and define the bytes.
    """
    max_bps = (guard or {}).get("max_bits_per_symbol")
    limit = np.inf if max_bps is None else max_bps * values.size + 1e-9
    done = _code_segment(values, code, limit, max_table, reserve_escape) if native.active() else None
    if done is None:
        done = False if code is None else _code_with(values, code, limit)
        if done is False and (max_table or code is None):
            done = _code_with(values, _build_code(values, max_table, reserve_escape), np.inf)
    if done is False:
        if guard is None:
            raise ValueError("value outside the code book and the book has no escape code; "
                             "rebuild the book (or build it with reserve_escape=True)")
        return _GUARD_TRIPPED
    return done


def _encode_payload(values, code, guard=None):
    """Encode with a given book; returns ``(payload, total_bits, sync)``.

    The book-less core of :func:`huffman_encode` (same ``guard``), for
    callers that ship a reference to a cached book instead of the book.
    A tripped guard — or, under a guard, a new symbol the book has no
    escape for — returns ``(None, None, None)``.
    """
    return _encode(values, code, guard)[1:]


def huffman_encode(
    values: np.ndarray,
    max_table: int = 4096,
    *,
    code: HuffmanCode | None = None,
    guard: dict | None = None,
):
    """Encode an int64 array; returns (segment, header).

    The segment is ``book | sync | bitstream`` and the header its scalars
    ``{"n", "bits", "book"}`` — what a container format serializes
    alongside it.

    Parameters
    ----------
    code:
        Encode with this (externally built, e.g. cached from a previous
        stream step) code book instead of building one from the data.
        The book needs an escape code to cover symbols it has not seen.
    guard:
        Optional reuse guard ``{"max_bits_per_symbol": b}``.  Decided
        from the segment's histogram alone, *before* anything is
        packed; when the would-be payload exceeds the bound
        (or the book lacks an escape for a new symbol) the call returns
        ``(None, None)`` so the caller can rebuild the book without
        having paid for a wasted encode.
    """
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if values.size == 0:
        return b"", {"n": 0, "bits": 0, "book": 0}
    code, payload, total_bits, sync = _encode(values, code, guard, max_table if code is None else 0)
    if payload is None:
        return None, None
    return _segment(code, values.size, total_bits, sync, payload)


def huffman_decode(segment: bytes, header: dict, *, tables=None) -> np.ndarray:
    """Invert :func:`huffman_encode`.

    The header's ``n``, ``bits`` and ``book`` are integers, and the
    segment is exactly ``book`` bytes of packed book, ⌈n/512⌉ − 1 u64
    sync offsets — the bit offset of every :data:`_SYNC_BLOCK`-th symbol
    — and ⌈bits/8⌉ bytes of codes.  ``tables`` are the decode tables
    to use instead of the book's (built by the caller, or of a cached
    book for a segment that ships none).  Each block is walked by a
    cursor of its own (:func:`~.huffman_unpack._decode_blocks`: one C
    loop under the ``native`` kernel backend, vectorized lockstep
    otherwise); every
    corruption (a header or size off this grammar, a bad book, no
    codeword matches, a truncated payload, a sync mismatch) is a
    ``ValueError`` either way.  One call decodes one segment on the
    calling thread: the entropy stage has one fan-out per direction,
    over class segments (:func:`repro.compress.lossless.decode_classes`).
    """
    n, total, book = header["n"], header["bits"], header["book"]
    # JSON integers: a float or bool would be truncated into a count
    if not {type(n), type(total), type(book)} <= {int}:
        raise ValueError(f"corrupt Huffman header: non-integer n {n!r}, bits {total!r} "
                         f"or book {book!r}")
    if min(n, total, book) < 0:
        raise ValueError(f"corrupt Huffman header: negative count in {n, total, book}")
    if n > total:
        # every symbol costs at least one bit; checked before anything
        # is sized from the (untrusted) element count
        raise ValueError(f"corrupt Huffman header: {n} symbols cannot fit in {total} bits")
    if n == 0:
        if book or total or len(segment):
            raise ValueError("corrupt Huffman segment: an empty segment holds bytes")
        return np.empty(0, dtype=np.int64)
    n_sync = -(-n // _SYNC_BLOCK) - 1
    start = book + 8 * n_sync
    size = start + ((total + 7) >> 3)
    if len(segment) < size:
        raise ValueError("truncated Huffman payload")
    if len(segment) > size:
        raise ValueError(f"corrupt Huffman segment: {len(segment)} bytes, expected {size}")
    if tables is None:
        if not book:
            raise ValueError("Huffman segment ships no code book and none was given")
        tables = _tables_from_book(bytes(segment[:book]))
    sync = np.frombuffer(segment, "<u8", n_sync, book)
    starts, ends = _block_bounds(sync, total)
    rem = n - n_sync * _SYNC_BLOCK  # symbols in the last block
    return _decode_blocks(_payload_words(segment, start, total), starts, ends, rem, total, tables)
