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
  steps, and shipped as a delta against another (:func:`table_delta`);
* :mod:`.huffman_pack` — :func:`huffman_encode` maps and counts symbols,
  reads a reuse guard off the histogram, then packs (two passes);
* :mod:`.huffman_unpack` — :func:`huffman_decode` picks by segment size:
  few payload bits (and headers without sync offsets) take the codeword
  chain whole, wide segments one cursor per sync block.

The stage's integer loops — the code-length merge, the encode's two
passes, the decode walk — run in C under the ``native`` kernel backend
(:mod:`repro.core.native`, the default where a compiler is) and in the
NumPy/Python bodies beside them otherwise; payload bytes, headers, books
and decoded symbols are the same either way.  A segment is coded in one
pass in each direction: the entropy stage's unit of parallel work is
the class segment (:mod:`.lossless`), and code books and decode tables
pickle as their table JSON so a segment job can cross a process
boundary.

The coder is exact: ``decode(encode(x)) == x`` for any int64 array.
The per-element/per-bit reference coders and the heap construction the
builder must agree with live in ``tests/huffman_oracle.py``.
"""

from __future__ import annotations

import numpy as np

# the book / pack / unpack modules' names that lossless.py, the tests and
# tests/huffman_oracle.py reach through this module
from .huffman_book import (  # noqa: F401
    _DENSE_SPAN_FACTOR,
    _RESERVE_ESCAPE_MIN_SYMS,
    HuffmanCode,
    _build_code,
    _delta,
    apply_table_delta,
    build_code,
    code_from_table,
    table_delta,
    table_from_code,
)
from .huffman_pack import _SYNC_BLOCK, _map_slots, _map_symbols, _pack_slots  # noqa: F401
from .huffman_unpack import (  # noqa: F401
    _LUT_BITS,
    _block_bounds,
    _decode_chain,
    _decode_sync_range,
    _DecodeTables,
    _payload_words,
    decode_tables,
)

__all__ = [
    "HuffmanCode",
    "huffman_encode",
    "huffman_decode",
    "build_code",
    "decode_tables",
    "table_from_code",
    "code_from_table",
    "table_delta",
    "apply_table_delta",
]


# payloads of at most this many bits decode by whole-stream
# classification + pointer doubling, whose cost is proportional to the
# bit count; above it the lockstep loop wins — its _SYNC_BLOCK
# iterations are call-overhead bound whatever the segment size
_CHAIN_MAX_BITS = 1 << 16


def _header(table: list | None, n: int, total_bits: int, sync=None) -> dict:
    """Segment header; ``table`` is the header-form book, or ``None``
    when the caller ships a reference to a cached book instead."""
    header = {"n": int(n), "bits": int(total_bits)}
    if table is not None:
        header["table"] = table
    if sync is not None and len(sync):
        header["sync"] = sync.tolist()
    return header


# what the encode path returns when a reuse guard rejects the book
_GUARD_TRIPPED = (None, None, None)


def _encode_payload(values, code, guard=None):
    """Encode with a given book; returns ``(payload, total_bits, sync)``.

    The header-less core of :func:`huffman_encode` (same ``guard``), for
    callers that ship a reference to a cached book instead of its table.
    A tripped guard — or, under a guard, a new symbol the book has no
    escape for — returns :data:`_GUARD_TRIPPED`.
    """
    slots, used = _map_slots(values, code)
    # decided from the mapping pass's histogram alone: nothing is packed
    # for a book about to be replaced, or one that cannot code a value
    n_esc = int(used[-1])
    total_bits = int(used @ code._slot_lens) + 64 * n_esc
    max_bps = (guard or {}).get("max_bits_per_symbol")
    if (n_esc and code.esc_len is None) or (
            max_bps is not None and total_bits > max_bps * values.size + 1e-9):
        if guard is None:
            raise ValueError("value outside the code book and the book has no escape code; "
                             "rebuild the book (or build it with reserve_escape=True)")
        return _GUARD_TRIPPED
    payload, sync = _pack_slots(values, slots, code, total_bits)
    return payload, total_bits, sync


def huffman_encode(
    values: np.ndarray,
    max_table: int = 4096,
    *,
    code: HuffmanCode | None = None,
    guard: dict | None = None,
):
    """Encode an int64 array; returns (payload, header).

    The header carries the canonical code book as plain Python data
    (symbol/length pairs) plus the element count; it is what a container
    format would serialize alongside the payload.

    Parameters
    ----------
    code:
        Encode with this (externally built, e.g. cached from a previous
        stream step) code book instead of building one from the data.
        The book needs an escape code to cover symbols it has not seen.
    guard:
        Optional reuse guard ``{"max_bits_per_symbol": b}``.  Decided
        from the symbol-mapping pass's slot histogram alone, *before*
        anything is packed; when the would-be payload exceeds the bound
        (or the book lacks an escape for a new symbol) the call returns
        ``(None, None)`` so the caller can rebuild the book without
        having paid for a wasted encode.
    """
    values = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if values.size == 0:
        return b"", {"n": 0, "bits": 0, "table": []}
    if code is None:
        code = _build_code(values, max_table)
    payload, total_bits, sync = _encode_payload(values, code, guard)
    if payload is None:
        return None, None
    return payload, _header(code.table, values.size, total_bits, sync)


def huffman_decode(payload: bytes, header: dict, *, tables=None) -> np.ndarray:
    """Invert :func:`huffman_encode`.

    Canonical decoding normally walks the bit stream serially.  Small
    payloads (at most :data:`_CHAIN_MAX_BITS` bits) and headers without
    sync offsets take a whole-stream classification: "if a codeword
    started at bit ``p``, which (length, symbol) would it be?", with the
    actual codeword-start chain ``p -> p + len(p)`` resolved by pointer
    doubling — work proportional to the bit count.  Wider payloads use
    the header's sync offsets (one per :data:`_SYNC_BLOCK` symbols —
    any payload our encoder emits) to run one cursor per block in
    vectorized lockstep.  Under the ``native`` kernel backend both
    selections hand their blocks to one C walk instead
    (:mod:`.huffman_unpack`).  The output, and every corruption check
    (no codeword matches, truncated payload, sync mismatch), is the same
    whichever runs.  One call decodes one segment on the calling thread:
    the entropy stage has one fan-out per direction, over class segments
    (:func:`repro.compress.lossless.decode_classes`).
    """
    n = int(header["n"])
    if n < 0:
        raise ValueError(f"corrupt Huffman header: negative element count {n}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    total = int(header["bits"])
    if total < 0:
        raise ValueError(f"corrupt Huffman header: negative bit count {total}")
    if n > total:
        # every symbol costs at least one bit; checked before anything
        # is sized from the (untrusted) element count
        raise ValueError(
            f"corrupt Huffman header: {n} symbols cannot fit in {total} bits"
        )
    if len(payload) < (total + 7) >> 3:
        raise ValueError("truncated Huffman payload")
    sync = header.get("sync")
    if sync is not None:
        try:
            sync = np.asarray(sync, dtype=np.int64).reshape(-1)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("corrupt Huffman header: bad sync offsets") from None
        if sync.size + 1 != -(-n // _SYNC_BLOCK):
            raise ValueError(
                f"corrupt Huffman header: {sync.size} sync offsets for {n} symbols"
            )
    if tables is None:
        tables = _DecodeTables.from_code(code_from_table(header["table"]))
    if sync is None or total <= _CHAIN_MAX_BITS:
        return _decode_chain(payload, n, total, tables, sync)
    return _decode_sync(payload, n, total, tables, sync)


def _decode_sync(payload, n, total, tables: _DecodeTables, sync) -> np.ndarray:
    """Lockstep decode: one cursor per sync block, advanced together."""
    starts, ends = _block_bounds(sync, total)
    rem = n - (len(starts) - 1) * _SYNC_BLOCK  # symbols in the last block
    words = _payload_words(payload, total)
    return _decode_sync_range(words, starts, ends, rem, total, tables)
