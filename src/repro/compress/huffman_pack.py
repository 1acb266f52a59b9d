"""The Huffman encode side: symbol mapping, chunking, the word pack.

:func:`_map_symbols` maps symbols to book slots through a dense offset
table cached on the book when the book's symbol span is small next to
the segment (``searchsorted`` otherwise); :func:`_chunks` turns slots
into (code, length, bit offset) chunks; :func:`_pack_chunks_words`
scatters them MSB-first into 64-bit words — one C loop under the
``native`` kernel backend, a word-aligned scatter-OR in NumPy otherwise,
the same words either way.  A segment encodes in one pass; the entropy
stage's parallel work unit is the class segment
(:func:`repro.compress.lossless.encode_classes`).
"""

from __future__ import annotations

import numpy as np

from ..core import native
from .huffman_book import HuffmanCode

# The encoder records the bit offset of every _SYNC_BLOCK-th symbol in
# the header ("sync").  The offsets let the decoder run one cursor per
# block in vectorized lockstep instead of chasing the serial codeword
# chain; real parallel entropy decoders use the same device.
_SYNC_BLOCK = 512

# the dense value -> index table is built (once, cached on the book)
# when the book's symbol span is at most this multiple of the segment
# being mapped: filling it costs one store per span entry, which a
# single saved O(n log m) ``searchsorted`` pass repays only while the
# span stays within a few times n.  Fine classes span a few thousand
# bins; a coarse class of 8 symbols spread over millions keeps
# ``searchsorted``.
_DENSE_SPAN_FACTOR = 4


def _map_symbols(values: np.ndarray, code: HuffmanCode) -> np.ndarray:
    """Slot of every value in the book: its index in ``code.symbols``,
    or ``code.symbols.size`` — the ESCAPE slot — where the book has none.

    A book whose symbol span is at most :data:`_DENSE_SPAN_FACTOR`
    times the segment maps through one gather from a dense offset table
    (built once, cached on the book); wider books binary-search.  Both
    give the same slots, so the choice never shows in the payload.
    """
    syms = code.symbols
    n_syms = syms.size
    if n_syms == 0:
        return np.zeros(values.size, dtype=np.intp)
    lo, hi = int(syms[0]), int(syms[-1])
    lut = code._lut
    if lut is None and hi - lo < _DENSE_SPAN_FACTOR * values.size:
        lut = np.full(hi - lo + 1, n_syms, dtype=np.intp)
        lut[syms - lo] = np.arange(n_syms)
        code._lut = lut
    if lut is None:
        pos = np.minimum(np.searchsorted(syms, values), n_syms - 1)
        return np.where(syms[pos] == values, pos, n_syms)
    if values.min() >= lo and values.max() <= hi:
        return lut[values - lo]
    slots = np.full(values.size, n_syms, dtype=np.intp)
    inside = (values >= lo) & (values <= hi)
    slots[inside] = lut[values[inside] - lo]
    return slots


_NO_ESCAPE = (
    "value outside the code book and the book has no escape code; "
    "rebuild the book (or build it with reserve_escape=True)"
)


def _chunks(slots: np.ndarray, code: HuffmanCode):
    """Per-element codes, code lengths and bit positions of mapped symbols.

    Returns ``(c_codes, c_lens, offsets, esc)``: ``offsets`` (size
    ``n + 1``) is the bit position of every element in the range and
    its total; ``esc`` lists the escaped elements, each of which
    occupies its ESCAPE code plus 64 raw bits.
    """
    esc = np.flatnonzero(slots == code.symbols.size)
    if esc.size and code.esc_len is None:
        raise ValueError(_NO_ESCAPE)
    c_codes = code._slot_codes[slots]
    c_lens = code._slot_lens[slots]
    step = c_lens
    if esc.size:
        step = c_lens.copy()
        step[esc] += 64
    offsets = np.zeros(slots.size + 1, dtype=np.int64)
    np.cumsum(step, out=offsets[1:])
    return c_codes, c_lens, offsets, esc


def _pack_words(values, c_codes, c_lens, offsets, esc) -> np.ndarray:
    """Word buffer of one chunkified range (``offsets`` may start mid-word).

    The codes — ESCAPE codes included — pack at their positions; the
    raw 64 bits of the escaped values pack right behind their ESCAPE
    codes in a second pass and OR in, the bit ranges being disjoint.
    """
    buf = _pack_chunks_words(c_codes, c_lens, offsets)
    if esc.size:
        raw_at = np.append(offsets[esc] + c_lens[esc], offsets[-1])
        raw = values[esc].astype(np.uint64)  # two's complement
        buf |= _pack_chunks_words(raw, np.full(esc.size, 64), raw_at)
    return buf


def _pack_chunks_words(
    c_codes: np.ndarray, c_lens: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """MSB-first scatter of (code, length) chunks into 64-bit words: one C
    loop where the kernel backend has it, the scatter-OR below otherwise.

    Word-aligned: every chunk (1..64 bits) lands in at most two
    big-endian 64-bit words.  Each code is left-justified once; the
    part in its first word is that shifted right by the chunk's bit
    offset ``r`` in the word, the spill into the next word the same
    left-justified code shifted left by ``64 - r`` (as ``63 - r`` then
    1, so ``r = 0`` spills nothing without a 64-bit shift) — plus one
    ``bitwise_or.reduceat`` per landing word, no per-bit expansion.
    ``offsets`` is the chunk bit-position prefix sum (size ``n_chunks +
    1``; callers already have it); ``offsets[0]`` (< 64) offsets the
    first chunk inside word 0.
    """
    words = native.huff_pack(c_codes, c_lens, offsets)
    if words is not None:
        return words
    n_words = (int(offsets[-1]) + 63) >> 6
    buf = np.zeros(n_words + 1, dtype=np.uint64)  # +1 spill word
    if c_codes.size == 0:
        return buf
    w0 = offsets[:-1] >> 6
    r = (offsets[:-1] & 63).astype(np.uint64)
    justified = c_codes << (64 - c_lens).astype(np.uint64)
    part0 = justified >> r
    np.subtract(np.uint64(63), r, out=r)
    part1 = (justified << r) << np.uint64(1)

    # offsets are monotone, so chunks hitting the same word are contiguous
    new_word = np.empty(w0.size, dtype=bool)
    new_word[0] = True
    np.not_equal(w0[1:], w0[:-1], out=new_word[1:])
    starts = np.flatnonzero(new_word)
    idx = w0[starts]
    buf[idx] = np.bitwise_or.reduceat(part0, starts)
    buf[idx + 1] |= np.bitwise_or.reduceat(part1, starts)
    return buf


def _payload_bytes(words: np.ndarray, total_bits: int) -> bytes:
    """Big-endian bytes of a word buffer, cut to the payload's bit count."""
    n_words = (total_bits + 63) >> 6
    return words[:n_words].astype(">u8").tobytes()[: (total_bits + 7) >> 3]


# what the encode path returns when a reuse guard rejects the book
_GUARD_TRIPPED = (None, None, None)


def _note_stats(stats: dict | None, n: int, n_escaped: int) -> None:
    if stats is not None:
        stats["n_symbols"] = int(n)
        stats["n_escaped"] = int(n_escaped)


def _guard_exceeded(guard: dict, n: int, total_bits: int) -> bool:
    max_bps = guard.get("max_bits_per_symbol")
    return max_bps is not None and total_bits > max_bps * n + 1e-9
