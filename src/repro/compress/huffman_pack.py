"""The Huffman encode side, in two passes over a segment.

Pass 1, :func:`_map_slots`, maps every value to its book slot — through
a dense table cached on the book when its symbol span is small next to
the segment, by binary search otherwise — and counts the slots; the
reuse guard and the bit count are read off that histogram.  Pass 2,
:func:`_pack_slots`, writes the codes, the 64 raw bits behind each
ESCAPE and every :data:`_SYNC_BLOCK`-th bit offset.  Each pass is one C
loop (``huff_encode``) under the ``native`` kernel backend;
:func:`_map_symbols`, :func:`_chunks` and :func:`_pack_words` are the
NumPy ``reference`` and oracle — the same bytes either way.  The entropy
stage's parallel work unit is the class segment
(:func:`repro.compress.lossless.encode_classes`).
"""

from __future__ import annotations

import numpy as np

from ..core import native
from .huffman_book import _DENSE_SPAN_FACTOR, HuffmanCode

# The encoder records the bit offset of every _SYNC_BLOCK-th symbol in
# the header ("sync").  The offsets let the decoder run one cursor per
# block in vectorized lockstep instead of chasing the serial codeword
# chain; real parallel entropy decoders use the same device.
_SYNC_BLOCK = 512


def _dense_lut(code: HuffmanCode, n: int) -> np.ndarray | None:
    """The book's value -> slot table ``lut[value - symbols[0]]``, built
    (once, cached on the book) when its symbol span is at most
    :data:`_DENSE_SPAN_FACTOR` times the ``n``-value segment mapped."""
    syms, lut = code.symbols, code._lut
    if lut is None and syms.size and int(syms[-1]) - int(syms[0]) < _DENSE_SPAN_FACTOR * n:
        lut = np.full(int(syms[-1]) - int(syms[0]) + 1, syms.size, dtype=np.intp)
        lut[syms - syms[0]] = np.arange(syms.size)
        code._lut = lut  # whole before it is shared: segments of one book may run concurrently
    return lut


def _map_symbols(values: np.ndarray, code: HuffmanCode) -> np.ndarray:
    """Slot of every value in the book: its index in ``code.symbols``,
    or ``code.symbols.size`` — the ESCAPE slot — where the book has none;
    through the :func:`_dense_lut` table where there is one, else by
    ``searchsorted`` (the same slots: the choice never shows)."""
    syms = code.symbols
    n_syms = syms.size
    if n_syms == 0:
        return np.zeros(values.size, dtype=np.intp)
    lut = _dense_lut(code, values.size)
    if lut is None:
        pos = np.minimum(np.searchsorted(syms, values), n_syms - 1)
        return np.where(syms[pos] == values, pos, n_syms)
    at = values.astype(np.uint64) - syms[:1].astype(np.uint64)  # below the span wraps past it
    return np.where(at < lut.size, lut[np.minimum(at, lut.size - 1)], n_syms)


def _map_slots(values: np.ndarray, code: HuffmanCode):
    """Pass 1: ``(slots, histogram)``, ESCAPE counted last — one C loop
    where the kernel backend has it, :func:`_map_symbols` otherwise."""
    mapped = native.huff_map(values, code.symbols, _dense_lut(code, values.size))
    if mapped is not None:
        return mapped
    slots = _map_symbols(values, code)
    return slots, np.bincount(slots, minlength=code.symbols.size + 1)


def _pack_slots(values: np.ndarray, slots: np.ndarray, code: HuffmanCode, total_bits: int):
    """Pass 2: ``(payload, sync)`` of mapped values whose codes add up to
    ``total_bits`` — one C loop where the kernel backend has it,
    :func:`_chunks` and :func:`_pack_words` otherwise."""
    packed = native.huff_encode(values, slots, code._slot_codes, code._slot_lens, total_bits,
                                _SYNC_BLOCK)
    if packed is not None:
        return packed
    c_codes, c_lens, offsets, esc = _chunks(slots, code)
    words = _pack_words(values, c_codes, c_lens, offsets, esc)[: (total_bits + 63) >> 6]
    payload = words.astype(">u8").tobytes()[: (total_bits + 7) >> 3]
    return payload, offsets[_SYNC_BLOCK:-1:_SYNC_BLOCK]


def _chunks(slots: np.ndarray, code: HuffmanCode):
    """Per-element codes, code lengths and bit positions of mapped symbols.

    Returns ``(c_codes, c_lens, offsets, esc)``: ``offsets`` (size
    ``n + 1``) is the bit position of every element in the range and
    its total; ``esc`` lists the escaped elements, each of which
    occupies its ESCAPE code plus 64 raw bits.
    """
    esc = np.flatnonzero(slots == code.symbols.size)
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
    """Word buffer of a chunkified segment: the codes — ESCAPE codes
    included — at their positions, then the raw 64 bits of the escaped
    values right behind their ESCAPE codes, ORed in (disjoint ranges)."""
    buf = _pack_chunks_words(c_codes, c_lens, offsets)
    if esc.size:
        raw_at = np.append(offsets[esc] + c_lens[esc], offsets[-1])
        raw = values[esc].astype(np.uint64)  # two's complement
        buf |= _pack_chunks_words(raw, np.full(esc.size, 64), raw_at)
    return buf


def _pack_chunks_words(
    c_codes: np.ndarray, c_lens: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """MSB-first scatter of (code, length) chunks at bit ``offsets`` (one
    more than chunks: the last is the end) into 64-bit words, plus a
    spill word.  A chunk (1..64 bits) lands in at most two words: the
    left-justified code shifted right by its offset ``r`` in the first,
    left by ``64 - r`` (as ``63 - r`` then 1: ``r = 0`` spills nothing)
    into the next — one ``bitwise_or.reduceat`` per landing word."""
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
