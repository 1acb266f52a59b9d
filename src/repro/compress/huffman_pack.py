"""The Huffman encode side, in two passes over a segment.

Pass 1, :func:`_map_slots`, maps every value to its book slot and counts
the slots; the reuse guard and the bit count are read off that
histogram.  Pass 2, :func:`_pack_slots`, writes the codes, the 64 raw
bits behind each ESCAPE and every :data:`_SYNC_BLOCK`-th bit offset.
Each pass is one C loop (``huff_encode``) under the ``native`` kernel
backend — pass 1 through the book's dense value table where
:func:`_dense_lut` builds one; in NumPy otherwise, by one
``searchsorted`` (:func:`_map_symbols`) and one bit-array pack, which
define the bytes.  The entropy stage's parallel work unit is the class
segment (:func:`repro.compress.lossless.encode_classes`).
"""

from __future__ import annotations

import numpy as np

from ..core import native
from .huffman_book import _DENSE_SPAN_FACTOR, HuffmanCode

# The encoder records the bit offset of every _SYNC_BLOCK-th symbol in
# the segment, after its book ("sync").  The offsets let the decoder run
# one cursor per block instead of chasing one serial codeword chain;
# real parallel entropy decoders use the same device.
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
    or ``code.symbols.size`` — the ESCAPE slot — where the book has none."""
    syms = code.symbols
    if syms.size == 0:
        return np.zeros(values.size, dtype=np.intp)
    pos = np.minimum(np.searchsorted(syms, values), syms.size - 1)
    return np.where(syms[pos] == values, pos, syms.size)


def _map_slots(values: np.ndarray, code: HuffmanCode):
    """Pass 1: ``(slots, histogram)``, ESCAPE counted last — one C loop
    where the kernel backend has it, :func:`_map_symbols` otherwise."""
    if native.active():  # the dense table is the C loop's operand only
        mapped = native.huff_map(values, code.symbols, _dense_lut(code, values.size))
        if mapped is not None:
            return mapped
    slots = _map_symbols(values, code)
    return slots, np.bincount(slots, minlength=code.symbols.size + 1)


def _pack_slots(values: np.ndarray, slots: np.ndarray, code: HuffmanCode, total_bits: int):
    """Pass 2: ``(payload, sync)`` of mapped values whose codes add up to
    ``total_bits`` — one C loop where the kernel backend has it, else
    every code (and the raw bits behind an ESCAPE) spelled out as one row
    of bits, the rows cut to their lengths and packed MSB first."""
    packed = native.huff_encode(values, slots, code._slot_codes, code._slot_lens, total_bits,
                                _SYNC_BLOCK)
    if packed is not None:
        return packed
    is_esc = slots == code.symbols.size
    lens = code._slot_lens[slots]
    esc = np.flatnonzero(is_esc)
    # an escaped value's 64 raw bits (two's complement) follow its ESCAPE code
    chunks = np.insert(code._slot_codes[slots], esc + 1, values[esc].astype(np.uint64))
    widths = np.insert(lens, esc + 1, 64)
    justified = (chunks << (64 - widths).astype(np.uint64)).astype(">u8")
    rows = np.unpackbits(justified.view(np.uint8).reshape(-1, 8), axis=1)
    first = np.tri(65, 64, -1, dtype=bool)  # row w: the first w of 64 bits
    payload = np.packbits(rows[first[widths]]).tobytes()
    offsets = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(lens + 64 * is_esc, out=offsets[1:])
    return payload, offsets[_SYNC_BLOCK:-1:_SYNC_BLOCK]
