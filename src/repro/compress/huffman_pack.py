"""The Huffman encode side of a segment.

Under the ``native`` kernel backend a segment's whole encode is one C
call, :func:`_code_segment` (``native.huff_segment``): the values'
histogram, the reuse guard read off it, the book built from it where the
guard trips, and one fused map-and-pack.  The NumPy bodies beside it
define the bytes, in two passes: :func:`_map_slots` maps every value to
its book slot by one ``searchsorted`` (:func:`_map_symbols`) and counts
the slots — the guard and the bit count are read off that histogram —
and :func:`_pack_slots` writes the codes, the 64 raw bits behind each
ESCAPE and every :data:`_SYNC_BLOCK`-th bit offset by one bit-array
pack.  The entropy stage's parallel work unit is the class segment
(:func:`repro.compress.lossless.encode_classes`).
"""

from __future__ import annotations

import numpy as np

from ..core import native
from .huffman_book import _DENSE_SPAN_FACTOR, _RESERVE_ESCAPE_MIN_SYMS, HuffmanCode

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


def _code_segment(values: np.ndarray, code: HuffmanCode | None, limit: float, max_table: int,
                  reserve_escape):
    """A non-empty segment's whole encode in one C call: ``(code, payload,
    total_bits, sync)`` with ``code`` while its bits stay within ``limit`` and
    it has every value or an ESCAPE, else with the book ``max_table`` /
    ``reserve_escape`` builds from the segment (returned first); ``False``
    when that fails and ``max_table`` is 0, ``None`` for the NumPy bodies."""
    book = None
    if code is not None:  # the book's dense value table is the C mapping's operand only
        book = code.symbols, code._slot_codes, code._slot_lens, _dense_lut(code, values.size)
    reserve_from = (_RESERVE_ESCAPE_MIN_SYMS if reserve_escape == "auto"
                    else 0 if reserve_escape else 2**62)
    done = native.huff_segment(values, book, limit, max_table, reserve_from, _DENSE_SPAN_FACTOR,
                               _SYNC_BLOCK)
    if not done:
        return done
    built, payload, total_bits, sync = done
    return code if built is None else HuffmanCode._assigned(*built), payload, total_bits, sync


def _map_slots(values: np.ndarray, code: HuffmanCode):
    """Pass 1 of the NumPy bodies: ``(slots, histogram)``, ESCAPE counted last."""
    slots = _map_symbols(values, code)
    return slots, np.bincount(slots, minlength=code.symbols.size + 1)


def _pack_slots(values: np.ndarray, slots: np.ndarray, code: HuffmanCode, total_bits: int):
    """Pass 2 of the NumPy bodies: ``(payload, sync)`` of mapped values whose
    codes add up to ``total_bits`` — every code (and the raw bits behind an
    ESCAPE) spelled out as one row of bits, the rows cut to their lengths and
    packed MSB first."""
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
